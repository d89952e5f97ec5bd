"""Shared machinery for partitioned rewrite jobs (compact / zorder / merge).

A rewrite job is: plan (pure, from manifest metadata) → pack the per-
partition tasks into two bins per CPU slot → run each bin as one Ray Data
task → single atomic replace-commit assembled from the checkpoint ledger.
Tasks are the unit of resume: each completed task's lineage (input files →
output files) is ledger-recorded before the commit, so re-running the same
job_id skips finished partitions (SURVEY §4, north_rule "resumable from
checkpoint"). Bins are the unit of dispatch: every Ray task costs scheduling
CPU however small its work (≈23 ms on a 1-CPU host), so a job pays that
twice per slot, not once per planned task (`pack_tasks`).

Execution uses Ray Data's TASK pool (a plain function + fn_kwargs), NOT a
per-job actor pool, deliberately: the per-task state here is one parsed
table.json (~KB) — trivially reloadable — while a fresh actor pool per
maintenance op pays O(pool size) process spawns per op, which measurably
INVERTED scaling at 32 CPUs (pool startup ≫ compute for 5 MB tasks; see
BASELINE.md history). Task-pool worker processes are reused across the whole
compact→zorder→merge sequence. Heavy state (models, compiled profiles,
broadcast indexes) still uses actor pools — see raylake/functions/text.py,
raylake/functions/similarity.py (ST1 pattern).
"""

from __future__ import annotations

import heapq
import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field

import pandas as pd
import pyarrow as pa

from raylake.core.io import read_file
from raylake.core.metadata import ManifestEntry
from raylake.core.table import Table
from raylake.state.ledger import Ledger

DEFAULT_TARGET_FILE_BYTES = 128 * 1024 * 1024

#: per-batch heap budget for writer-side map_batches stages; 64 MiB keeps
#: batch × concurrency far under a worker heap at any text width
DEFAULT_BATCH_BUDGET_BYTES = 64 * 1024 * 1024


def byte_capped_batch_size(
    source,
    default_rows: int = 64 * 1024,
    budget_bytes: int = DEFAULT_BATCH_BUDGET_BYTES,
) -> int:
    """Rows per batch such that one batch ≈ `budget_bytes` for WIDE rows.

    Ray's map_batches coalesces blocks to `batch_size` ROWS regardless of
    bytes — a fixed 64k-row batch of 100 KB turns would put ~6 GB in one
    worker heap (SURVEY §7 wide-`text` hazard). Estimate bytes/row from
    the source itself (exact for an in-memory Arrow table; a bounded
    256-row probe for a Dataset) and cap the row count accordingly. At the
    fixture's ~1 KB texts this returns `default_rows` unchanged, so
    normal-width workloads keep their historical batch shape."""
    if isinstance(source, pa.Table):
        if len(source) == 0:
            return default_rows
        bpr = source.nbytes / len(source)
    else:
        try:
            probe = source.limit(256).take_batch(
                256, batch_format="pyarrow")
        except ValueError:
            # Ray's documented empty-dataset signal — nothing to size
            # against. Anything else (actor startup, object-store
            # pressure) must PROPAGATE: silently falling back to the
            # 64k-row default would reinstate the exact wide-row heap
            # hazard this function exists to prevent (review finding).
            return default_rows
        if len(probe) == 0:
            return default_rows
        bpr = probe.nbytes / len(probe)
    return max(1, min(default_rows, int(budget_bytes / max(1.0, bpr))))


_THREADS_CAPPED = False


def cap_arrow_threads(n: int = 1) -> None:
    """Pin pyarrow's process-wide thread pools to the task's CPU allocation.

    Ray reserves `num_cpus=1` per task, but pyarrow's compute/IO pools
    default to ALL hardware cores — so an 8-CPU `ray.init` silently uses 32
    cores inside parquet encode/decode, corrupting any scaling measurement
    (and oversubscribing real clusters). Called once per worker process."""
    global _THREADS_CAPPED
    if not _THREADS_CAPPED:
        import logging

        # pa.Schema with a pandas-metadata blob is unhashable; Ray Data's
        # block-schema dedup then warns once per unify in EVERY worker —
        # pure noise that buries real warnings (r01 verdict, cosmetic #6)
        logging.getLogger(
            "ray.data._internal.arrow_ops.transform_pyarrow"
        ).setLevel(logging.ERROR)
        pa.set_cpu_count(n)
        pa.set_io_thread_count(max(2, n))
        try:
            # Retain freed arena pages: rewrite tasks allocate/free hundreds
            # of MB each; with default decay every worker re-faults zeroed
            # pages at GB/s, and the kernel's page-zeroing serializes across
            # workers (observed: per-task CPU inflating 2-6x at 16-32
            # workers). Worker processes are reused, so retained pages are
            # immediately reused by the next task.
            pa.jemalloc_set_decay_ms(-1)
        except (NotImplementedError, OSError):
            pass
        _THREADS_CAPPED = True


@dataclass
class RewriteTask:
    task_id: str
    partition: int
    input_paths: list[str] = field(default_factory=list)
    input_bytes: int = 0
    input_rows: int = 0
    extra: dict = field(default_factory=dict)


class _DeleteState:
    """The merge-on-read deletes of one snapshot, as one Table instance
    (one bin) reads them: raw equality key tables, the data files'
    sequence numbers and the position map, plus one `KeySet` per distinct
    applicable set of delete files and key-column schema, built on first
    use. A file under N applicable delete files then costs one probe, not
    N (10 delete files over a 10k-row file: 9.7 ms as N probes, 2.75 ms as
    one probe of their union)."""

    def __init__(self, table: Table, snapshot):
        self.snapshot = snapshot
        metas = table.delete_files_meta(snapshot)
        self.loaded = table._load_delete_tables(snapshot) if metas else []
        self.posmap = table._load_pos_deletes(snapshot) if metas else {}
        self.seqmap = (
            {e.path: e.seq_added for e in table.live_entries(snapshot)}
            if metas else {}
        )
        self._probes: dict[tuple, list] = {}

    def applicable(self, path: str) -> tuple:
        if not self.loaded:
            return ()
        return Table._applicable_seq(self.seqmap.get(path, -1), self.loaded)

    def key_cols(self, app: tuple) -> list[str]:
        return list(dict.fromkeys(c for i in app for c in self.loaded[i][1]))

    def probes(self, app: tuple) -> list:
        """One KeySet per key-column schema among the delete files `app`.
        Only tables of an identical schema are concatenated: a union of
        differently typed keys would compare in a promoted type, which
        is not always the exact per-file comparison."""
        if app not in self._probes:
            from raylake.core.deletes import KeySet

            groups: dict[pa.Schema, list] = {}
            for i in app:
                keys = self.loaded[i][2].replace_schema_metadata(None)
                keys = keys.select(sorted(keys.column_names))
                groups.setdefault(keys.schema, []).append(keys)
            self._probes[app] = [KeySet(pa.concat_tables(tabs))
                                 for tabs in groups.values()]
        return self._probes[app]


def _read_current(table: Table, path: str, schema: pa.Schema,
                  columns: list[str] | None) -> pa.Table:
    """One data file as `schema`, the table's current schema or its
    projection to `columns` (renamed, padded and cast). A file written
    before a schema change may lack a projected column: it is read whole
    and normalized, as compaction would migrate it."""
    full = os.path.join(table.root, path)
    try:
        t = read_file(full, columns=columns)
    except (pa.ArrowInvalid, KeyError):
        t = read_file(full)
    if t.schema != schema:
        from raylake.functions.cleaning import apply_renames, normalize_schema

        renames = table.meta.get("column_renames") or {}
        t = normalize_schema(apply_renames(t, renames), schema)
    return t


def read_task_inputs(table: Table, task: dict,
                     snapshot: int | str | None = None,
                     columns: list[str] | None = None) -> pa.Table:
    """The live rows of a task's input files, whole or projected to
    `columns`. `snapshot` (seq or branch name) pins the DELETE state
    applied while rewriting — branch-scoped maintenance must apply the
    branch's deletes, not main's. A projection still applies every
    position and equality delete: it reads the delete key columns too and
    drops them after the filter."""
    paths = task["input_paths"]
    schema = table.schema
    if not paths:
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        return schema.empty_table()
    # merge-on-read deletes MUST be applied while rewriting: the output file
    # gets a NEW sequence number, so the delete files would stop applying to
    # it — skipping this would resurrect deleted rows (Iceberg's rule).
    # Memoized per Table instance: _rewrite_batch_inner loads one Table per
    # bin, so the manifest walk + delete-parquet reads (and each union
    # KeySet build) happen at most once per bin, not once per task or
    # input file, and ONLY while delete files exist (they're transient — the
    # purge op removes them); with no deletes this costs one snapshot read.
    dels = getattr(table, "_mor_state", None)
    if dels is None or dels.snapshot != snapshot:
        dels = table._mor_state = _DeleteState(table, snapshot)
    tabs = []
    for p in paths:
        app = dels.applicable(p)
        need, need_schema = columns, schema
        if columns is not None:
            if app:
                need = list(dict.fromkeys([*columns, *dels.key_cols(app)]))
            need_schema = pa.schema([schema.field(c) for c in need])
        t = _read_current(table, p, need_schema, need)
        pos = dels.posmap.get(p)
        if pos is not None:
            # position deletes bind to THIS file version: apply while
            # rewriting (the commit prunes the entry's replaced targets)
            from raylake.core.deletes import apply_positions

            t = apply_positions(t, pos)
        if app:
            from raylake.core.deletes import filter_deleted

            t = filter_deleted(t, dels.probes(app), columns)
        tabs.append(t)
    return pa.concat_tables(tabs).combine_chunks()


def cut_and_write(
    table: Table,
    data: pa.Table,
    partition: int,
    target_bytes: int,
    bytes_per_row: float,
) -> list[ManifestEntry]:
    """Bin-pack a (pre-sorted) Arrow table into ~target_bytes Parquet files."""
    if len(data) == 0:
        return []
    rows_per_file = max(1, int(target_bytes / max(1.0, bytes_per_row)))
    return [
        table.write_file(data.slice(off, rows_per_file), partition)
        for off in range(0, len(data), rows_per_file)
    ]


def pack_tasks(tasks: list[RewriteTask], n_bins: int) -> list[list[RewriteTask]]:
    """Deal `tasks` into `min(n_bins, len(tasks))` non-empty bins, largest
    `input_bytes` first, each to the currently lightest bin (LPT), and
    return the bins heaviest first. Every bin then holds at most
    `(total - s)/bins + s` bytes, s being its smallest task. Ties break on
    the bin's task count, so zero-byte tasks (pure-insert merge clusters)
    spread across bins instead of piling into the first one."""
    n = min(n_bins, len(tasks))
    bins: list[list[RewriteTask]] = [[] for _ in range(n)]
    heap = [(0, 0, i) for i in range(n)]  # (bytes, tasks, bin index)
    for t in sorted(tasks, key=lambda t: t.input_bytes, reverse=True):
        nbytes, ntasks, i = heapq.heappop(heap)
        bins[i].append(t)
        heapq.heappush(heap, (nbytes + t.input_bytes, ntasks + 1, i))
    return [bins[i] for _, _, i in sorted(heap, reverse=True)]


def _rewrite_batch(
    batch: pd.DataFrame, table_root: str, job_id: str, task_fn, params: dict
) -> pd.DataFrame:
    """Task-pool body: one batch row = one bin of RewriteTasks."""
    cap_arrow_threads(1)
    return _rewrite_batch_inner(batch, table_root, job_id, task_fn, params)


def _rewrite_batch_inner(batch, table_root, job_id, task_fn, params):
    """Run each bin's tasks in sequence, ledger-recording each one
    atomically as it finishes, making the job resumable task by task."""
    table = Table.load(table_root)  # one small JSON read per bin
    ledger = Ledger(table_root, job_id)
    # a bin Ray retries after a worker crash must not rewrite a task it
    # already ledgered: that would orphan the first run's output files
    done = ledger.completed()
    out = []
    for bin_json in batch["bin_json"]:
        for task in json.loads(bin_json):
            if task["task_id"] in done:
                continue
            t0, c0 = time.monotonic(), time.process_time()
            res = task_fn(table, task, params)
            wall = time.monotonic() - t0
            rec = {
                "partition": task["partition"],
                "input_files": task["input_paths"],
                "entries": [e.to_json() for e in res.get("entries", [])],
                "replaced": res.get("replaced", []),
                "rows": res.get("rows", 0),
                "bytes": sum(e.bytes for e in res.get("entries", [])),
                "skipped": res.get("skipped", False),
                "wall_s": wall,
                "cpu_s": time.process_time() - c0,
            }
            for k in ("staged_rows_read", "staged_rows_used", "cdc_files",
                      "deletes"):
                if k in res:
                    rec[k] = res[k]
            ledger.record(task["task_id"], rec)
            out.append({"task_id": task["task_id"], "rows": rec["rows"],
                        "wall_s": wall})
    return pd.DataFrame(out, columns=["task_id", "rows", "wall_s"])


def run_rewrite_job(
    table: Table,
    operation: str,
    tasks: list[RewriteTask],
    task_fn,
    job_id: str | None = None,
    params: dict | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    meta_updates: dict | None = None,
    removed_delete_paths: list[str] | None = None,
    branch: str | None = None,
):
    """Execute tasks as one Ray task per bin; commit once ALL are ledgered.

    There are two bins per CPU slot: the cluster's CPUs, capped by
    `concurrency` (at most that many concurrent Ray tasks) when given.

    Returns the committed Snapshot, or None if the job is incomplete
    (`max_tasks` reached / crash) — call again with the same `job_id` to
    resume — or if every task was a no-op skip. With `branch`, the job is
    scoped to that ref: planned against its head and committed to it (WAP
    maintenance — main readers never see the rewrite until fast_forward).
    """
    import ray
    import ray.data

    job_id = job_id or f"{operation}-{uuid.uuid4().hex[:12]}"
    ledger = Ledger(table.root, job_id)
    meta = ledger.read_meta()
    if meta is None:
        meta = {
            "operation": operation,
            "parent_seq": table.resolve_ref(branch),
            "task_ids": [t.task_id for t in tasks],
            "tasks": [asdict(t) for t in tasks],
        }
        if branch is not None:
            meta["branch"] = branch
        if meta_updates:
            # persisted so a crash-resumed job applies the same atomic
            # table-metadata flip (e.g. the partition-spec change)
            meta["meta_updates"] = meta_updates
        if removed_delete_paths:
            meta["removed_delete_paths"] = list(removed_delete_paths)
        ledger.write_meta(meta)
    elif "tasks" in meta:
        # RESUME: the persisted plan is authoritative. Re-planning from the
        # CURRENT snapshot is unsafe — if a commit landed between crash and
        # resume, positional task_ids (p{part}-{index}) collide with
        # ledgered results of DIFFERENT file groups, and the assembled
        # commit can double-count rows (see ADVICE r01). Callers may pass a
        # freshly-planned list; it is ignored in favor of the plan the
        # ledgered results actually belong to.
        tasks = [RewriteTask(**t) for t in meta["tasks"]]
    elif meta["parent_seq"] != table.current_seq:
        raise RuntimeError(
            f"job {job_id}: cannot resume a pre-plan-persistence job after "
            f"the table advanced (planned at seq {meta['parent_seq']}, now "
            f"{table.current_seq}); start a fresh job_id"
        )

    done = ledger.completed()
    todo = [t for t in tasks if t.task_id not in done]
    if max_tasks is not None:
        todo = todo[:max_tasks]

    if todo:
        slots = max(1, int(ray.cluster_resources().get("CPU", 4)))
        if concurrency is not None:
            slots = min(slots, concurrency)
        # two bins per slot, handed out heaviest first: a slot that drew a
        # light bin pulls the next one, which absorbs the error of
        # input_bytes as a cost estimate. Replaying ledgered task times at
        # 4-32 slots, one bin per slot ran up to 4% longer than one Ray
        # task per planned task; two per slot never did.
        bins = pack_tasks(todo, 2 * slots)
        ds = ray.data.from_items(
            [{"bin_json": json.dumps([asdict(t) for t in b])} for b in bins]
        )
        if concurrency is not None:
            concurrency = min(concurrency, len(bins))
        ds.map_batches(
            _rewrite_batch,
            fn_kwargs={
                "table_root": table.root,
                "job_id": job_id,
                "task_fn": task_fn,
                "params": params or {},
            },
            batch_size=1,
            batch_format="pandas",
            concurrency=concurrency,
            num_cpus=1,
        ).take_all()

    done = ledger.completed()
    if not set(meta["task_ids"]) <= set(done):
        return None  # incomplete — resumable via same job_id

    return commit_from_ledger(table, operation, meta, done, ledger)


def commit_from_ledger(table: Table, operation: str, meta: dict,
                       done: dict, ledger: Ledger):
    """Assemble the single atomic commit from the completed-task ledger.
    Raises CommitConflictError when a concurrent commit invalidated the
    plan's replaced files — callers retry via ops.maintain.run_with_retry.

    Tasks of a merge-on-read MERGE replace nothing: they ledger equality
    delete files (`deletes`) next to their new data files, and the commit
    validates the files they read (`Table.commit`'s `read_paths`)."""
    job_id = ledger.job_id
    added = [
        ManifestEntry.from_json(e) for rec in done.values() for e in rec["entries"]
    ]
    replaced = {p for rec in done.values() for p in rec["replaced"]}
    added_deletes = [d for rec in done.values() for d in rec.get("deletes", [])]
    if (not added and not replaced and not added_deletes
            and not meta.get("meta_updates")
            and not meta.get("removed_delete_paths")):
        ledger.clear()
        return None  # every task was a no-op: nothing to commit
    rewritten_rows = sum(r["rows"] for r in done.values() if not r.get("skipped"))
    summary = {
        "job_id": job_id,
        "tasks": len(meta["task_ids"]),
        "skipped_tasks": sum(1 for r in done.values() if r.get("skipped")),
        "rewritten_rows": rewritten_rows,
        "rewritten_bytes": sum(r["bytes"] for r in done.values()),
        "task_wall_s": round(sum(r["wall_s"] for r in done.values()), 3),
        "task_cpu_s": round(
            sum(r.get("cpu_s", 0.0) for r in done.values()), 3),
        **meta.get("summary", {}),
    }
    read_paths = frozenset()
    if "write_mode" in summary:  # a MERGE: the plan's choice and its cost
        summary["delete_rows"] = sum(d["rows"] for d in added_deletes)
    if summary.get("write_mode") == "merge-on-read":
        read_paths = frozenset(
            p for rec in done.values() for p in rec["input_files"])
    if any("staged_rows_read" in r for r in done.values()):
        # merge read-amplification: Σ staged rows decoded across tasks vs the
        # rows each task actually owned — ≈1.0 means no hot-bucket re-read
        summary["staged_rows_read"] = sum(
            r.get("staged_rows_read", 0) for r in done.values())
        summary["staged_rows_used"] = sum(
            r.get("staged_rows_used", 0) for r in done.values())
    if any("cdc_files" in r for r in done.values()):
        # change-data-feed parquets written by cdc-enabled tasks: recorded
        # in the summary so Table.changes can read them and expire/clone
        # keep them reachable. PRESENCE of the key (even with an empty
        # list) marks the commit cdc-complete — a cdc run whose tasks all
        # had zero logical changes must not read as feed-breaking.
        summary["cdc_files"] = [
            f for r in done.values() for f in r.get("cdc_files", [])]
    snap = table.commit(
        operation,
        added,
        replaced_paths=replaced,
        expected_parent=meta["parent_seq"],
        summary=summary,
        meta_updates=meta.get("meta_updates"),
        removed_delete_paths=frozenset(meta.get("removed_delete_paths", [])),
        branch=meta.get("branch"),
        added_deletes=added_deletes,
        read_paths=read_paths,
    )
    ledger.clear()
    return snap
