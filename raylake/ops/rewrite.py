"""Shared machinery for partitioned rewrite jobs (compact / zorder / merge).

A rewrite job is: plan (pure, from manifest metadata) → execute the per-
partition tasks on a Ray Data actor pool → single atomic replace-commit
assembled from the checkpoint ledger. Tasks are the unit of parallelism AND
of resume: each completed task's lineage (input files → output files) is
ledger-recorded before the commit, so re-running the same job_id skips
finished partitions (SURVEY §4, north_rule "resumable from checkpoint").

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

import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

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


def read_task_inputs(table: Table, task: dict,
                     snapshot: int | str | None = None) -> pa.Table:
    """`snapshot` (seq or branch name) pins the DELETE state applied while
    rewriting — branch-scoped maintenance must apply the branch's deletes,
    not main's."""
    paths = task["input_paths"]
    if not paths:
        return table.schema.empty_table()
    # merge-on-read deletes MUST be applied while rewriting: the output file
    # gets a NEW sequence number, so the delete files would stop applying to
    # it — skipping this would resurrect deleted rows (Iceberg's rule).
    # Memoized per Table instance: _rewrite_batch_inner loads one Table per
    # task, so the manifest walk + delete-parquet reads (and each delete
    # file's KeySet build) happen at most once per task, not once per input
    # file, and ONLY while delete files exist (they're transient — the
    # purge op removes them); with no deletes this costs one snapshot read.
    cache = getattr(table, "_mor_state", None)
    if cache is None or cache[0] != snapshot:
        metas = table.delete_files_meta(snapshot)
        loaded = table._load_delete_keys(snapshot) if metas else []
        posmap = table._load_pos_deletes(snapshot) if metas else {}
        seqmap = (
            {e.path: e.seq_added for e in table.live_entries(snapshot)}
            if metas else {}
        )
        cache = (snapshot, loaded, seqmap, posmap)
        table._mor_state = cache
    _, loaded, seqmap, posmap = cache
    tabs = []
    for p in paths:
        t = pq.read_table(os.path.join(table.root, p))
        pos = posmap.get(p)
        if pos is not None:
            # position deletes bind to THIS file version: apply while
            # rewriting (the commit prunes the entry's replaced targets)
            from raylake.core.deletes import apply_positions

            t = apply_positions(t, pos)
        if loaded:
            from raylake.core.deletes import filter_deleted

            app = table._applicable_seq(seqmap.get(p, -1), loaded)
            if app:
                t = filter_deleted(t, [loaded[i][2] for i in app])
        tabs.append(t)
    schema = table.schema
    if any(t.schema != schema for t in tabs):
        # files written before a schema evolution: rename-migrate + pad/cast
        # to current — compaction thereby migrates old files physically
        from raylake.functions.cleaning import apply_renames, normalize_schema

        renames = table.meta.get("column_renames") or {}
        tabs = [normalize_schema(apply_renames(t, renames), schema)
                for t in tabs]
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


def _rewrite_batch(
    batch: pd.DataFrame, table_root: str, job_id: str, task_fn, params: dict
) -> pd.DataFrame:
    """Task-pool body: one batch = one RewriteTask. Ledger-records each task
    atomically before returning, making the job resumable."""
    cap_arrow_threads(1)
    if os.environ.get("RAYLAKE_PROFILE_TASKS"):  # debug aid, normally off
        import cProfile
        import uuid as _uuid

        prof = cProfile.Profile()
        prof.enable()
        try:
            return _rewrite_batch_inner(batch, table_root, job_id, task_fn, params)
        finally:
            prof.disable()
            os.makedirs("/tmp/raylake_prof", exist_ok=True)
            prof.dump_stats(f"/tmp/raylake_prof/{_uuid.uuid4().hex}.prof")
    return _rewrite_batch_inner(batch, table_root, job_id, task_fn, params)


def _rewrite_batch_inner(batch, table_root, job_id, task_fn, params):
    table = Table.load(table_root)  # one small JSON read per task
    ledger = Ledger(table_root, job_id)
    out = []
    for tj in batch["task_json"]:
        task = json.loads(tj)
        t0 = time.monotonic()
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
        }
        for k in ("staged_rows_read", "staged_rows_used", "cdc_files"):
            if k in res:
                rec[k] = res[k]
        ledger.record(task["task_id"], rec)
        out.append({"task_id": task["task_id"], "rows": rec["rows"], "wall_s": wall})
    return pd.DataFrame(out)


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
    """Execute tasks on an actor pool; commit once ALL tasks are ledgered.

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
        ds = ray.data.from_items(
            [{"task_json": json.dumps(asdict(t))} for t in todo]
        )
        if concurrency is not None:
            concurrency = min(concurrency, len(todo))
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
    plan's replaced files — callers retry via ops.maintain.run_with_retry."""
    job_id = ledger.job_id
    added = [
        ManifestEntry.from_json(e) for rec in done.values() for e in rec["entries"]
    ]
    replaced = {p for rec in done.values() for p in rec["replaced"]}
    if (not added and not replaced and not meta.get("meta_updates")
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
    }
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
    )
    ledger.clear()
    return snap
