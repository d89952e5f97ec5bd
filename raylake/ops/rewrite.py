"""The frame every partitioned rewrite op runs in: compact, zorder,
repartition_table, update_where, apply_deletes and merge_into.

A rewrite job is Iceberg's `rewrite_data_files` shape: planner → persisted
plan → packed bins → ledger → one commit.
- The planner works from table metadata (merge first stages its source,
  a purge reads the delete keys): it returns per-partition RewriteTasks, which all ops but merge
  cut with the one byte-capped file grouper (`group_files`), plus the plan
  facts the commit needs.
- `run_rewrite_job` calls the planner only when the job has no persisted
  plan, and persists the tasks and facts in the job meta. Re-running the
  same job_id therefore resumes the plan its ledgered results belong to,
  never a re-plan of an advanced snapshot. An empty plan leaves no job.
- The tasks are packed into two bins per CPU slot, each run as one plain
  Ray task (`run_bins`): every Ray task costs scheduling CPU however small
  its work (≈23 ms on a 1-CPU host), so a job pays that twice per slot,
  not once per planned task (`pack_tasks`). No Ray Data job launches the
  bins, as no data flows through the launch: two empty bins cost 147 ms of
  process-group CPU as a Ray Data job, 13 ms as Ray tasks (1-CPU host,
  `scripts/launcher_cost.py`).
- Each finished task ledgers its lineage (input files → the files it
  wrote, `task_result`) atomically before the commit, so tasks are the
  unit of resume (SURVEY §4, north_rule "resumable from checkpoint").
- `commit_from_ledger` assembles one atomic replace-commit from the ledger.

Bins are tasks, NOT a per-job actor pool, deliberately: a bin's state is
one parsed table.json (~KB), trivially reloaded, while a fresh actor pool
per op pays O(pool size) process spawns, which measurably INVERTED scaling
at 32 CPUs (pool startup ≫ compute for 5 MB tasks; BASELINE.md history).
Task worker processes are reused across the whole compact→zorder→merge
sequence. Heavy state (models, compiled profiles, broadcast indexes) still
uses actor pools — see raylake/functions/text.py,
raylake/functions/similarity.py (ST1 pattern).
"""

from __future__ import annotations

import heapq
import time
import uuid
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import ray

from raylake.core.hashing import hash32_rows, is_string_type
from raylake.core.metadata import ManifestEntry
from raylake.core.table import CommitConflictError, Table
from raylake.state.ledger import Ledger, written_files

DEFAULT_TARGET_FILE_BYTES = 128 * 1024 * 1024

#: per-batch heap budget for writer batches (`write_batches`); 64 MiB keeps
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
    256-row probe for a Dataset, which reruns its plan unless it is
    materialized) and cap the row count accordingly. At the fixture's
    ~1 KB texts this returns `default_rows` unchanged, so normal-width
    workloads keep their historical batch shape."""
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


def group_files(entries, prefix: str, max_task_bytes: int | None,
                min_files: int = 1, order=None) -> list[RewriteTask]:
    """The tasks of a per-partition bin-packing plan. Each partition's
    files, in ascending partition order, as listed or in `order(files)`,
    are cut into consecutive groups of at most `max_task_bytes` (None: no
    cap; a larger file is a group of its own), and every group of at least
    `min_files` files becomes one task. A partition left with one group
    names its task `<prefix><partition>`, else `<prefix><partition>-<i>`."""
    by_part: dict[int, list] = defaultdict(list)
    for e in entries:
        by_part[e.partition].append(e)
    tasks: list[RewriteTask] = []
    for p, files in sorted(by_part.items()):
        groups, gbytes = [[]], 0
        for e in order(files) if order else files:
            if (groups[-1] and max_task_bytes is not None
                    and gbytes + e.bytes > max_task_bytes):
                groups.append([])
                gbytes = 0
            groups[-1].append(e)
            gbytes += e.bytes
        groups = [g for g in groups if len(g) >= max(1, min_files)]
        for i, g in enumerate(groups):
            tasks.append(RewriteTask(
                task_id=f"{prefix}{p:05d}" + (f"-{i:04d}" if len(groups) > 1
                                              else ""),
                partition=p,
                input_paths=[e.path for e in g],
                input_bytes=sum(e.bytes for e in g),
                input_rows=sum(e.rows for e in g),
            ))
    return tasks


def read_task_inputs(table: Table, task: dict,
                     snapshot: int | str | None = None,
                     columns: list[str] | None = None) -> pa.Table:
    """The live rows of a task's input files (`Table.live_reader`), whole or
    projected to `columns`. `snapshot` (seq or branch name) pins the
    DELETE state applied while rewriting — branch-scoped maintenance must
    apply the branch's deletes, not main's. Merge-on-read deletes MUST be
    applied here: the output file gets a NEW sequence number, so the
    delete files would stop applying to it (Iceberg's rule). The delete
    state is loaded once per Table instance (`run_bin` loads one per
    bin), and the input files' sequence numbers with it, in one
    manifest walk, only while equality deletes exist."""
    paths = task["input_paths"]
    if not paths:
        schema = table.schema
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        return schema.empty_table()
    read = table.live_reader(columns, snapshot)
    return pa.concat_tables([read(p) for p in paths]).combine_chunks()


def cut_and_write(
    table: Table,
    data: pa.Table,
    partition: int,
    target_bytes: int,
    bytes_per_row: float,
    key_hashes: dict[str, tuple[str, np.ndarray]] | None = None,
) -> list[ManifestEntry]:
    """Bin-pack a (pre-sorted) Arrow table into ~target_bytes Parquet files.

    Each output file records hash-space key bounds, `<name> = [min, max]`
    over its non-null keys, for every `key_hashes` entry `name: (column,
    per-row hash32)` and for the lookup key column (`partition_column` or
    conv_id, `<col>_h32`) when it is a string column the caller did not
    pass. An order-preserving rewrite of z-ordered rows (merge, compact,
    purge) then keeps the bounds `prune_point` prunes on; string min/max
    stats cannot, as hashing spreads each key over the whole string range.
    Hashing happens once per call, never per `Table.write_file`, which
    small-file appends call hundreds of times."""
    if len(data) == 0:
        return []
    dims = dict(key_hashes or {})
    key_col = table.partition_column or "conv_id"
    if (key_col in data.column_names
            and key_col not in {c for c, _ in dims.values()}):
        if is_string_type(data.schema.field(key_col).type):
            dims[f"{key_col}_h32"] = (key_col, hash32_rows(data[key_col]))
    valid = {c: (data[c].is_valid().to_numpy(zero_copy_only=False)
                 if data[c].null_count else None)
             for c, _ in dims.values()}
    rows_per_file = max(1, int(target_bytes / max(1.0, bytes_per_row)))
    entries = []
    for off in range(0, len(data), rows_per_file):
        e = table.write_file(data.slice(off, rows_per_file), partition)
        for name, (col, keys) in dims.items():
            hs = keys[off:off + rows_per_file]
            if valid[col] is not None:
                hs = hs[valid[col][off:off + rows_per_file]]
            if len(hs):
                e.stats[name] = [int(hs.min()), int(hs.max())]
        entries.append(e)
    return entries


def task_result(table: Table, task: dict, params: dict, data: pa.Table, *,
                replace: bool = True, partitions: np.ndarray | None = None,
                bytes_per_row: float | None = None, key_hashes=None,
                **counters) -> dict:
    """A task's ledger result: `data` (pre-sorted) written by `cut_and_write`
    as ~`params["target_file_bytes"]` files that replace the task's input
    files (`replace=False`: that add to them). The rows go to the task's
    partition or, with `partitions` (one id per row), each to its own, in
    their order. `bytes_per_row` sizes the files; it defaults to the input
    files' average, or a third of the rows' in-memory average for a task
    without input rows."""
    if bytes_per_row is None:
        bytes_per_row = (
            task["input_bytes"] / task["input_rows"] if task["input_rows"]
            else max(1.0, data.nbytes / max(1, len(data)) / 3))
    if partitions is None:
        parts = [(task["partition"], data)]
    else:
        parts = [(int(b), data.filter(pa.array(partitions == b)))
                 for b in np.unique(partitions)]
    entries = [e for p, rows in parts for e in cut_and_write(
        table, rows, p, params["target_file_bytes"], bytes_per_row,
        key_hashes)]
    return {"entries": entries,
            "replaced": task["input_paths"] if replace else [],
            "rows": len(data), **counters}


def skipped(**counters) -> dict:
    """A task's ledger result when it keeps its input files as they are."""
    return {"skipped": True, "entries": [], "replaced": [], "rows": 0,
            **counters}


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


def run_bin(tasks: list[dict], table_root: str, job_id: str, task_fn,
            params: dict) -> pa.RecordBatch:
    """One bin of a rewrite job: run its tasks in sequence, ledgering each
    one atomically as it finishes, so the job resumes task by task. Returns
    the ids of the tasks it ran."""
    table = Table.load(table_root)  # one small JSON read per bin
    ledger = Ledger(table_root, job_id)
    # a bin Ray retries after a worker crash must not rewrite a task it
    # already ledgered: that would orphan the first run's output files
    done = ledger.completed()
    ran = []
    for task in tasks:
        if task["task_id"] in done:
            continue
        t0, c0 = time.monotonic(), time.process_time()
        res = task_fn(table, task, params)
        rec = {
            "partition": task["partition"],
            "input_files": task["input_paths"],
            "entries": [e.to_json() for e in res.get("entries", [])],
            "replaced": res.get("replaced", []),
            "rows": res.get("rows", 0),
            "bytes": sum(e.bytes for e in res.get("entries", [])),
            "skipped": res.get("skipped", False),
            "wall_s": time.monotonic() - t0,
            "cpu_s": time.process_time() - c0,
            **{k: res[k] for k in ("staged_rows_read", "staged_rows_used",
                                   "cdc_files", "deletes") if k in res},
        }
        ledger.record(task["task_id"], rec)
        ran.append(task["task_id"])
    return pa.record_batch({"task_id": pa.array(ran, pa.string())})


def bin_count(concurrency: int | None = None) -> int:
    """Two bins per CPU slot (the cluster's CPUs, capped by `concurrency`):
    a slot that drew a light bin pulls the next one. Replaying ledgered
    task times at 4-32 slots, one bin per slot ran up to 4% longer than one
    Ray task per planned task; two per slot never did."""
    slots = max(1, int(ray.cluster_resources().get("CPU", 4)))
    if concurrency is not None:
        slots = min(slots, concurrency)
    return 2 * slots


@ray.remote(num_cpus=1)
def _bin_task(fn, items, kwargs):
    cap_arrow_threads(1)
    return fn(items, **kwargs)


def run_bins(fn, bins: list, concurrency: int | None = None,
             **kwargs) -> list:
    """`[fn(b, **kwargs) for b in bins]`, each call one Ray task on one CPU,
    started in list order with at most `concurrency` in flight (None: all).
    When a bin raises, no further bin starts, the running ones are waited
    for (a resume must not race them) and its exception, whose type Ray's
    `RayTaskError` keeps, is re-raised."""
    limit = len(bins) if concurrency is None else max(1, concurrency)
    results, running, nxt = [None] * len(bins), {}, 0
    while running or nxt < len(bins):
        while nxt < len(bins) and len(running) < limit:
            running[_bin_task.remote(fn, bins[nxt], kwargs)] = nxt
            nxt += 1
        [ref], _ = ray.wait(list(running), num_returns=1)
        i = running.pop(ref)
        try:
            results[i] = ray.get(ref)
        except Exception:
            ray.wait(list(running), num_returns=len(running))
            raise
    return results


def _capped_batch(batch, fn, kwargs):
    cap_arrow_threads(1)
    return fn(batch, **kwargs)


def write_batches(fn, source, concurrency: int | None = None,
                  batch_size: int | None = None, **kwargs) -> list[pa.Table]:
    """`fn(batch, **kwargs)` for each `batch_size`-row batch of `source`
    (default: `byte_capped_batch_size`), returning the tables it returns;
    the body of append, partition overwrite and merge staging, which split
    each batch by bucket and write it.

    A `pa.Table` that makes one batch runs in the driver, which already
    holds the rows: a 200-turn append that writes 16 bucket files costs
    ≈226 ms of process-group CPU as a Ray Data job, ≈50 ms as one Ray task
    and ≈35 ms in the driver (1-CPU host, `scripts/launcher_cost.py`).
    Anything larger goes through `map_batches`. A Dataset whose batch size
    is byte-capped is materialized once first, so the size probe reads the
    object store instead of running the Dataset's plan a second time."""
    if isinstance(source, pa.Table):
        if batch_size is None:
            batch_size = byte_capped_batch_size(source)
        if len(source) <= batch_size:
            return [fn(source, **kwargs)] if len(source) else []
        from ray.data import from_arrow

        source = from_arrow(source)
    elif batch_size is None:
        source = source.materialize()
        batch_size = byte_capped_batch_size(source)
    ds = source.map_batches(
        _capped_batch, fn_kwargs={"fn": fn, "kwargs": kwargs},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)
    # a failed batch raises its own exception type, as it does in the driver
    ds.context.raise_original_map_exception = True
    return [b for b in ray.get(ds.to_arrow_refs()) if len(b)]


def run_rewrite_job(
    table: Table,
    operation: str,
    plan,
    task_fn,
    job_id: str | None = None,
    params: dict | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    meta_updates: dict | None = None,
    branch: str | None = None,
):
    """Plan unless resuming, run the tasks as one Ray task per bin, at
    most `concurrency` at a time, and commit once ALL are ledgered.

    `plan` is a zero-argument planner returning `(tasks, facts)`, or a task
    list whose only fact is `meta_updates`. The planner runs only when the
    job has no persisted plan. Facts are persisted with the tasks, so a
    resumed job commits the same ones: `summary` (plan facts for the
    snapshot summary), `removed_delete_paths` (delete files the commit
    drops) and `meta_updates` (table metadata flipped in the same commit,
    e.g. the partition spec).

    Returns the committed Snapshot, or None if the plan is empty, if the job
    is incomplete (`max_tasks` reached / crash) — call again with the same
    `job_id` to resume — or if every task was a no-op skip. With `branch`,
    the job is scoped to that ref: planned against its head and committed
    to it (WAP maintenance — main readers never see the rewrite until
    fast_forward).
    """
    job_id = job_id or f"{operation}-{uuid.uuid4().hex[:12]}"
    ledger = Ledger(table.root, job_id)
    meta = ledger.read_meta()
    if meta is None:
        tasks, facts = (plan() if callable(plan)
                        else (plan, {"meta_updates": meta_updates}))
        if not tasks and not facts.get("removed_delete_paths"):
            # nothing to run or commit (a purge whose bounds ruled out every
            # file still drops its delete files): leave no job directory
            # behind, nor merge's staged source, which lives in it
            ledger.clear()
            return None
        meta = {
            "operation": operation,
            "parent_seq": table.resolve_ref(branch),
            "task_ids": [t.task_id for t in tasks],
            "tasks": [asdict(t) for t in tasks],
            **{k: v for k, v in facts.items() if v},
        }
        if branch is not None:
            meta["branch"] = branch
        ledger.write_meta(meta)
    # The persisted plan is authoritative: after a commit lands between
    # crash and resume, a re-plan's positional task_ids (`group_files`
    # numbers each partition's groups) would collide with ledgered results
    # of DIFFERENT file groups and double-count rows (ADVICE r01).
    tasks = [RewriteTask(**t) for t in meta["tasks"]]

    done = ledger.completed()
    todo = [t for t in tasks if t.task_id not in done]
    if max_tasks is not None:
        todo = todo[:max_tasks]

    if todo:
        bins = pack_tasks(todo, bin_count(concurrency))
        run_bins(run_bin, [[asdict(t) for t in b] for b in bins],
                 concurrency, table_root=table.root, job_id=job_id,
                 task_fn=task_fn, params=params or {})

    done = ledger.completed()
    if not set(meta["task_ids"]) <= set(done):
        return None  # incomplete — resumable via same job_id

    return commit_from_ledger(table, operation, meta, done, ledger)


def commit_from_ledger(table: Table, operation: str, meta: dict,
                       done: dict, ledger: Ledger):
    """Assemble the single atomic commit from the completed-task ledger.
    Raises CommitConflictError when a concurrent commit invalidated the
    plan's replaced files, after dropping the job's ledger — callers retry
    with a fresh plan via ops.maintain.run_with_retry.

    Tasks of a merge-on-read MERGE replace nothing: they ledger equality
    delete files (`deletes`) next to their new data files, and the commit
    validates the files they read (`Table.commit`'s `read_paths`)."""
    job_id = ledger.job_id
    recs = list(done.values())
    added = [ManifestEntry.from_json(e) for e in written_files(recs, "entries")]
    replaced = {p for rec in recs for p in rec["replaced"]}
    added_deletes = written_files(recs, "deletes")
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
        summary["cdc_files"] = written_files(recs, "cdc_files")
    try:
        snap = table.commit(
            operation,
            added,
            replaced_paths=replaced,
            expected_parent=meta["parent_seq"],
            summary=summary,
            meta_updates=meta.get("meta_updates"),
            removed_delete_paths=frozenset(
                meta.get("removed_delete_paths", [])),
            branch=meta.get("branch"),
            added_deletes=added_deletes,
            read_paths=read_paths,
        )
    except CommitConflictError:
        # the plan can never commit now: drop the job, so its files become
        # orphans that expire_snapshots removes, not an in-flight job's
        ledger.clear()
        raise
    ledger.clear()
    return snap
