"""Physically apply merge-on-read deletes — equality (`Table.delete_by_keys`)
and position (`Table.delete_by_positions`) — the Iceberg
`rewrite_position_delete_files`/minor-compaction counterpart.

Plan (metadata + delete keys, driver-side, bounded by the scan cap): a data
file is AFFECTED iff at least one delete file applies to it by the sequence
rule AND its key-column min/max stats cannot exclude every applicable delete
key (no stats → conservatively affected); position-targeted files are
always affected (positions name rows directly). Execute: rewrite tasks read their
files through `read_task_inputs` (which applies the deletes) and write the
filtered rows back; a task whose file contained no matching key skips its
rewrite. Commit: replaced files + ALL current delete files removed, in one
atomic snapshot — unplanned files provably contained no applicable key, so
dropping the delete files cannot resurrect or lose rows. Files appended
concurrently carry a later sequence and were never subject to the deletes.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    cut_and_write,
    read_task_inputs,
    run_rewrite_job,
)


def plan_apply_deletes(table: Table, max_task_bytes: int) -> tuple[list[RewriteTask], list[str]]:
    loaded = table._load_delete_keys()
    posmap = table._load_pos_deletes()
    delete_paths = [d["path"] for d in table.delete_files_meta()]
    if not loaded and not posmap:
        return [], delete_paths

    # sorted first-key values per delete file, for stats-range exclusion;
    # null keys can't be excluded by min/max stats → (has_null, sorted)
    sorted_keys = []
    for _, key_cols, keys in loaded:
        vals = keys.sets[key_cols[0]].to_pylist()
        nonnull = [v for v in vals if v is not None]
        sorted_keys.append((len(nonnull) < len(vals), sorted(nonnull)))

    affected_by_part = defaultdict(list)
    for e in table.live_entries():
        if e.path in posmap:  # position-targeted files always rewrite
            affected_by_part[e.partition].append(e)
            continue
        app = table._applicable(e, loaded)
        if not app:
            continue
        hit = False
        for i in app:
            k0 = loaded[i][1][0]
            s = e.stats.get(k0)
            has_null, ks = sorted_keys[i]
            if has_null or not s or s[0] is None:
                hit = True  # null keys / no stats → cannot exclude
                break
            j = bisect.bisect_left(ks, s[0])
            if j < len(ks) and ks[j] <= s[1]:
                hit = True
                break
        if hit:
            affected_by_part[e.partition].append(e)

    tasks: list[RewriteTask] = []
    for p, files in sorted(affected_by_part.items()):
        group, gbytes = [], 0

        def flush():
            nonlocal group, gbytes
            if group:
                tasks.append(RewriteTask(
                    task_id=f"d{p:05d}-{len(tasks):04d}",
                    partition=p,
                    input_paths=[e.path for e in group],
                    input_bytes=gbytes,
                    input_rows=sum(e.rows for e in group),
                ))
            group, gbytes = [], 0

        for e in files:
            if group and gbytes + e.bytes > max_task_bytes:
                flush()
            group.append(e)
            gbytes += e.bytes
        flush()
    return tasks, delete_paths


def _apply_deletes_task(table: Table, task: dict, params: dict) -> dict:
    data = read_task_inputs(table, task)  # deletes applied here
    if len(data) == task["input_rows"]:
        # stats couldn't exclude, but no row actually matched — keep files
        return {"skipped": True, "entries": [], "replaced": [], "rows": 0}
    bpr = task["input_bytes"] / max(1, task["input_rows"])
    entries = cut_and_write(
        table, data, task["partition"], params["target_file_bytes"], bpr)
    return {"entries": entries, "replaced": task["input_paths"],
            "rows": len(data)}


def apply_deletes(
    table: Table,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    max_task_bytes: int | None = None,
):
    """Purge merge-on-read delete files by rewriting the affected data files.
    Returns the committed Snapshot, or None when there were no delete files
    (or the job is incomplete — resume with the same job_id)."""
    from raylake.state.ledger import Ledger

    if job_id is not None and Ledger(table.root, job_id).read_meta() is not None:
        tasks, delete_paths = [], None  # resume from the persisted plan
    else:
        tasks, delete_paths = plan_apply_deletes(
            table, max_task_bytes or target_file_bytes * 4)
        if not delete_paths:
            return None
    return run_rewrite_job(
        table,
        "apply-deletes",
        tasks,
        _apply_deletes_task,
        job_id=job_id,
        params={"target_file_bytes": target_file_bytes},
        concurrency=concurrency,
        max_tasks=max_tasks,
        removed_delete_paths=delete_paths,
    )
