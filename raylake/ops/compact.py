"""Small-file compaction (SURVEY §2.8 T5; Iceberg `rewrite_data_files`
counterpart — the reference's bronze layer accrues one small file set per
append, ref: src/elt/bronze/_bronze_handler.py:50-56, and never compacts).

Plan (pure, metadata-only): per partition, gather files smaller than
`small_file_bytes` and greedily bin-pack them — ordered by conv_id min stat
for locality — into task groups of ≈ `max_task_bytes`. Execute: each task
reads its file group, sorts by the table sort order (`(conv_id, turn_idx)`),
and re-cuts into ~`target_file_bytes` files. No shuffle anywhere: data files
are partition-aligned by construction, so compaction is embarrassingly
parallel across partitions/file groups.

Invariant: the post-compaction scan is bit-for-bit identical to the
pre-compaction scan under `(conv_id, turn_idx)` ordering.
"""

from __future__ import annotations

from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    group_files,
    read_task_inputs,
    run_rewrite_job,
    task_result,
)


def plan_compaction(
    table: Table,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    small_file_bytes: int | None = None,
    min_input_files: int = 2,
    max_task_bytes: int | None = None,
    partitions: set[int] | None = None,
    snapshot: int | None = None,
) -> list[RewriteTask]:
    small_file_bytes = small_file_bytes or int(target_file_bytes * 0.75)
    small = [e for e in table.prune(partitions=partitions, snapshot=snapshot)
             if e.bytes < small_file_bytes]
    return group_files(
        small, "p", max_task_bytes or target_file_bytes * 4,
        min_files=min_input_files,
        order=lambda files: sorted(files, key=lambda e: (
            e.stats.get("conv_id") or ["", ""])[0] or ""))


def _compact_task(table: Table, task: dict, params: dict) -> dict:
    data = read_task_inputs(table, task, snapshot=params.get("branch"))
    data = data.sort_by([(c, "ascending") for c in table.sort_order])
    return task_result(table, task, params, data)


def compact(
    table: Table,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    branch: str | None = None,
    **plan_kwargs,
):
    """Plan + execute + commit. Returns the Snapshot (or None if no work /
    incomplete). Resumable: pass the same job_id to continue a partial run —
    the plan persisted in the job meta is reused (never re-planned from the
    possibly-advanced current snapshot). With `branch`, the whole job is
    scoped to that ref (planned from its head, branch deletes applied,
    committed to it) — WAP maintenance: audit the compacted branch, then
    fast_forward to publish."""
    return run_rewrite_job(
        table,
        "compact",
        lambda: (plan_compaction(table, target_file_bytes=target_file_bytes,
                                 snapshot=branch, **plan_kwargs), {}),
        _compact_task,
        job_id=job_id,
        params={"target_file_bytes": target_file_bytes, "branch": branch},
        concurrency=concurrency,
        max_tasks=max_tasks,
        branch=branch,
    )
