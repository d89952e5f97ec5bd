"""Partition-spec evolution: physically re-bucket the table to a new hash
bucket count, atomically with the spec flip (SURVEY §2.8 addendum; Iceberg
counterpart: `ALTER TABLE ... SET PARTITION SPEC` + `rewrite_data_files`,
which the reference's Iceberg tables support but never exercise —
ref: notebooks/iceberg_curd/create_iceberg_table_by_trino.sql:6-16 declares
the only spec the reference ever uses).

Design (why rewrite instead of Iceberg's lazy multi-spec metadata): MERGE
planning, staging routers and point-lookup pruning all assume ONE active
hash spec — `bucket = hash(key0) % P`. Supporting mixed live specs would
force every one of those paths to expand old-spec candidate buckets (and a
non-divisible P_old→P_new pair destroys pruning entirely). A resumable
partition-aligned rewrite keeps the engine single-spec per snapshot, costs
one pass over the data (no shuffle — each task re-buckets its own file group
locally), and the spec flip rides in the SAME atomic commit as the file
swap, so a torn state where files and spec disagree cannot exist. Old
snapshots stay readable: `prune_point` hashes with the spec that was active
at the scanned snapshot (`Table.num_buckets_at`).
"""

from __future__ import annotations

from raylake.core.hashing import partition_of
from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    group_files,
    read_task_inputs,
    run_rewrite_job,
    task_result,
)


def plan_repartition(
    table: Table, max_task_bytes: int, snapshot: int | None = None
) -> list[RewriteTask]:
    """Every live file, grouped by current partition (locality) into
    ≈max_task_bytes task groups. Pure metadata."""
    return group_files(table.live_entries(snapshot), "r", max_task_bytes)


def _repartition_task(table: Table, task: dict, params: dict) -> dict:
    """Read the file group, split rows by the NEW spec (local hash, no
    shuffle), write one file set per new bucket. Row order within each
    bucket is preserved (stable mask filter), so existing clustering
    survives the re-bucketing."""
    data = read_task_inputs(table, task)
    return task_result(table, task, params, data, partitions=partition_of(
        data[table.partition_column], params["num_buckets"]))


def repartition_table(
    table: Table,
    num_buckets: int,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    max_task_bytes: int | None = None,
):
    """Re-bucket to `num_buckets` and flip the partition spec atomically.
    Resumable via job_id; returns the committed Snapshot (None while
    incomplete). Scan invariant: `scan_arrow(sort=True)` is bit-for-bit
    unchanged."""
    if table.partition_column is None:
        raise ValueError("cannot repartition an unpartitioned table")
    if table.partition_kind != "hash":
        raise ValueError("repartition_table re-buckets hash specs only; "
                         "time partitions are fixed by the calendar")
    if num_buckets == table.num_buckets:
        return None
    spec = dict(table.meta["partition_spec"], num_buckets=int(num_buckets))
    spec_log = table.partition_spec_log + [
        # placeholder — Table.commit stamps since_seq with the ACTUAL commit
        # seq (a rebase over an interleaved append would invalidate any
        # planned-time guess)
        {"num_buckets": int(num_buckets), "since_seq": -1}
    ]
    return run_rewrite_job(
        table,
        "repartition",
        lambda: (plan_repartition(table, max_task_bytes or target_file_bytes * 4),
                 {"meta_updates": {"partition_spec": spec,
                                   "partition_spec_log": spec_log}}),
        _repartition_task,
        job_id=job_id,
        params={"num_buckets": int(num_buckets),
                "target_file_bytes": target_file_bytes},
        concurrency=concurrency,
        max_tasks=max_tasks,
    )
