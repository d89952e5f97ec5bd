"""Dynamic partition overwrite (SURVEY §2.3/§2.8 extension).

Atomically replace exactly the partitions present in the incoming data,
leaving every other partition's files untouched — the partition-scoped
form of the reference's full-table `mode("overwrite")` loads
(ref: /root/reference/src/elt/silver/_silver_pipeline.py:79-111); public
semantics: Spark `spark.sql.sources.partitionOverwriteMode=dynamic` /
Delta `replaceWhere` / Iceberg `INSERT OVERWRITE` (dynamic).

Plan shape: the incoming rows are written by the SAME no-shuffle writer
as append (`ops/append.py:write_entries`: one file per (bucket, batch),
byte-capped batches, a one-batch table in the driver, anything larger
through `map_batches`); the driver derives the touched partition set from
the new manifest entries and lands ONE atomic commit that adds the new
files and replaces every live file of exactly those partitions. Snapshot
isolation comes from the existing commit machinery: a concurrent rewrite
of a replaced partition fails the still-live check and raises
CommitConflictError; concurrent commits to OTHER partitions rebase
cleanly.

CDC: the commit lands as operation "overwrite", which `Table.changes`
refuses to reconstruct (by design — the op never reads the rows it
replaces, so preimages would require a scan it deliberately skips).
"""

from __future__ import annotations

from raylake.core.table import Table
from raylake.ops.append import write_entries


def overwrite_partitions(
    table: Table,
    ds,
    concurrency: int | None = None,
    batch_size: int | None = None,
    summary: dict | None = None,
    branch: str | None = None,
):
    """Write `ds` (ray.data.Dataset or pa.Table) and atomically swap it in
    for every live file of the partitions it touches. Returns the new
    Snapshot, or None if `ds` is empty (dynamic semantics: no incoming
    partitions → nothing replaced, no commit). `batch_size=None` sizes
    batches by bytes, as append does.

    On an UNPARTITIONED table every row lands in the single partition
    (-1), so this degrades to a full-table overwrite — documented, not an
    error, mirroring dynamic INSERT OVERWRITE on an unpartitioned table.
    """
    added = write_entries(table, ds, concurrency, batch_size)
    if not added:
        return None
    parts = {e.partition for e in added}
    table.refresh()
    replaced = {e.path for e in table.live_entries()
                if e.partition in parts}
    info = {"overwritten_partitions": sorted(int(p) for p in parts)}
    return table.commit(
        "overwrite", added, replaced_paths=replaced,
        expected_parent=table.current_seq,
        summary={**(summary or {}), **info}, branch=branch,
    )
