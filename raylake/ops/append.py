"""Distributed partitioned append (SURVEY §2.1 S2).

Counterpart of the reference's
`df.write.format("iceberg").mode("append").partitionBy(...).saveAsTable(t)`
(ref: src/elt/bronze/_bronze_handler.py:50-56).

`append_batch` splits one Arrow batch by `hash(conv_id) % P`, writes one
Parquet file per (bucket, batch) and returns the manifest entries as rows.
`write_entries` runs it over byte-capped batches (`ops/rewrite.py:
write_batches`): an in-memory table that makes one batch is written in the
driver, anything larger through `map_batches`. The driver lands ONE
atomic append commit. No shuffle: appends tolerate many small files per
bucket — compaction (raylake/ops/compact.py) is the repair path, exactly
the Iceberg architecture the reference leans on.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from raylake.core.metadata import ManifestEntry
from raylake.core.table import Table
from raylake.functions.cleaning import normalize_schema
from raylake.ops.rewrite import write_batches


def append_batch(batch: pa.Table, table_root: str) -> pa.Table:
    """Split one Arrow batch by hash bucket, write one Parquet file per
    (bucket, batch), emit manifest entries as rows."""
    t = Table.load(table_root)
    batch = normalize_schema(batch, t.schema)
    entries: list[str] = []
    if t.partition_column is None:
        entries.append(json.dumps(t.write_file(batch, -1).to_json()))
    else:
        part = t.partition_ids(batch[t.partition_column])
        order = np.argsort(part, kind="stable")
        batch = batch.take(pa.array(order))
        part = part[order]
        bounds = np.flatnonzero(np.diff(part)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(part)]])
        for s, e in zip(starts, ends):
            sub = batch.slice(int(s), int(e - s))
            sub = sub.sort_by([(c, "ascending") for c in t.sort_order])
            entries.append(
                json.dumps(t.write_file(sub, int(part[s])).to_json())
            )
    return pa.table({"entry_json": pa.array(entries, type=pa.string())})


def write_entries(table: Table, ds, concurrency: int | None = None,
                  batch_size: int | None = None) -> list[ManifestEntry]:
    """Write `ds` (ray.data.Dataset or pa.Table) into new files of `table`,
    uncommitted, and return their manifest entries. `batch_size=None`
    sizes batches by a BYTE budget, not rows — wide `text` columns scale
    the row count down so writer heap stays bounded
    (ops/rewrite.byte_capped_batch_size; SURVEY §7 hard part)."""
    parts = write_batches(append_batch, ds, concurrency, batch_size,
                          table_root=table.root)
    return [ManifestEntry.from_json(json.loads(s))
            for p in parts for s in p["entry_json"].to_pylist()]


def append(
    table: Table,
    ds,
    concurrency: int | None = None,
    batch_size: int | None = None,
    summary: dict | None = None,
    branch: str | None = None,
):
    """Append a ray.data.Dataset (or pa.Table) to the table; one commit.
    With `branch`, commits to that ref instead of main (the WAP write step
    — main readers never see the rows until fast_forward publishes)."""
    entries = write_entries(table, ds, concurrency, batch_size)
    if not entries:
        return None
    return table.commit("append", entries, summary=summary, branch=branch)
