"""File sources + the parameterized scan helper (SURVEY §2.1 S1/S6).

- read_source: CSV / JSON / Parquet → ray.data.Dataset with the reference's
  all-string-then-normalize ingest discipline (ref: bronze reads CSV with
  inferSchema=False, src/elt/bronze/load_dim.py:65; types are imposed at the
  silver normalize step, _silver_handler.py:44-55).
- scan_query: columns / where / order_by / limit / offset over a lakehouse
  Table — the Trino-reader surface (ref: src/model/trino_utils.py:29-60).
"""

from __future__ import annotations

import pyarrow as pa

from raylake.core.table import Table
from raylake.functions.cleaning import normalize_schema


def read_source(path: str, fmt: str = "parquet", schema: pa.Schema | None = None,
                **kwargs):
    """CSV/JSON/Parquet reader returning a Dataset; with `schema`, batches are
    normalized (cast / add-null / reorder) like the silver ingest path."""
    import ray.data as rd

    readers = {"parquet": rd.read_parquet, "csv": rd.read_csv,
               "json": rd.read_json}
    if fmt not in readers:
        raise ValueError(f"unsupported format: {fmt}")
    ds = readers[fmt](path, **kwargs)
    if schema is not None:
        ds = ds.map_batches(
            lambda t: normalize_schema(t, schema), batch_format="pyarrow"
        )
    return ds


def scan_query(
    table: Table,
    columns: list[str] | None = None,
    where=None,
    order_by: list[tuple[str, str]] | None = None,
    limit: int | None = None,
    offset: int = 0,
    snapshot: int | None = None,
):
    """Parameterized SELECT over a snapshot-pinned scan (S6). `where` is a
    pyarrow dataset expression that the scan applies to each file's rows
    after decode (no row group is skipped); order/limit/offset run on the
    Dataset."""
    ds = table.scan(snapshot=snapshot, columns=columns, filter=where)
    if order_by:
        ds = ds.sort([c for c, _ in order_by],
                     descending=[d == "desc" for _, d in order_by])
    if offset:
        # Ray Data has no native OFFSET. The reference only uses it for
        # small model-training reads (trino_utils.py:44-48), so mirror that
        # contract: offset requires a limit, and the offset+limit head is
        # sliced driver-side. Never use for large scans.
        if limit is None:
            raise ValueError("offset requires limit (small-result contract)")
        import ray.data as rd

        rows = ds.take(offset + limit)
        return rd.from_items(rows[offset:])
    if limit is not None:
        ds = ds.limit(limit)
    return ds


def write_sink(ds, path: str, fmt: str = "parquet", partition_cols=None,
               **kwargs):
    """CSV / JSON / Parquet sink (S8 — the reference's export surface,
    ref: src/elt/bronze/load_dim.py writes what it read; Spark's
    df.write.csv counterpart). Streaming distributed write: one file per
    block per partition dir — resumable output layout, never one giant
    file. `partition_cols` hive-partitions the output (Ray's native
    partition_cols path)."""
    writers = {"parquet": "write_parquet", "csv": "write_csv",
               "json": "write_json"}
    if fmt not in writers:
        raise ValueError(f"unsupported format: {fmt}")
    if partition_cols and fmt == "parquet":
        kwargs["partition_cols"] = list(partition_cols)
    getattr(ds, writers[fmt])(path, **kwargs)
    return path
