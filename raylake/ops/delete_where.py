"""Predicate row deletes: `DELETE FROM t WHERE <predicate>` as a
merge-on-read position-delete commit.

The missing half of `Table.delete_by_positions` — something has to PRODUCE
(file_path, pos) pairs. `scan_with_lineage` exposes Iceberg's `_file` /
`_pos` metadata columns: each file is read by exactly one task (positions
index a file's own row order, so the reader must know file boundaries —
`read_parquet` would merge/split them), ordinals are a free `arange`, and
renamed/evolved files normalize to the logical schema before the predicate
sees them. `delete_where` then filters distributed, ships ONLY the matched
(file, pos) pairs to the driver, and commits one small delete parquet:
an O(matches) DELETE regardless of table size, vs a purge rewrite that
re-encodes every affected file. Mass deletes should still use rewrites —
the MOR read tax is per-scan until `apply_deletes` compacts.

Reference semantics: the soft-delete sync in
/root/reference/src/elt/silver/_silver_handler.py:124-143 (flag rows gone
from the source); Iceberg v2 position deletes + metadata columns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raylake.core.table import Table
from raylake.functions.cleaning import apply_renames, normalize_schema

LINEAGE_FILE = "_file"
LINEAGE_POS = "_pos"


def scan_with_lineage(table: Table, columns: list[str] | None = None,
                      snapshot: int | None = None, live_only: bool = False):
    """Streaming Dataset of PHYSICAL rows with `_file` (manifest-relative
    path) and `_pos` (row ordinal within that file) metadata columns.
    By default rows already hidden by merge-on-read delete files are
    included — the raw-file view provenance tools need. With
    `live_only=True` committed position deletes and applicable equality
    deletes (the `seq_added < seq` rule) are subtracted per file, so only
    logically LIVE rows flow — `_pos` still indexes the file's raw row
    order (assigned before any mask)."""
    import ray
    import ray.data

    entries = table.live_entries(snapshot)
    if not entries:
        empty = table.schema.empty_table()
        empty = empty.append_column(LINEAGE_FILE, pa.array([], pa.string()))
        empty = empty.append_column(LINEAGE_POS, pa.array([], pa.int64()))
        return ray.data.from_arrow(empty)
    root = table.root
    renames = table.meta.get("column_renames") or {}
    schema = table.schema
    loaded, posmap = [], {}
    if live_only:
        loaded = table._load_delete_keys(snapshot)
        posmap = table._load_pos_deletes(snapshot)
    key_cols = sorted(set().union(set(), *[set(kc) for _, kc, _ in loaded]))
    if columns is not None:
        read_cols = sorted(set(columns) | set(key_cols))
        schema = pa.schema([schema.field(c) for c in read_cols])
    project = None if columns is None else (
        list(columns) + [LINEAGE_FILE, LINEAGE_POS])
    dels_ref = ray.put(loaded) if loaded else None
    pos_ref = ray.put(posmap) if posmap else None

    def read_one(b: pa.Table) -> pa.Table:
        import os

        from raylake.core.deletes import apply_positions, filter_deleted

        dl = ray.get(dels_ref) if dels_ref is not None else []
        pm = ray.get(pos_ref) if pos_ref is not None else {}
        out = []
        for rel, sa in zip(b["path"].to_pylist(),
                           b["seq_added"].to_pylist()):
            t = pq.read_table(os.path.join(root, rel))
            t = normalize_schema(apply_renames(t, renames), schema)
            t = t.append_column(
                LINEAGE_FILE, pa.array([rel] * len(t), pa.string()))
            t = t.append_column(
                LINEAGE_POS, pa.array(np.arange(len(t), dtype=np.int64)))
            if rel in pm:
                t = apply_positions(t, pm[rel])
            app = Table._applicable_seq(sa, dl)
            if app:
                t = filter_deleted(t, [dl[i][2] for i in app])
            if project is not None:
                t = t.select(project)
            out.append(t)
        return pa.concat_tables(out)

    paths = ray.data.from_items(
        [{"path": e.path, "seq_added": e.seq_added} for e in entries])
    # one file per task: positions are per-file ordinals
    return paths.map_batches(read_one, batch_format="pyarrow", batch_size=1)


def delete_where(table: Table,
                 predicate: Callable[[pa.Table], "pa.ChunkedArray | pa.Array"],
                 columns: list[str] | None = None,
                 summary: dict | None = None):
    """DELETE FROM table WHERE predicate(batch) — evaluates the (vectorized,
    batch → boolean mask) predicate distributed over a lineage scan, then
    commits the matched positions as ONE merge-on-read delete file. Only the
    (file_path, pos) pairs of matched rows ever reach the driver. Returns
    the new snapshot seq, or None when nothing matched. `columns` prunes the
    scan to what the predicate reads.

    The predicate runs over the LIVE view (live_only=True): rows already
    hidden by committed position/equality deletes are never re-matched, so
    overlapping delete_where calls (or a delete_where after delete_by_keys)
    cannot commit duplicate (file, pos) pairs — which scans would dedupe
    harmlessly but Table.changes would surface as duplicate/spurious delete
    preimage events, double-deleting in CDC consumers."""
    ds = scan_with_lineage(table, columns=columns, live_only=True)

    def find(b: pa.Table) -> pa.Table:
        mask = predicate(b.drop_columns([LINEAGE_FILE, LINEAGE_POS]))
        hit = b.filter(mask)
        return pa.table({"file_path": hit[LINEAGE_FILE],
                         "pos": hit[LINEAGE_POS]})

    parts = [b for b in ds.map_batches(find, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow") if len(b)]
    if not parts:
        return None
    pos = pa.concat_tables(parts)
    return table.delete_by_positions(
        pos, summary={"op": "delete_where", **(summary or {})})
