"""Predicate row deletes: `DELETE FROM t WHERE <predicate>` as a
merge-on-read position-delete commit.

The missing half of `Table.delete_by_positions` — something has to PRODUCE
(file_path, pos) pairs. `scan_with_lineage` exposes Iceberg's `_file` /
`_pos` metadata columns: the reader reads each file whole and on its own
(positions index a file's own row order), ordinals are a free `arange`, and
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

import pyarrow as pa

from raylake.core.table import LINEAGE_FILE, LINEAGE_POS, Table


def scan_with_lineage(table: Table, columns: list[str] | None = None,
                      snapshot: int | None = None, live_only: bool = False):
    """Streaming Dataset of PHYSICAL rows with `_file` (manifest-relative
    path) and `_pos` (row ordinal within that file) metadata columns: the
    scan's one Ray read with `Table.live_reader(lineage=True)`, whose
    tasks read their files one by one. By default rows
    already hidden by merge-on-read delete files are included — the
    raw-file view provenance tools need. With `live_only=True` committed
    position deletes and applicable equality deletes (the `seq_added <
    seq` rule) are subtracted per file, so only logically LIVE rows flow —
    `_pos` still indexes the file's raw row order (assigned before any
    mask)."""
    return table._live_dataset(table.live_entries(snapshot), columns,
                               snapshot, live_only, lineage=True)


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
