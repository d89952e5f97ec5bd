"""Equality-delete application (merge-on-read, Iceberg v2 parity) and the
exact key-membership kernel it shares with MERGE.

A delete file is a parquet of key tuples committed at sequence `seq`; it
deletes rows from data files whose `seq_added < seq` (rows written BEFORE
the delete — a later re-insert of the same key survives, exactly Iceberg's
sequence-number rule). Scans apply the filter per batch; rewrite ops apply
it physically while rewriting, so output files (new seq) never resurrect
deleted rows; `ops/deletes.apply_deletes` purges delete files entirely.

Membership kernel (`KeySet`): a build-once, probe-whole-columns hash probe.
Building from a key table takes, per key column, its distinct values
(`pc.unique`) and each key tuple's per-column code into them; the codes
combine mixed-radix into one int64 per tuple. Probing a batch runs one
`pc.index_in` per key column against the prepared value set, combines the
codes the same way and tests them with `np.isin` against the key tuples'
codes. A row with any column value absent from the keys matches nothing.
When the radix product would pass int64, the partial code is first
densified to its rank among the keys' distinct partial codes (a batch
partial code absent from them cannot match), so the result stays exact for
any number of key columns.

Semantics are exact value equality, per column:
- null matches null (`skip_nulls=False`);
- NaN matches NaN and -0.0 matches 0.0 (floats are normalized first);
- a key and a column of different types are compared in their common
  (permissively promoted) type — an int64 key table deletes from an int32
  column by value, and a key outside the column's range (2**40 for int32)
  matches nothing instead of raising; types with no common type (string
  vs int) match nothing;
- int64 keys meet an int64 column as int64, never through float64, so
  keys beyond 2**53 stay distinct.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Driver/broadcast bound for merge-on-read keys: beyond this, reading every
# scan pays too much — run ops.deletes.apply_deletes to purge physically.
MAX_SCAN_DELETE_KEYS = 5_000_000

# Combined codes stay below this; a wider mixed radix is densified first.
_CODE_LIMIT = 1 << 63


def _normalize(col):
    if pa.types.is_floating(col.type):
        col = pc.add(col, pa.scalar(0, col.type))  # -0.0 + 0 == +0.0
    return col


def _codes(col, value_set: pa.Array) -> np.ndarray:
    """Index of each value of `col` in `value_set`, -1 where absent."""
    idx = pc.index_in(col, value_set=value_set, skip_nulls=False)
    return np.asarray(pc.fill_null(idx, -1).to_numpy(), dtype=np.int64)


class KeySet:
    """Exact membership of table rows in a set of key tuples (see the module
    docstring). Build once per key table, then `contains` any number of
    batches; picklable, so it broadcasts to scan and rewrite tasks."""

    def __init__(self, keys: pa.Table):
        self.cols = list(keys.column_names)
        self.sets: dict[str, pa.Array] = {}  # column -> distinct key values
        self._dense: list = []  # per column: None or sorted partial codes
        self._common: dict = {}  # (column, batch type) -> retyped value set
        code, radix = None, 1
        for c in self.cols:
            col = _normalize(keys[c])
            vs = pc.unique(col)
            dense = None
            if code is not None and radix * len(vs) >= _CODE_LIMIT:
                dense = np.unique(code)
                code, radix = np.searchsorted(dense, code), len(dense)
            digit = _codes(col, vs)
            code = digit if code is None else code * len(vs) + digit
            radix *= len(vs)
            self.sets[c] = vs
            self._dense.append(dense)
        self.codes = np.unique(code)

    def _value_set(self, c: str, typ: pa.DataType) -> pa.Array | None:
        """The value set of column `c` in its common type with a batch
        column of type `typ`; None when the two types have none."""
        if (c, typ) not in self._common:
            vs = self.sets[c]
            try:
                common = pa.unify_schemas(
                    [pa.schema([("k", typ)]), pa.schema([("k", vs.type)])],
                    promote_options="permissive").field("k").type
                self._common[(c, typ)] = vs.cast(common)
            except (pa.ArrowInvalid, pa.ArrowTypeError,
                    pa.ArrowNotImplementedError):
                self._common[(c, typ)] = None
        return self._common[(c, typ)]

    def contains(self, batch: pa.Table) -> np.ndarray:
        """Boolean mask: row i of `batch` equals some key tuple."""
        n = len(batch)
        if n == 0 or len(self.codes) == 0:
            return np.zeros(n, bool)
        ok = np.ones(n, bool)
        code = None
        for c, dense in zip(self.cols, self._dense):
            col = _normalize(batch[c])
            vs = self.sets[c]
            if col.type != vs.type:
                vs = self._value_set(c, col.type)
                if vs is None:
                    return np.zeros(n, bool)
                if col.type != vs.type:
                    col = col.cast(vs.type)
            digit = _codes(col, vs)
            ok &= digit >= 0
            if not ok.any():
                return ok
            if dense is not None:
                pos = np.minimum(np.searchsorted(dense, code), len(dense) - 1)
                ok &= dense[pos] == code
                code = pos
            code = digit if code is None else code * len(vs) + digit
        return ok & np.isin(code, self.codes)


def delete_keep_mask(batch: pa.Table, deletes: list[KeySet]) -> np.ndarray:
    """Boolean keep-mask for `batch` against prepared delete key sets
    (exact anti-join semantics, see the module docstring)."""
    keep = np.ones(len(batch), dtype=bool)
    for keys in deletes:
        keep &= ~keys.contains(batch)
    return keep


def filter_deleted(batch: pa.Table, deletes: list[KeySet],
                   project: list[str] | None = None) -> pa.Table:
    mask = delete_keep_mask(batch, deletes)
    out = batch if mask.all() else batch.filter(pa.array(mask))
    return out.select(project) if project is not None else out


def take_positions_preimage(table, pos: pa.Table) -> pa.Table:
    """Read back the rows a position-delete killed (the delete preimages
    for `Table.changes`): group (file_path, pos) by file and take those
    ordinals from each target file. Data files are immutable, so reading by
    path IS the versioned read; the files stay reachable through their
    snapshot's manifests until expiry (which the caller's gap guard
    detects)."""
    import os

    import pyarrow.parquet as pq

    from raylake.functions.cleaning import apply_renames, normalize_schema

    renames = table.meta.get("column_renames") or {}
    parts = []
    pdf = pos.to_pandas()
    for path, g in pdf.groupby("file_path", sort=True):
        t = pq.read_table(os.path.join(table.root, path))
        t = normalize_schema(apply_renames(t, renames), table.schema)
        parts.append(t.take(pa.array(np.sort(g["pos"].to_numpy()))))
    return pa.concat_tables(parts) if parts else table.schema.empty_table()


def apply_positions(t: pa.Table, pos) -> pa.Table:
    """Drop the rows at ordinals `pos` (sorted int64 array) from a FULL
    file table. Positions index the file's own row order, so this must run
    before any row-dropping (equality) filter — the shared kernel for the
    three position-delete read sites (driver scan, distributed scan task,
    rewrite task)."""
    mask = np.ones(len(t), bool)
    mask[pos] = False
    return t.filter(pa.array(mask))
