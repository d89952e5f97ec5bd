"""The one per-file Parquet reader of `core/` and `ops/`.

Every read of ONE data, delete or change file goes through `read_file`.
Data files are read through `read_current` under `Table.live_reader`,
the one reader of a file's live rows behind every scan and rewrite;
delete and change files are read directly.

`pyarrow.parquet.read_table(path)` builds a whole `pyarrow.dataset` per
file — filesystem resolution, discovery, a scanner and a thread-pool
fan-out. On small files that fixed cost exceeds the decode itself.
`read_file` opens the footer with `pq.ParquetFile` and decodes the column
chunks directly.
CPU per file, over 323 zstd files of 32 transcript turns each (pyarrow
16.1, 1-CPU host):

- `pyarrow.parquet.read_table(path)`: 1.4–1.7 ms;
- `ParquetFile.read()`: 0.82–0.88 ms;
- `ParquetFile.read(use_threads=False)`: 0.49–0.58 ms;
- key columns only, `use_threads=False`: 0.33 ms.

Threads rule: decode fans out over Arrow's CPU pool only when that pool
has more than one thread (`pa.cpu_count() > 1`). Rewrite, append and
staging tasks pin it to one (`ops.rewrite.cap_arrow_threads`), and so does
a 1-CPU host; there the fan-out is pure overhead. A multi-core driver
keeps parallel decode. The rule reads what the process can observe, so it
is not a setting.

`read_file` keeps `read_table`'s contract where `ParquetFile.read`
departs from it: a requested column the file lacks raises `ArrowInvalid`
(`ParquetFile.read` silently drops it, which would narrow a scan), and a
repeated column comes back repeated.

`read_current` reads one data file as the table's current schema (or a
projection of it). It decides from the file's own schema, not from the
table's history: a file that holds every wanted column under its current
name and type is read as it is, a projection decoding only those
columns; any other file (written before an `add_column`, a rename or a
type change, whichever sequence number it was committed at) is read
whole, its historical names mapped through the rename map and the rest
padded or cast by `normalize_schema`.

Multi-file, row-filtered reads (`ops.merge`'s staging files) stay on the
dataset API: pruning row groups across files is what it is for.
"""

from __future__ import annotations

from typing import Mapping

import pyarrow as pa
import pyarrow.parquet as pq


def read_file(path: str, columns: list[str] | None = None) -> pa.Table:
    """Read one Parquet file, whole or projected to `columns` (in that
    order). Equal to `pyarrow.parquet.read_table(path, columns=columns)`,
    schema metadata included."""
    with pq.ParquetFile(path) as f:
        if columns is not None:
            names = set(f.schema_arrow.names)
            missing = [c for c in columns if c not in names]
            if missing:
                raise pa.ArrowInvalid(
                    f"{path}: no column(s) {missing} in {f.schema_arrow}")
        t = f.read(columns=columns, use_threads=pa.cpu_count() > 1)
    if columns is not None and t.column_names != list(columns):
        t = t.select(columns)
    return t


def _renamed_away(names: list[str], have: list[str],
                  renames: Mapping[str, str]) -> bool:
    """Whether `apply_renames` would move one of `names` away: a column
    renamed after the file was written, whose old name was re-added."""
    return any(c in renames and renames[c] not in have for c in names)


def read_current(path: str, schema: pa.Schema, renames: Mapping[str, str],
                 whole: bool) -> pa.Table:
    """One data file's rows as `schema`: the table's current schema
    (`whole`) or a projection of it; `renames` is the historical-name map
    (see the module docstring). A whole read decides on the decoded
    file's own schema, which costs nothing more; a projection decides on
    the footer before it decodes anything."""
    threads = pa.cpu_count() > 1
    with pq.ParquetFile(path) as f:
        if whole:
            t = f.read(use_threads=threads)
            if t.schema.equals(schema) and not (renames and _renamed_away(
                    t.column_names, t.column_names, renames)):
                return t
        else:
            footer, names = f.schema_arrow, schema.names
            idx = [footer.get_field_index(c) for c in names]
            if (all(i >= 0 and footer.field(i).equals(fld)
                    for i, fld in zip(idx, schema))
                    and not _renamed_away(names, footer.names, renames)):
                t = f.read(columns=names, use_threads=threads)
                return t if t.column_names == names else t.select(names)
            t = f.read(use_threads=threads)
    from raylake.functions.cleaning import apply_renames, normalize_schema

    return normalize_schema(apply_renames(t, renames), schema)
