"""The one per-file Parquet reader of `core/` and `ops/`.

Every read of ONE data, delete or change file goes through `read_file`:
the driver-side scans (`Table.scan_arrow`, `changes`, delete-key loads) and
the inputs of every rewrite, purge and position-delete task.

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
(`ParquetFile.read` silently drops it, which would narrow a scan and
defeat the pre-evolution fallbacks that catch the error), and a repeated
column comes back repeated.

Multi-file, row-filtered reads (`ops.merge`'s staging files) stay on the
dataset API: pruning row groups across files is what it is for.
"""

from __future__ import annotations

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
