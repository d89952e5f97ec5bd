"""Register EXTERNAL parquet files into a table without rewriting them
(Iceberg `add_files` / Delta `CONVERT TO DELTA` parity — the zero-copy
import path the reference's bronze loads would use to adopt files already
landed by an upstream system, ref: src/elt/bronze/_bronze_handler.py:50-56
writes fresh files instead because Spark owns the layout end to end).

Semantics:
- Entries carry the file's ABSOLUTE path. Every reader composes paths via
  ``os.path.join(table.root, entry.path)``, which returns the absolute path
  unchanged, so scans / time travel / MOR deletes / CDC all work untouched.
- External files are structurally GC-SAFE: `expire_snapshots`' orphan sweep
  enumerates candidates by walking ``<root>/data`` only, so a file outside
  the root can never be selected for deletion — the table never takes
  ownership (unlike Iceberg, which adopts and may delete; at 100 TB
  adopting another system's files is how two catalogs double-free).
  Maintenance (compact / z-order) REWRITES their rows into managed files,
  after which the external file simply leaves the live set.
- Unpartitioned tables only. Hash-partitioned tables guarantee that bucket
  k holds only keys with ``hash(key) % P == k`` — merge planning and
  bucket joins rely on it — and an arbitrary external file cannot honor
  that invariant. Use ``ops.append`` (which splits by bucket) instead.

The paths are cut into two bins per CPU slot, each one Ray task
(``ops.rewrite.run_bins``; a Ray task costs ≈23 ms of scheduling CPU, so
not one per file). A bin reads ONLY the stats/bloom columns of its files
to build manifest stats (min/max zonemaps + optional bloom filters keep
pruning working for imported files); row counts come from the parquet
footer. The driver lands the entries in one atomic ``add_files`` commit.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from raylake.core import metadata as md
from raylake.core.io import read_file
from raylake.core.metadata import ManifestEntry
from raylake.core.table import Table
from raylake.ops.rewrite import bin_count, run_bins


def _entry_for_file(path: str, t: Table) -> ManifestEntry:
    """Stats-building body for one external file."""
    with pq.ParquetFile(path) as f:
        file_schema = f.schema_arrow
        num_rows = f.metadata.num_rows
    # ORDERED schema equality (metadata-insensitive): scan_arrow concatenates
    # raw file tables, and pa.concat_tables rejects reordered fields — a
    # {name: type} dict compare would adopt a reordered file and leave the
    # table unreadable (review finding)
    if file_schema.remove_metadata() != t.schema.remove_metadata():
        raise ValueError(
            f"add_files: schema mismatch for {path}: file has "
            f"{file_schema.remove_metadata()}, table requires "
            f"{t.schema.remove_metadata()} (field order matters)")
    bloom_cols = t.meta.get("properties", {}).get("write.bloom_columns", [])
    read_cols = [c for c in dict.fromkeys([*t.stats_columns, *bloom_cols])
                 if c in file_schema.names]
    stats: dict[str, list] = {}
    if read_cols and num_rows:
        sub = read_file(path, columns=read_cols)
        stats = md.column_stats(sub, t.stats_columns)
        for c in bloom_cols:
            if c in sub.column_names:
                from raylake.core.bloom import STAT_SUFFIX, bloom_build

                stats[f"{c}{STAT_SUFFIX}"] = bloom_build(
                    sub[c].combine_chunks())
    return ManifestEntry(
        path=path,  # absolute — see module docstring
        partition=-1,
        rows=num_rows,
        bytes=os.path.getsize(path),
        stats=stats,
    )


def _entries_for_files(paths: list[str],
                       table_root: str) -> list[ManifestEntry]:
    """The manifest entries of a bin of external files (one Ray task)."""
    t = Table.load(table_root)
    return [_entry_for_file(p, t) for p in paths]


def add_files(table: Table, paths: list[str], summary: dict | None = None):
    """Adopt external parquet files into `table` by reference (no rewrite).
    Returns the commit Snapshot, or None for an empty path list. Raises on
    partitioned tables, schema mismatch, missing files, and paths already
    live in the table (double-add would double-count rows)."""
    if table.partition_column is not None:
        raise ValueError(
            "add_files requires an unpartitioned table: hash-bucketed "
            "layouts guarantee key co-location that external files can't "
            "honor — use raylake.ops.append to ingest with bucketing")
    paths = [os.path.abspath(p) for p in paths]
    if len(set(paths)) != len(paths):
        raise ValueError("add_files: duplicate paths in request")
    root_abs = os.path.abspath(table.root)  # table.root may be relative
    for p in paths:
        if not os.path.isfile(p):
            raise FileNotFoundError(p)
        if p.startswith(root_abs + os.sep):
            raise ValueError(
                f"add_files: {p} is inside the table root — already-managed "
                "files cannot be re-adopted")
    if not paths:
        return None
    live = {e.path for e in table.live_entries()}
    dups = live.intersection(paths)
    if dups:
        raise ValueError(f"add_files: already live in the table: "
                         f"{sorted(dups)[:3]}")

    n = min(bin_count(), len(paths))
    bins = [paths[i * len(paths) // n:(i + 1) * len(paths) // n]
            for i in range(n)]
    entries = [e for got in run_bins(_entries_for_files, bins,
                                     table_root=table.root) for e in got]
    s = dict(summary or {})
    # commit() already stamps added_files/added_rows; only the external
    # marker is new information
    s.setdefault("added_external_files", len(entries))
    return table.commit("add_files", entries, summary=s)
