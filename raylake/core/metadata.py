"""Table metadata tree: manifest entries, manifests, snapshots — Avro-free JSON.

Counterpart of the Iceberg metadata the reference relies on (snapshots listed
via `SELECT * FROM tbl.snapshots`, ref: notebooks/iceberg_curd/
create_iceberg_table_by_trino.sql:19-40) but deliberately re-designed:

    <table root>/
      data/p=<bucket>/<name>.parquet          immutable data files
      metadata/table.json                     pointer: current snapshot + log
      metadata/snap-<seq>.json                one snapshot = list of manifests
      metadata/manifest-<uuid>.json           immutable list of file entries
      metadata/jobs/<job_id>/<task_id>.json   resumable per-partition ledger

All metadata files except table.json are immutable; table.json is swapped by
atomic rename under a commit lock (see raylake/core/table.py).

Every ManifestEntry carries per-column min/max stats for the table's
`stats_columns` (default: partition column + sort keys) — these drive scan
pruning (MERGE file pruning, Z-order point-lookup skipping) exactly like
Iceberg's column bounds. Timestamps are stored as epoch microseconds so the
JSON stays trivially portable.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field, asdict
from typing import Any, Iterable

import pyarrow as pa
import pyarrow.compute as pc


def atomic_write_json(path: str, obj: Any) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(obj, f, separators=(",", ":"))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_json(path: str) -> Any:
    with open(path) as f:
        return json.load(f)


def _stat_value(scalar: pa.Scalar) -> Any:
    """JSON-able stat value; timestamps → epoch us, dates → days."""
    if scalar is None or not scalar.is_valid:
        return None
    t = scalar.type
    if pa.types.is_timestamp(t):
        return pc.cast(scalar, pa.int64()).as_py()
    if pa.types.is_date(t):
        return pc.cast(scalar, pa.int32()).as_py()
    return scalar.as_py()


def column_stats(table: pa.Table, columns: Iterable[str]) -> dict[str, list]:
    """{col: [min, max]} over a pyarrow Table (vectorized min_max kernel)."""
    out: dict[str, list] = {}
    for col in columns:
        if col not in table.column_names or len(table) == 0:
            continue
        mm = pc.min_max(table[col])
        out[col] = [_stat_value(mm["min"]), _stat_value(mm["max"])]
    return out


@dataclass
class ManifestEntry:
    path: str  # relative to table root, e.g. "data/p=00003/ab12cd.parquet"
    partition: int  # hash bucket id (-1 for unpartitioned tables)
    rows: int
    bytes: int
    stats: dict[str, list] = field(default_factory=dict)
    seq_added: int = -1  # snapshot sequence that added this file

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "ManifestEntry":
        return ManifestEntry(
            path=d["path"],
            partition=d["partition"],
            rows=d["rows"],
            bytes=d["bytes"],
            stats=d.get("stats", {}),
            seq_added=d.get("seq_added", -1),
        )

    def overlaps(self, col: str, lo: Any, hi: Any) -> bool:
        """True unless this file's [min,max] for `col` provably excludes [lo,hi]."""
        s = self.stats.get(col)
        if not s or s[0] is None or s[1] is None:
            return True  # no stats → cannot prune
        if lo is not None and s[1] < lo:
            return False
        if hi is not None and s[0] > hi:
            return False
        return True


def manifest_envelope(entries: list["ManifestEntry"]) -> dict:
    """Summary envelope of one manifest, stored IN the snapshot so plans can
    skip whole manifest files without opening them (Iceberg's manifest-list
    partition summaries — the two-level metadata tree). `p` is the
    [min, max] partition-id range; `stats` the per-column [min, max] union
    over entries, kept only when EVERY entry carries valid bounds for the
    column (a partial column cannot prune soundly). Bloom stats never fold
    into an envelope (unioning filters loses their point semantics here)."""
    if not entries:
        return {"p": [0, -1], "n": 0, "rows": 0, "stats": {}}
    stats: dict[str, list] = {}
    common = set(entries[0].stats)
    for e in entries[1:]:
        common &= set(e.stats)
    for col in common:
        # "__"-prefixed stats are structured (bloom filters, composite key
        # bounds) — scalar envelope min/max semantics don't apply
        if col.endswith("__bloom") or col.startswith("__"):
            continue
        los = [e.stats[col][0] for e in entries]
        his = [e.stats[col][1] for e in entries]
        if any(v is None for v in los) or any(v is None for v in his):
            continue
        try:
            stats[col] = [min(los), max(his)]
        except TypeError:  # mixed/unorderable stat values → cannot prune
            continue
    return {
        "p": [min(e.partition for e in entries),
              max(e.partition for e in entries)],
        "n": len(entries),
        "rows": sum(e.rows for e in entries),
        # seq_added range: incremental/CDC scans skip manifests whose
        # commits all predate the requested window
        "seq": [min(e.seq_added for e in entries),
                max(e.seq_added for e in entries)],
        "stats": stats,
    }


def env_overlaps(env: dict, col: str, lo: Any, hi: Any) -> bool:
    """ManifestEntry.overlaps at envelope granularity: True unless the
    manifest's [min, max] union for `col` provably excludes [lo, hi]."""
    s = (env.get("stats") or {}).get(col)
    if not s or s[0] is None or s[1] is None:
        return True
    if lo is not None and s[1] < lo:
        return False
    if hi is not None and s[0] > hi:
        return False
    return True


@dataclass
class Snapshot:
    seq: int
    parent: int  # 0 = none
    ts_ms: int
    operation: str  # append | overwrite | compact | zorder | merge | delete
    manifests: list[str]  # relative paths of manifest JSON files
    summary: dict = field(default_factory=dict)
    # merge-on-read EQUALITY deletes (Iceberg v2 parity): each entry is
    # {path, rows, key_cols, seq} — a parquet of delete keys committed at
    # `seq`, applying to rows of data files with seq_added < seq (a later
    # re-insert of the key is NOT deleted). Rewrites apply applicable
    # deletes physically, so rewritten files (new seq) never resurrect rows.
    delete_files: list[dict] = field(default_factory=list)
    # per-manifest envelopes aligned with `manifests` (manifest_envelope);
    # None (legacy snapshots) or a misaligned list disables manifest-level
    # pruning for the snapshot — plans fall back to opening every manifest.
    manifest_meta: list | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "Snapshot":
        return Snapshot(
            seq=d["seq"],
            parent=d["parent"],
            ts_ms=d["ts_ms"],
            operation=d["operation"],
            manifests=d["manifests"],
            summary=d.get("summary", {}),
            delete_files=d.get("delete_files", []),
            manifest_meta=d.get("manifest_meta"),
        )


def write_manifest(root: str, entries: list[ManifestEntry]) -> str:
    """Write an immutable manifest file; returns its root-relative path."""
    rel = f"metadata/manifest-{uuid.uuid4().hex}.json"
    atomic_write_json(
        os.path.join(root, rel), {"entries": [e.to_json() for e in entries]}
    )
    return rel


def read_manifest(root: str, rel_path: str) -> list[ManifestEntry]:
    d = read_json(os.path.join(root, rel_path))
    return [ManifestEntry.from_json(e) for e in d["entries"]]
