"""Z-order clustering by (conv_id, ts) (SURVEY §2.8 T6).

The reference's Iceberg tables *could* be z-ordered (`rewrite_data_files`
with a sort strategy) but never are; the north star requires it. We cluster
WITHIN each hash partition (like Iceberg's per-partition rewrite): every
file of a partition is read, rows are ordered by the Morton-interleaved key
`z = interleave(hash32(conv_id), ts_seconds)` (raylake/core/hashing.py), and
the stream is cut into ~target-size files by `ops.rewrite.cut_and_write`.
Because z-order groups rows of the same conv_id (and adjacent time ranges)
together, each output file gets a tight `ts` min/max and a tight span of
conv_id hashes. `cut_and_write` records that span as the file's hash-space
bounds (`conv_h32`, or `<col>_h32` under `cluster_by`) from the hashes the
curve already computed; point lookups prune on them (`Table.prune_point`),
time-range scans on the `ts` stats (proved in tests). `curve_order` is the
one place the curve is computed: a copy-on-write MERGE into files that
carry `conv_h32` writes its rows in the same Morton order and records
`conv_h32` again (ops/merge.py), so the layout outlives the merge.
Compactions and purges keep their input order and record `<col>_h32`
bounds through the same `cut_and_write`, so lookups keep pruning after
them too.

Per-partition processing means NO global shuffle: at 10^12-turn scale each
partition (1–4 GB by partition-spec sizing) is one actor task; Ray schedules
P of them concurrently. A global z-sort (`ds.sort`) would be an all-to-all
exchange of the entire table for no extra pruning power within this layout.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from raylake.core.hashing import (
    hash32_rows,
    hilbert_key,
    is_string_type,
    morton_interleave,
    stable_hash64,
)
from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    group_files,
    read_task_inputs,
    run_rewrite_job,
    task_result,
)

_MASK32 = np.uint64(0xFFFFFFFF)
#: `stable_hash64(...) >> 32` of a null string: the curve key of a null row
_NULL_H32 = stable_hash64([None])[0] >> np.uint64(32)


def _zstat_key(entry, hash_col: str, raw_col: str):
    """Bin-packing locality key for an input file: prefer the hash32 lower
    bound written by a previous zorder pass (groups of an incremental
    re-zorder then stay near-disjoint in z space), fall back to the raw
    column min stat, else arbitrary. Heuristic only — grouping never
    affects the scan invariant, just pruning tightness."""
    hs = entry.stats.get(hash_col)
    if hs:
        return (0, int(hs[0]), "")
    rs = entry.stats.get(raw_col)
    if rs and rs[0] is not None:
        return (1, 0, str(rs[0]))
    return (2, 0, "")


def plan_zorder(
    table: Table,
    partitions: set[int] | None = None,
    snapshot: int | None = None,
    min_files: int = 1,
    max_task_bytes: int | None = None,
    cluster_by: tuple[str, str] | None = None,
) -> list[RewriteTask]:
    """One task per partition, SPLIT into file groups of ≤ `max_task_bytes`
    when a partition outgrows it (a skewed bucket must not become one
    oversized in-memory sort task). Groups are packed in z-locality-stat
    order, so a previously-clustered partition splits into near-disjoint
    z ranges; a never-clustered one splits arbitrarily — each group is
    still z-sorted internally with tight per-file stats, a point lookup
    then reads ≤ one file per group instead of one per partition (the
    next zorder pass over the merged groups restores full tightness)."""
    hash_col = f"{cluster_by[0]}_h32" if cluster_by else "conv_h32"
    raw_col = cluster_by[0] if cluster_by else "conv_id"
    files = table.prune(partitions=partitions, snapshot=snapshot)
    n_files = Counter(e.partition for e in files)

    def order(part_files):
        if (max_task_bytes is None
                or sum(e.bytes for e in part_files) <= max_task_bytes):
            return part_files
        return sorted(part_files,
                      key=lambda e: _zstat_key(e, hash_col, raw_col))

    return group_files([e for e in files if n_files[e.partition] >= min_files],
                       "z", max_task_bytes, order=order)


def _hash_dim(col: pa.ChunkedArray) -> np.ndarray:
    """Per-row `stable_hash64 >> 32` of a string column (`hash32_rows`,
    each distinct value hashed once), null rows included."""
    keys = hash32_rows(col)
    if col.null_count:
        keys[~col.is_valid().to_numpy(zero_copy_only=False)] = _NULL_H32
    return keys


def _dim_u32(data: pa.Table, col: str) -> tuple[np.ndarray, bool]:
    """Map one cluster column to a uint32 key dimension.

    Returns (keys, hashed): strings hash to their top-32 stable-hash bits
    (equality locality — the point-lookup pruning dimension); timestamps
    scale to epoch seconds (order-preserving, cross-file comparable);
    other numerics dense-rank WITHIN the task scaled across the u32 range
    (order-preserving and distribution-free — clustering only needs
    relative order inside the task; cross-file range pruning comes from
    the raw column min/max stats the write path records anyway)."""
    t = data.schema.field(col).type
    if is_string_type(t):
        return _hash_dim(data[col]), True
    if pa.types.is_timestamp(t):
        per_s = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}[t.unit]
        secs = data[col].cast(pa.int64()).to_numpy(zero_copy_only=False) // per_s
        # clamp (don't mask): pre-epoch must not wrap above all post-epoch
        # rows, and post-2106 saturates instead of folding back to 1970
        return np.clip(secs, 0, 0xFFFFFFFF).astype(np.uint64), False
    vals = data[col].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(vals, return_inverse=True)
    if len(uniq) <= 1:
        return np.zeros(len(vals), np.uint64), False
    step = 0xFFFFFFFF // (len(uniq) - 1)
    return (inv.astype(np.uint64) * np.uint64(step)), False


def curve_order(
    data: pa.Table,
    cluster_by: tuple[str, str] | None = None,
    curve: str = "z",
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[str, tuple[str, np.ndarray]]]:
    """The positions of `data`'s rows (all, or those listed in `rows`)
    along the clustering curve, and the `key_hashes` for `cut_and_write`
    in that order: a contiguous range of the curve has a tight hash32
    span, which each output file records as its hash-space bounds.
    Default keys are (hash32(conv_id), ts seconds) with bounds
    `conv_h32`; `cluster_by=(a, b)` keys each column by `_dim_u32` and
    bounds every string one as `<col>_h32`. Ties keep their input
    order."""
    if cluster_by:
        (c0, c1) = cluster_by
        k0, h0 = _dim_u32(data, c0)
        k1, h1 = _dim_u32(data, c1)
        hash_dims = {f"{c}_h32": (c, k) for c, k, h in
                     ((c0, k0, h0), (c1, k1, h1)) if h}
    else:
        k0 = _hash_dim(data["conv_id"])
        k1 = (data["ts"].cast(pa.int64()).to_numpy() // 1_000_000).astype(np.uint64)
        hash_dims = {"conv_h32": ("conv_id", k0)}
    if curve == "hilbert":
        z = hilbert_key(k0, k1 & _MASK32)
    else:
        z = morton_interleave(k0, k1 & _MASK32)
    if rows is None:
        order = np.argsort(z, kind="stable")
    else:
        order = rows[np.argsort(z[rows], kind="stable")]
    return order, {name: (c, keys[order])
                   for name, (c, keys) in hash_dims.items()}


def _zorder_task(table: Table, task: dict, params: dict) -> dict:
    data = read_task_inputs(table, task)
    if len(data) == 0:
        return task_result(table, task, params, data)
    order, key_hashes = curve_order(data, params.get("cluster_by"),
                                    params.get("curve", "z"))
    return task_result(table, task, params, data.take(pa.array(order)),
                       key_hashes=key_hashes)


def zorder(
    table: Table,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    curve: str = "z",
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    cluster_by: tuple[str, str] | None = None,
    **plan_kwargs,
):
    """Cluster each partition by a space-filling curve: curve="z" (Morton)
    or "hilbert". Default keys are the transcript pair (hash32(conv_id),
    ts-seconds); `cluster_by=(colA, colB)` clusters ANY two columns —
    strings by hash32 (point-lookup pruning via per-file `<col>_h32`
    stats, same mechanism as conv_h32), timestamps by epoch seconds,
    other numerics by in-task dense rank (see `_dim_u32`)."""
    assert curve in ("z", "hilbert")
    if cluster_by is not None:
        cluster_by = tuple(cluster_by)
        if len(cluster_by) != 2:
            raise ValueError("cluster_by takes exactly two columns")
        have = {f.name for f in table.schema}
        missing = [c for c in cluster_by if c not in have]
        if missing:
            raise ValueError(f"no such column(s): {missing}")
    # default split threshold: a skewed bucket that outgrew the
    # partition-spec sizing must not become one oversized sort task
    plan_kwargs.setdefault("max_task_bytes", target_file_bytes * 8)
    return run_rewrite_job(
        table,
        "zorder",
        lambda: (plan_zorder(table, cluster_by=cluster_by, **plan_kwargs), {}),
        _zorder_task,
        job_id=job_id,
        params={"target_file_bytes": target_file_bytes, "curve": curve,
                "cluster_by": list(cluster_by) if cluster_by else None},
        concurrency=concurrency,
        max_tasks=max_tasks,
    )
