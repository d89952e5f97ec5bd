"""MERGE INTO — late-arriving turn upserts (SURVEY §2.7 MG1/MG3/MG4).

Semantics cloned from the reference's Spark-SQL MERGE
(ref: src/elt/silver/_silver_handler.py:195-224):

    WHEN MATCHED AND any column differs (null-safe)  THEN UPDATE
    WHEN NOT MATCHED                                  THEN INSERT
    (mode="delete": WHEN MATCHED THEN DELETE — the soft-delete/J4 shape,
     ref: transform_company_shareholders.py:70-73)

Last-writer-wins per (conv_id, turn_idx): source beats target; among
duplicate source keys the greater `ts` (then later row) wins — the keyed
keep-first dedup D1 (ref: _silver_handler.py:124-143) with commit-order
priority.

Execution plan (no all-to-all shuffle — the shuffle is replaced by
manifest-pruned co-partitioning):

1. **Stage**: source batches are hash-routed to `bucket = hash(conv_id)%P`
   staging Parquet files via `map_batches` (stateless, streaming), or in the
   driver when a `pa.Table` source would make one slice. Per-conv key stats
   (conv_id, turn min/max) come back as a tiny side stream.
2. **Prune**: manifest min/max stats select only target files whose
   (conv_id, turn_idx) range can contain a source key — untouched files are
   never read or rewritten.
3. **Plan with explicit skew splitting** (north_rule): affected files are
   clustered by overlapping composite key intervals
   [(conv_min, turn_min), (conv_max, turn_max)]. Clusters larger than
   `max_task_bytes` are split at interval-disjoint file boundaries — a hot
   conv_id laid out across many files (sorted/z-ordered layout ⇒ disjoint
   turn ranges) parallelizes across turn-range subtasks while keys can never
   straddle two tasks. Each task owns the half-open key range up to the next
   cluster's lower bound, so inserts (brand-new keys) route deterministically.
4. **Execute**: task-pool rewrite tasks (raylake/ops/rewrite.py) read their
   file group + their slice of the staged source, combine last-writer-wins in
   Arrow, and skip the rewrite entirely when the result is bit-identical
   (null-safe change detection, MG4). One atomic replace-commit; resumable
   from the per-task ledger with the plan persisted in the job metadata.

   **Merge-on-read**: an upsert or delete whose planned tasks read more
   than `MOR_MIN_AMPLIFICATION` (64) times the staged source's bytes
   rewrites nothing. Measured ratios: 1.1-9.9 for every merge on the
   `ingest` workload and for `maintain`'s late merge, at most 8.0 in the
   tests, but 649-664 for `maintain`'s small upserts into z-ordered files.
   The same plan, tasks and ledger then read only the key columns of their
   files, match them against the source and write one equality-delete
   file of the matched keys plus the winning source rows; the new rows
   take the commit's sequence number, so the delete never reaches them.
   The choice is persisted with the plan (a resumed job keeps it), falls
   back to copy-on-write near the delete-key scan cap, and the commit
   re-plans where a concurrent commit could make its delete miss or
   over-reach rows (`Table.commit`'s `read_paths`).
"""

from __future__ import annotations

import bisect
import glob
import json
import os
import uuid
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raylake.core import deletes
from raylake.core.deletes import KeySet
from raylake.core.hashing import partition_of
from raylake.core.table import Table
from raylake.functions.cleaning import normalize_schema, null_safe_changed
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    cut_and_write,
    read_task_inputs,
    run_rewrite_job,
)
from raylake.state.ledger import Ledger

def table_keys(table: Table) -> tuple[str, str | None]:
    """Merge keys = the table's IDENTIFIER FIELDS (creation sort order's
    first columns, pinned across sort-order evolution — a clustering change
    must never silently change upsert identity). Transcripts:
    ("conv_id", "turn_idx"). Generic silver tables declare their own order
    at create time."""
    idf = table.identifier_fields
    k0 = idf[0] if idf else table.partition_column
    k1 = idf[1] if len(idf) > 1 else None
    return k0, k1


# --------------------------------------------------------------------- stage


def _stage_batch(batch: pa.Table, table_root: str, staging_dir: str) -> pa.Table:
    """Task-pool body: `_stage_rows` in a Ray worker, whose Arrow pools are
    pinned to its one CPU (never done in the driver: the pin is process-
    wide)."""
    from raylake.ops.rewrite import cap_arrow_threads

    cap_arrow_threads(1)
    return _stage_rows(batch, Table.load(table_root), staging_dir)


def _stage_rows(batch: pa.Table, t: Table, staging_dir: str) -> pa.Table:
    """Split a source batch by bucket, write staging parquet, emit
    per-(bucket, key0) key stats as the return rows."""
    k0, k1 = table_keys(t)
    batch = normalize_schema(batch, t.schema)
    part = partition_of(batch[t.partition_column], t.num_buckets)
    order = np.argsort(part, kind="stable")
    batch = batch.take(pa.array(order))
    part = part[order]
    bounds = np.flatnonzero(np.diff(part)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(part)]])
    stats_rows = {"bucket": [], "key0": [], "tmin": [], "tmax": [], "rows": []}
    for s, e in zip(starts, ends):
        p = int(part[s])
        sub = batch.slice(int(s), int(e - s))
        # Sort each staged file by the merge keys (source row order kept as
        # the tie-break key) and write SMALL row groups: execute-side tasks
        # read the staged bucket with a key-range parquet filter, and tight
        # per-row-group key stats make that filter prune to ≈ the task's own
        # slice — a hot bucket split into k tasks no longer re-reads the
        # whole staged source k times (VERDICT r01 #10).
        sub = sub.append_column(
            "__src_ord", pa.array(np.arange(len(sub), dtype=np.int64))
        )
        sort_keys = [(k0, "ascending")]
        if k1 is not None:
            sort_keys.append((k1, "ascending"))
        sort_keys.append(("__src_ord", "ascending"))
        sub = sub.sort_by(sort_keys).drop(["__src_ord"])
        d = os.path.join(staging_dir, f"b={p:05d}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(sub, os.path.join(d, f"part-{uuid.uuid4().hex}.parquet"),
                       row_group_size=16 * 1024)
        if k1 is not None:
            agg = pa.TableGroupBy(sub.select([k0, k1]), k0).aggregate(
                [(k1, "min"), (k1, "max"), (k1, "count")]
            )
            stats_rows["tmin"].extend(agg[f"{k1}_min"].to_pylist())
            stats_rows["tmax"].extend(agg[f"{k1}_max"].to_pylist())
            stats_rows["rows"].extend(agg[f"{k1}_count"].to_pylist())
        else:
            agg = pa.TableGroupBy(sub.select([k0]), k0).aggregate([(k0, "count")])
            n = len(agg)
            stats_rows["tmin"].extend([0] * n)
            stats_rows["tmax"].extend([0] * n)
            stats_rows["rows"].extend(agg[f"{k0}_count"].to_pylist())
        stats_rows["bucket"].extend([p] * len(agg))
        stats_rows["key0"].extend(agg[k0].to_pylist())
    return pa.table(stats_rows)


def _stage_source(table: Table, source, staging_dir: str) -> pd.DataFrame:
    """Write source to per-bucket staging files; return per-conv key stats.

    The stats stream is one row per (bucket, conv_id) — small relative to the
    source (convs ≪ turns); it is the only thing the driver materializes.
    """
    import ray
    import ray.data

    from raylake.ops.rewrite import byte_capped_batch_size

    # byte-budgeted batches: a 64k-row batch of 100 KB turns would be ~6 GB
    # in the staging worker's heap (SURVEY §7 wide-text hard part)
    batch_size = byte_capped_batch_size(source)
    if isinstance(source, pa.Table):
        # split into one slice per CPU so staging parallelizes (a single
        # Arrow table otherwise becomes ONE block → ONE staging task)
        n_cpus = max(1, int(ray.cluster_resources().get("CPU", 4)))
        n_slices = min(n_cpus, max(1, len(source) // 8192))
        if n_slices == 1:
            # one slice would be one Ray task: stage in the driver, which
            # already holds the table, one byte-capped batch at a time
            # (100-row source: 8-20 ms of CPU here against 85-175 ms for
            # the Ray job)
            parts = [_stage_rows(source.slice(i, batch_size), table,
                                 staging_dir)
                     for i in range(0, len(source), batch_size)]
            stats = (pa.concat_tables(parts).to_pandas() if parts
                     else pd.DataFrame())
            return _merge_key_stats(stats)
        step = max(1, len(source) // n_slices + 1)
        source = ray.data.from_arrow(
            [source.slice(i, step) for i in range(0, len(source), step)]
        )
    stats = source.map_batches(
        _stage_batch,
        fn_kwargs={"table_root": table.root, "staging_dir": staging_dir},
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    ).to_pandas()
    return _merge_key_stats(stats)


def _merge_key_stats(stats: pd.DataFrame) -> pd.DataFrame:
    """One row per (bucket, key0) across the staged batches."""
    if len(stats) == 0:
        return stats
    return (
        stats.groupby(["bucket", "key0"], sort=True)
        .agg(tmin=("tmin", "min"), tmax=("tmax", "max"), rows=("rows", "sum"))
        .reset_index()
    )


# ---------------------------------------------------------------------- plan


def _file_interval(e, k0: str, k1: str | None) -> tuple[tuple, tuple]:
    """Composite (key0, key1) interval enclosing a file's keys. Prefers the
    EXACT lexicographic bounds recorded at write time ("__key_lo"/"__key_hi",
    Table.write_file — stored for the identifier fields, the same (k0, k1)
    this planner receives from table_keys); falls back to the conservative
    rectangle from independent per-column stats for pre-bounds files. The
    rectangle over-approximation matters: a boundary file spanning several
    convs glues every chain it touches, serializing hot-key merges."""
    kl, kh = e.stats.get("__key_lo"), e.stats.get("__key_hi")
    if (k1 is not None and kl and kh
            and kl[0] is not None and kh[0] is not None):
        return ((kl[0], kl[1] if kl[1] is not None else -(2**31)),
                (kh[0], kh[1] if kh[1] is not None else 2**31))
    cs = e.stats.get(k0) or [None, None]
    ts = (e.stats.get(k1) if k1 else None) or [None, None]
    lo = (cs[0] if cs[0] is not None else "", ts[0] if ts[0] is not None else -(2**31))
    hi = (cs[1] if cs[1] is not None else "\U0010ffff", ts[1] if ts[1] is not None else 2**31)
    return lo, hi


MAX_DRIVER_KEY_STATS = 2_000_000  # rows of (bucket, conv) the driver will hold

# Merge-on-read threshold: an upsert or delete MERGE writes an equality
# delete plus the source rows, instead of rewriting its target files, when
# those files hold more than this many times the staged source's bytes
# (both compressed Parquet). Ratios measured on the perfbench workloads:
# `ingest` late merge 5.2 and upserts 1.1-1.3; `maintain` late merge 9.9
# and upserts 649-664 (z-ordered files span every conv_id, so min/max
# pruning keeps 20 of 24 files for ≈95 turns); the 90 merges of the test
# suite at most 8.0. 64 splits the two groups.
MOR_MIN_AMPLIFICATION = 64


def _plan_merge_tasks(
    table: Table, key_stats: pd.DataFrame, max_task_bytes: int
) -> list[RewriteTask]:
    k0, k1 = table_keys(table)
    # manifest-level pruning: only manifests whose partition-range envelope
    # intersects a source-touched bucket are OPENED — a point merge on a
    # many-manifest table (rewrite-manifests keeps them partition-sorted)
    # plans from a handful of manifest files instead of parsing the whole
    # entry tree on the driver (r04 verdict: 260k entries at sf1, ~26M at
    # 100×). Manifests without envelopes always open (conservative).
    touched = sorted(int(b) for b in key_stats["bucket"].unique())

    def _mf(env: dict) -> bool:
        p = env.get("p") or [None, None]
        if p[0] is None:
            return True
        i = bisect.bisect_left(touched, p[0])
        return i < len(touched) and touched[i] <= p[1]

    live_by_part = defaultdict(list)
    for e in table.live_entries(manifest_filter=_mf):
        live_by_part[e.partition].append(e)

    # Scale guard: per-conv stats give exact file pruning, but a source
    # touching ~10^7+ distinct convs must not materialize on the driver.
    # Fall back to per-bucket conv RANGES: pruning coarsens (a bucket's
    # affected files = those overlapping the source's conv range) while
    # clustering/skew-splitting below is unchanged — it only uses file
    # intervals, never the per-conv list.
    coarse = len(key_stats) > MAX_DRIVER_KEY_STATS
    if coarse:
        key_stats = (
            key_stats.groupby("bucket")
            .agg(lo=("key0", "min"), hi=("key0", "max"), rows=("rows", "sum"))
            .reset_index()
        )

    tasks: list[RewriteTask] = []
    bucket_clusters: dict[int, list[dict]] = {}
    for bucket, grp in key_stats.groupby("bucket"):
        bucket = int(bucket)
        convs = None if coarse else sorted(grp["key0"].tolist())
        rng = (grp["lo"].iloc[0], grp["hi"].iloc[0]) if coarse else None
        # prune: files that can contain at least one source key0 value
        affected = []
        for e in live_by_part.get(bucket, []):
            cs = e.stats.get(k0)
            if not cs or cs[0] is None:
                affected.append(e)
                continue
            if coarse:
                if not (rng[1] < cs[0] or rng[0] > cs[1]):
                    affected.append(e)
                continue
            i = bisect.bisect_left(convs, cs[0])
            if i < len(convs) and convs[i] <= cs[1]:
                affected.append(e)

        # Two-phase clustering. Phase 1 — CHAINS: files whose composite
        # intervals overlap MUST share a task (a key's rows rewrite in one
        # place); sorted-interval union. Phase 2 — pack adjacent chains
        # into clusters up to `max_task_bytes` (locality for small files).
        files = sorted(affected, key=lambda e: _file_interval(e, k0, k1)[0])
        chains: list[dict] = []
        for e in files:
            lo, hi = _file_interval(e, k0, k1)
            if chains and lo <= chains[-1]["hi"]:
                c = chains[-1]
                c["files"].append(e)
                c["hi"] = max(c["hi"], hi)
                c["bytes"] += e.bytes
                c["rows"] += e.rows
            else:
                chains.append({"files": [e], "lo": lo, "hi": hi,
                               "bytes": e.bytes, "rows": e.rows})
        clusters: list[dict] = []
        for ch in chains:
            cur = clusters[-1] if clusters else None
            if cur is not None and cur["bytes"] + ch["bytes"] <= max_task_bytes:
                cur["chains"].append(ch)
                cur["hi"] = max(cur["hi"], ch["hi"])
                cur["bytes"] += ch["bytes"]
                cur["rows"] += ch["rows"]
            else:
                clusters.append({"chains": [ch], "lo": ch["lo"],
                                 "hi": ch["hi"], "bytes": ch["bytes"],
                                 "rows": ch["rows"]})
        if not clusters:
            clusters = [{"chains": [], "lo": None, "hi": None,
                         "bytes": 0, "rows": 0}]
        bucket_clusters[bucket] = clusters

    # Phase 3 — OUTLIER SKEW SPLIT (relative, not absolute): a hot conv_id
    # whose bucket packs into one cluster far above the plan's typical task
    # is a straggler even when it sits under the byte budget (measured:
    # one 10⁶-turn conv made merge wall 2× the uniform case while Σ
    # task-CPU stayed flat — pure parallelism loss). Any cluster over 2×
    # the plan median re-packs its chains toward ~median rows; chains are
    # interval-disjoint, so the split preserves the one-task-per-key rule.
    med_src = [c["rows"] for cls in bucket_clusters.values()
               for c in cls if c["rows"] > 0]
    med = int(np.median(med_src)) if med_src else 0
    for bucket, clusters in bucket_clusters.items():
        if med:
            split: list[dict] = []
            for c in clusters:
                if c["rows"] <= 2 * med or len(c["chains"]) <= 1:
                    split.append(c)
                    continue
                for ch in c["chains"]:
                    cur = split[-1] if split and split[-1].get("_sub") else None
                    if cur is not None and cur["rows"] + ch["rows"] <= med:
                        cur["chains"].append(ch)
                        cur["hi"] = max(cur["hi"], ch["hi"])
                        cur["bytes"] += ch["bytes"]
                        cur["rows"] += ch["rows"]
                    else:
                        split.append({"chains": [ch], "lo": ch["lo"],
                                      "hi": ch["hi"], "bytes": ch["bytes"],
                                      "rows": ch["rows"], "_sub": True})
            clusters = split
        for i, cl in enumerate(clusters):
            cfiles = [e for ch in cl["chains"] for e in ch["files"]]
            lo = None if i == 0 else list(clusters[i]["lo"])
            hi = None if i == len(clusters) - 1 else list(clusters[i + 1]["lo"])
            tasks.append(
                RewriteTask(
                    task_id=f"m{bucket:05d}-{i:04d}",
                    partition=bucket,
                    input_paths=[e.path for e in cfiles],
                    input_bytes=sum(e.bytes for e in cfiles),
                    input_rows=sum(e.rows for e in cfiles),
                    extra={"bucket": bucket, "lo": lo, "hi": hi},
                )
            )
    return tasks


# ------------------------------------------------------------------- execute


def _key_ge(tbl: pa.Table, k0: str, k1: str | None, bound: list):
    c, t = bound
    if k1 is None:
        return pc.greater_equal(tbl[k0], c)
    return pc.or_(
        pc.greater(tbl[k0], c),
        pc.and_(pc.equal(tbl[k0], c), pc.greater_equal(tbl[k1], t)),
    )


def _filter_key_range(tbl: pa.Table, k0: str, k1: str | None, lo, hi) -> pa.Table:
    mask = None
    if lo is not None:
        mask = _key_ge(tbl, k0, k1, lo)
    if hi is not None:
        m2 = pc.invert(_key_ge(tbl, k0, k1, hi))
        mask = m2 if mask is None else pc.and_(mask, m2)
    return tbl if mask is None else tbl.filter(mask)


def last_writer_wins(
    tgt: pa.Table, src: pa.Table, keys=("conv_id", "turn_idx"),
    order_col: str | None = "ts",
) -> pa.Table:
    """Reference combine (kept as the semantic spec + for callers that want
    whole-batch dedup incl. pre-existing target duplicates): one row per
    key, source beats target; among source duplicates greater `order_col`
    then later row wins. `_merge_task` uses the equivalent targeted-update
    algorithm instead — same result when target keys are unique, one data
    pass instead of three.
    Pure Arrow (no pandas round-trip — `text` bytes must not drift)."""
    n_t, n_s = len(tgt), len(src)
    comb = pa.concat_tables([tgt, src]).combine_chunks()
    prio = np.concatenate(
        [np.zeros(n_t, dtype=np.int64), np.ones(n_s, dtype=np.int64)]
    )
    ordc = np.arange(n_t + n_s, dtype=np.int64)
    comb = comb.append_column("__prio", pa.array(prio)).append_column(
        "__ord", pa.array(ordc)
    )
    order_keys = [(k, "ascending") for k in keys] + [("__prio", "ascending")]
    if order_col and order_col in comb.column_names:
        order_keys.append((order_col, "ascending"))
    order_keys.append(("__ord", "ascending"))
    comb = comb.sort_by(order_keys)
    if len(comb) == 0:
        return comb.drop(["__prio", "__ord"])
    # keep the LAST row of each key run
    last = None
    for k in keys:
        a = comb[k].combine_chunks()
        neq = pc.not_equal(a.slice(0, len(a) - 1), a.slice(1))
        last = neq if last is None else pc.or_(last, neq)
    last_np = np.concatenate(
        [last.to_numpy(zero_copy_only=False).astype(bool), [True]]
    )
    return comb.filter(pa.array(last_np)).drop(["__prio", "__ord"])


def _task_source(table: Table, task: dict, params: dict,
                 keys: list[str]) -> tuple[pa.Table, int]:
    """The task's key slice of the staged source, reduced to one row per
    key by source-side last-writer-wins (greater order_col, then later
    row), and the count of staged rows decoded to find it."""
    k0, k1 = table_keys(table)
    staged = sorted(
        glob.glob(os.path.join(params["staging_dir"], f"b={task['partition']:05d}", "*.parquet"))
    )
    lo, hi = task["extra"]["lo"], task["extra"]["hi"]
    # conservative k0 row-group filter (staged files are key-sorted with
    # small row groups, so this prunes to ≈ the task's own key slice);
    # the composite-exact range cut follows in memory
    filters = []
    if lo is not None:
        filters.append((k0, ">=", lo[0]))
    if hi is not None:
        filters.append((k0, "<=", hi[0]))
    src = (
        # partitioning=None: the list+filters path goes through the dataset
        # API, which would otherwise hive-infer the staging dir's `b=NNNNN`
        # as a phantom column (same Ray 2.49/pyarrow trap as Table.scan)
        pq.read_table(staged, filters=filters or None,
                      partitioning=None).combine_chunks()
        if staged
        else table.schema.empty_table()
    )
    staged_rows_read = len(src)
    src = _filter_key_range(src, k0, k1, lo, hi)
    if len(src) > 1:
        order_col = params["order_col"]
        src = src.append_column(
            "__ord", pa.array(np.arange(len(src), dtype=np.int64))
        )
        sort_keys = [(k, "ascending") for k in keys]
        if order_col and order_col in src.column_names:
            sort_keys.append((order_col, "ascending"))
        sort_keys.append(("__ord", "ascending"))
        src = src.sort_by(sort_keys).combine_chunks().drop(["__ord"])
        last = None
        for k in keys:  # real-key comparison, not hashes (collision-proof)
            a = src[k].combine_chunks()
            neq = pc.not_equal(a.slice(0, len(a) - 1), a.slice(1))
            last = neq if last is None else pc.or_(last, neq)
        last_np = np.concatenate(
            [last.to_numpy(zero_copy_only=False).astype(bool), [True]]
        )
        if not last_np.all():
            src = src.filter(pa.array(last_np))
    return src, staged_rows_read


def _is_noop(matched_rows: pa.Table, src: pa.Table, keys: list[str]) -> bool:
    """MG4 null-safe no-op: every source row is bit-identical to the one
    target row its key matched."""
    if len(matched_rows) != len(src):
        return False
    sort_keys = [(k, "ascending") for k in keys]
    return (matched_rows.sort_by(sort_keys).combine_chunks()
            .equals(src.sort_by(sort_keys).combine_chunks()))


def _upsert_cdc(table: Table, pre: pa.Table, src: pa.Table,
                keys: list[str]) -> list:
    """Change-data-feed capture (Delta CDF shape): the task knows exactly
    which target rows it replaces and which source rows are fresh —
    recorded as update pre/post images + inserts."""
    upd = KeySet(pre.select(keys)).contains(src)
    return _write_cdc_file(table, [
        (pre, "update_preimage"),
        (src.filter(pa.array(upd)), "update_postimage"),
        (src.filter(pa.array(~upd)), "insert"),
    ])


def _merge_task(table: Table, task: dict, params: dict) -> dict:
    """Targeted update: the source slice is small relative to the target
    file group, so instead of concat+global-sort+dedup (three full passes of
    gather over wide `text` rows — memory-bandwidth death at high
    parallelism) we match source keys exactly against target rows
    (`KeySet`, one hash probe per key column), drop the matched targets,
    and append the winning source rows. One filter pass + one write;
    unchanged rows are never re-ordered. Output files carry manifest stats
    as usual; scan-order guarantees come from the explicit verification
    sort, not file order. A merge-on-read plan runs `_merge_on_read`
    instead, which writes no target row back."""
    k0, k1 = table_keys(table)
    keys = [k0] + ([k1] if k1 else [])
    src, staged_rows_read = _task_source(table, task, params, keys)
    counters = {"staged_rows_read": staged_rows_read,
                "staged_rows_used": len(src)}
    skipped = {"skipped": True, "entries": [], "replaced": [], "rows": 0,
               **counters}
    if len(src) == 0:
        return skipped
    if params.get("write_mode") == "merge-on-read":
        return {**_merge_on_read(table, task, params, src, keys), **counters}

    tgt = read_task_inputs(table, task)
    if params["mode"] == "scd2":
        return {**_scd2_task_body(table, task, params, tgt, src, keys),
                **counters}

    matched = KeySet(src.select(keys)).contains(tgt)

    if params["mode"] == "delete":
        if not matched.any():
            return skipped
        result = tgt.filter(pa.array(~matched))
        if params.get("cdc"):
            counters["cdc_files"] = _write_cdc_file(
                table, [(tgt.filter(pa.array(matched)), "delete")])
    else:
        pre = None
        if params.get("cdc") or int(matched.sum()) == len(src):
            pre = tgt.filter(pa.array(matched))
            if _is_noop(pre, src, keys):
                return skipped
        keep = tgt.filter(pa.array(~matched)) if matched.any() else tgt
        result = pa.concat_tables([keep, src])
        if params.get("cdc"):
            counters["cdc_files"] = _upsert_cdc(table, pre, src, keys)

    bpr = (
        task["input_bytes"] / max(1, task["input_rows"])
        if task["input_rows"]
        else max(1.0, result.nbytes / max(1, len(result)) / 3)
    )
    entries = cut_and_write(
        table, result, task["partition"], params["target_file_bytes"], bpr
    )
    return {"entries": entries, "replaced": task["input_paths"], "rows": len(result),
            **counters}


def _merge_on_read(table: Table, task: dict, params: dict,
                   src: pa.Table, keys: list[str]) -> dict:
    """Merge-on-read body (upsert and delete modes): match the source
    against the key columns of the task's files only, then write one
    equality-delete file of the matched keys and, for an upsert, the
    winning source rows as new files. Those files take the commit's
    sequence number, so the delete never reaches them. Full target rows
    are read only from files holding a match, and only when the CDC
    pre-images or the all-matched no-op check need them."""
    probe = KeySet(src.select(keys))
    hits, matched_keys = [], []
    for p in task["input_paths"]:
        tk = read_task_inputs(table, {**task, "input_paths": [p]},
                              columns=keys)
        m = probe.contains(tk)
        if m.any():
            hits.append(p)
            matched_keys.append(tk.filter(pa.array(m)))
    n_matched = sum(len(t) for t in matched_keys)
    upsert = params["mode"] == "upsert"
    if n_matched == 0 and not upsert:
        return {"skipped": True, "entries": [], "replaced": [], "rows": 0}
    pre = None
    if params.get("cdc") or (upsert and n_matched == len(src)):
        tgt = read_task_inputs(table, {**task, "input_paths": hits})
        pre = tgt.filter(pa.array(probe.contains(tgt)))
        if upsert and _is_noop(pre, src, keys):
            return {"skipped": True, "entries": [], "replaced": [], "rows": 0}
    out: dict = {"replaced": [], "entries": [], "rows": 0}
    if n_matched:
        out["deletes"] = [table.write_delete_file(
            pa.concat_tables(matched_keys))]
    if upsert:
        bpr = max(1.0, src.nbytes / len(src) / 3)
        out["entries"] = cut_and_write(
            table, src, task["partition"], params["target_file_bytes"], bpr)
        out["rows"] = len(src)
    if params.get("cdc"):
        out["cdc_files"] = (_upsert_cdc(table, pre, src, keys) if upsert
                            else _write_cdc_file(table, [(pre, "delete")]))
    return out


def _write_cdc_file(table: Table, parts: list) -> list:
    """Write one change-data parquet for a merge task: the table columns
    plus `_change_type` (insert | update_preimage | update_postimage |
    delete). Files live under data/cdc/ — reachable through the commit
    summary (`cdc_files`), protected by expire's reachability walk and
    carried by shallow clones; read back by `Table.changes`."""
    names = table.schema.names
    tabs = []
    for t, ctype in parts:
        if len(t) == 0:
            continue
        t = t.select(names)
        tabs.append(t.append_column(
            "_change_type", pa.array([ctype] * len(t), pa.string())))
    if not tabs:
        return []
    out = pa.concat_tables(tabs)
    rel = f"data/cdc/{uuid.uuid4().hex}.parquet"
    os.makedirs(os.path.join(table.root, "data", "cdc"), exist_ok=True)
    pq.write_table(out, os.path.join(table.root, rel), compression="zstd")
    return [{"path": rel, "rows": len(out)}]


SCD2_COLS = ("start_timestamp", "end_timestamp", "is_current")


def _scd2_task_body(
    table: Table, task: dict, params: dict,
    tgt: pa.Table, src: pa.Table, keys: list[str],
) -> dict:
    """Distributed SCD2 close-and-insert (MG2), the reference's two-statement
    merge (ref src/elt/silver/_silver_handler.py:156-192) run inside one
    pruned/skew-split rewrite task:

    - step 1 (close): a CURRENT target row whose key matches a source row and
      whose tracked columns differ (null-safe) gets end_timestamp = THAT
      source row's start stamp (ref: `UPDATE SET target.end_timestamp =
      source.start_timestamp`), is_current = false;
    - step 2 (insert): source rows whose key has no current target row, or
      whose match was closed in step 1, are appended as new current versions
      (start, null, true) — _add_scd2_cols, ref :146-153.

    The start stamp is either a batch constant (params["scd2_start_us"]) or
    per-row from params["scd2_start_col"] — the reference's rule is per-row
    updated_at-else-ingest_timestamp (ref :149-150).

    Partitioning assumption: ALL versions of a key hash to the same bucket
    (bucket = hash(key0) % P), and the plan's composite-interval clustering
    puts every file that can hold the key's current row into the same task as
    the source rows for that key — so close/insert decisions are local.
    `src` arrives schema-normalized (scd2 columns null); stamps are applied
    here, so any scd2 columns in the raw source are ignored."""
    tracked = params.get("tracked_cols")
    if tracked is None:  # explicit [] must NOT silently flip to all-columns
        tracked = [c for c in src.column_names
                   if c not in keys and c not in SCD2_COLS]
    n_src = len(src)
    if params.get("scd2_start_col"):
        # str = single column; list = coalesce in order (the reference's
        # updated_at-else-ingest_timestamp rule, _silver_handler.py:149-150).
        cols = params["scd2_start_col"]
        if isinstance(cols, str):
            cols = [cols]
        start_arr = pc.cast(src[cols[0]], pa.timestamp("us"))
        for c in cols[1:]:
            start_arr = pc.coalesce(
                start_arr, pc.cast(src[c], pa.timestamp("us")))
        if pc.any(pc.is_null(start_arr)).as_py():
            # A null here would round-trip through float NaN in the int64
            # cast below and stamp garbage end_timestamps on closed rows.
            raise ValueError(
                f"scd2 start column(s) {cols} contain nulls; coalesce with a "
                f"non-null fallback (e.g. ['updated_at','ingest_timestamp'])")
        start_arr = start_arr.combine_chunks() if isinstance(
            start_arr, pa.ChunkedArray) else start_arr
    else:
        start_arr = pa.array([params["scd2_start_us"]] * n_src,
                             pa.timestamp("us"))
    start_i64 = pc.cast(start_arr, pa.int64()).to_numpy(zero_copy_only=False)
    src = (
        src.set_column(src.schema.get_field_index("start_timestamp"),
                       "start_timestamp", start_arr)
        .set_column(src.schema.get_field_index("end_timestamp"),
                    "end_timestamp", pa.nulls(n_src, pa.timestamp("us")))
        .set_column(src.schema.get_field_index("is_current"),
                    "is_current", pa.array([True] * n_src))
    )

    cur_np = (
        pc.fill_null(tgt["is_current"], False).to_numpy(zero_copy_only=False)
        .astype(bool)
        if len(tgt)
        else np.empty(0, bool)
    )
    # current target rows whose key appears in the source
    matched = KeySet(src.select(keys)).contains(tgt) & cur_np
    midx = np.flatnonzero(matched)

    # source rows whose key has a matched current target row
    sidx = np.flatnonzero(
        KeySet(tgt.take(pa.array(midx)).select(keys)).contains(src))

    # align the two (unique-keyed) subsets by sorting on keys, then compare
    # tracked columns null-safely
    close_mask = np.zeros(len(tgt), bool)
    src_unchanged = np.zeros(n_src, bool)
    if len(midx):
        sort_keys = [(k, "ascending") for k in keys]
        sub_t = tgt.take(pa.array(midx))
        sub_s = src.take(pa.array(sidx))
        t_order = pc.sort_indices(sub_t, sort_keys=sort_keys).to_numpy()
        s_order = pc.sort_indices(sub_s, sort_keys=sort_keys).to_numpy()
        changed = np.asarray(
            null_safe_changed(
                sub_s.take(pa.array(s_order)),
                sub_t.take(pa.array(t_order)),
                tracked,
            )
        ).astype(bool)
        closed_t = midx[t_order[changed]]
        closed_s = sidx[s_order[changed]]
        close_mask[closed_t] = True
        src_unchanged[sidx[s_order[~changed]]] = True

    # insert: new keys (no current match) + changed re-deliveries
    ins_mask = ~src_unchanged
    if not close_mask.any() and not ins_mask.any():
        return {"skipped": True, "entries": [], "replaced": [], "rows": 0}

    if close_mask.any():
        # end_timestamp of each closed row = ITS matched source row's start
        # stamp (per-row, ref :179-181)
        ei = tgt["end_timestamp"].combine_chunks()
        vals = pc.fill_null(pc.cast(ei, pa.int64()), 0).to_numpy(
            zero_copy_only=False).copy()
        valid = pc.is_valid(ei).to_numpy(zero_copy_only=False).copy()
        vals[closed_t] = start_i64[closed_s]
        valid[closed_t] = True
        tgt = tgt.set_column(
            tgt.schema.get_field_index("end_timestamp"), "end_timestamp",
            pa.array(vals, pa.timestamp("us"), mask=~valid),
        ).set_column(
            tgt.schema.get_field_index("is_current"), "is_current",
            pc.if_else(pa.array(close_mask), pa.scalar(False),
                       tgt["is_current"]),
        )
    result = pa.concat_tables([tgt, src.filter(pa.array(ins_mask))])

    bpr = (
        task["input_bytes"] / max(1, task["input_rows"])
        if task["input_rows"]
        else max(1.0, result.nbytes / max(1, len(result)) / 3)
    )
    entries = cut_and_write(
        table, result, task["partition"], params["target_file_bytes"], bpr
    )
    return {"entries": entries, "replaced": task["input_paths"], "rows": len(result)}


# ----------------------------------------------------------------- top level


def _choose_write_mode(table: Table, mode: str, tasks: list[RewriteTask],
                       key_stats: pd.DataFrame, staging_dir: str) -> dict:
    """Copy-on-write or merge-on-read, and the sizes that decided it.
    scd2 edits target rows in place, so it always rewrites. Merge-on-read
    also yields to copy-on-write while the live delete rows plus this
    source could pass half the scan cap: a stream of upserts must never
    make the table unscannable."""
    cow_bytes = sum(t.input_bytes for t in tasks)
    staged_bytes = sum(
        os.path.getsize(p)
        for p in glob.glob(os.path.join(staging_dir, "b=*", "*.parquet")))
    write_mode = "copy-on-write"
    if (mode in ("upsert", "delete")
            and cow_bytes > MOR_MIN_AMPLIFICATION * staged_bytes):
        live = sum(d["rows"] for d in table.delete_files_meta())
        if (live + int(key_stats["rows"].sum())
                <= deletes.MAX_SCAN_DELETE_KEYS // 2):
            write_mode = "merge-on-read"
    return {"write_mode": write_mode, "cow_bytes": cow_bytes,
            "staged_bytes": staged_bytes}


def merge_into(
    table: Table,
    source,
    mode: str = "upsert",
    order_col: str = "ts",
    job_id: str | None = None,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    max_task_bytes: int | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    scd2_start_ts=None,
    scd2_start_col: str | list[str] | None = None,
    tracked_cols: list[str] | None = None,
    cdc: bool = False,
):
    """MERGE source (ray Dataset | pa.Table) into table. Returns the committed
    Snapshot, or None (no-op / incomplete — resume by re-calling with the
    same job_id).

    mode="scd2" (MG2, ref _silver_handler.py:156-192): the table must carry
    the SCD2 columns (start_timestamp, end_timestamp, is_current); the source
    is a plain batch; the delivery stamp is either the batch constant
    `scd2_start_ts` (datetime | pd.Timestamp | epoch-us int) or per-row from
    `scd2_start_col` (the reference's updated_at-else-ingest_timestamp rule);
    `tracked_cols` defaults to all non-key, non-SCD2 columns.

    `cdc=True` (upsert/delete modes): each task also writes a change-data
    parquet (insert / update_preimage / update_postimage / delete rows) and
    the commit summary records them — `Table.changes` reads the feed back
    (Delta Change Data Feed parity). Tasks skipped by null-safe no-op
    detection contribute no change rows (nothing changed). scd2 mode keeps
    its own full history in-table and does not need a feed."""
    assert mode in ("upsert", "delete", "scd2")
    if table.partition_kind != "hash":
        raise ValueError(
            "MERGE requires a hash-bucketed partition spec (silver layout); "
            "time-partitioned tables are append-only bronze — route upserts "
            "through a hash-partitioned table or use delete_by_keys+append")
    scd2_start_us = None
    if mode == "scd2":
        missing = [c for c in SCD2_COLS if c not in table.schema.names]
        if missing:
            raise ValueError(f"scd2 merge needs columns {missing} in the table")
        if scd2_start_ts is None and scd2_start_col is None:
            raise ValueError("scd2 merge requires scd2_start_ts or "
                             "scd2_start_col")
        if tracked_cols is not None and not tracked_cols:
            raise ValueError(
                "scd2 merge with an EMPTY tracked_cols list can never close "
                "a version — pass None for the all-non-key default, or a "
                "non-empty list")
        if scd2_start_col is not None:
            _cols = ([scd2_start_col] if isinstance(scd2_start_col, str)
                     else list(scd2_start_col))
            bad = [c for c in _cols if c not in table.schema.names]
            if bad:
                raise ValueError(f"scd2_start_col {bad} not in schema")
        if scd2_start_ts is not None:
            scd2_start_us = (
                int(scd2_start_ts)
                if isinstance(scd2_start_ts, (int, np.integer))
                else pd.Timestamp(scd2_start_ts).value // 1000
            )
    job_id = job_id or f"merge-{uuid.uuid4().hex[:12]}"
    ledger = Ledger(table.root, job_id)
    staging_dir = os.path.join(ledger.dir, "staging")
    meta = ledger.read_meta()

    if meta is None or "tasks" not in meta:
        key_stats = _stage_source(table, source, staging_dir)
        if len(key_stats) == 0:
            ledger.clear()
            return None
        tasks = _plan_merge_tasks(
            table, key_stats, max_task_bytes or target_file_bytes * 4
        )
        meta = {
            "operation": f"merge:{mode}",
            "parent_seq": table.current_seq,
            "task_ids": [t.task_id for t in tasks],
            "tasks": [json.loads(json.dumps(t.__dict__)) for t in tasks],
            # persisted: a resumed job takes the path its ledger was
            # written on, whatever the sizes are by then
            "summary": _choose_write_mode(table, mode, tasks, key_stats,
                                          staging_dir),
        }
        ledger.write_meta(meta)
    else:
        tasks = [RewriteTask(**t) for t in meta["tasks"]]
    write_mode = meta.get("summary", {}).get("write_mode", "copy-on-write")

    return run_rewrite_job(
        table,
        "merge",
        tasks,
        _merge_task,
        job_id=job_id,
        params={
            "mode": mode,
            "order_col": order_col,
            "staging_dir": staging_dir,
            "target_file_bytes": target_file_bytes,
            "scd2_start_us": scd2_start_us,
            "scd2_start_col": scd2_start_col,
            "tracked_cols": tracked_cols,
            "cdc": cdc,
            "write_mode": write_mode,
        },
        concurrency=concurrency,
        max_tasks=max_tasks,
    )
