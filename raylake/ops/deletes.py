"""Physically apply merge-on-read deletes — equality (`Table.delete_by_keys`)
and position (`Table.delete_by_positions`) — the Iceberg
`rewrite_position_delete_files`/minor-compaction counterpart.

Plan (metadata + delete keys, driver-side, bounded by the scan cap): a data
file is AFFECTED iff at least one delete file applies to it by the sequence
rule AND that delete file's keys may lie inside the data file;
position-targeted files are always affected (positions name rows
directly). "May lie inside" is judged on the tightest bounds that can
judge it exactly:
- a delete file keyed on the two identifier fields (either column order)
  is bisected against the data file's exact composite bounds
  `[__key_lo, __key_hi]` (`Table.write_file`), so one deleted turn plans
  the file holding that turn, not every file of its conversation;
- otherwise (other key columns, a null or NaN key, a key type the stats do
  not hold exactly, a file without key bounds, an incomparable value) its
  first key column is tested against the file's min/max stats, and a null
  key or a file without stats cannot be excluded.
Both tests are joined by a hash-space test wherever it can judge: a file
whose `<col>_h32` bound (zorder's `conv_h32` for conv_id) spans the
`hash32` of none of the delete file's values of that string key column
cannot hold one of its keys. Z-ordered files span nearly every key in
the composite and min/max bounds, but only a narrow slice of hash space.
The test covers the table's partition column and identifier fields, the
string columns no rename or drop can re-point; a null key (hash bounds
skip null rows) or a file without hash bounds cannot be excluded by it.
Execute: rewrite tasks read their files through `read_task_inputs`
(`Table.live_reader`, which applies the deletes) and write the filtered
rows back; a task whose file contained no matching key skips its rewrite.
Commit: replaced files + ALL current delete files removed, in one atomic
snapshot — unplanned files provably contained no applicable key, so
dropping the delete files cannot resurrect or lose rows. Files appended
concurrently carry a later sequence and were never subject to the
deletes. The snapshot summary records the planned `input_files` and the
`excluded_files` the bounds ruled out.
"""

from __future__ import annotations

import bisect

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raylake.core.hashing import hash32_rows, is_string_type
from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    group_files,
    read_task_inputs,
    run_rewrite_job,
    skipped,
    task_result,
)


def _composite_keys(keys: pa.Table, key_cols: list[str],
                    table: Table) -> list[tuple] | None:
    """The delete file's key tuples, sorted, in the order and the value
    representation of the data files' `__key_lo`/`__key_hi` bounds
    (`md._stat_value`: timestamps as integers of their unit, dates as
    days); None when those bounds cannot judge them exactly: the keys are
    not the two identifier fields, a key is null or NaN, or a key column
    compares to the table's column in another kind of value than the stats
    hold (the scan would then match in a promoted type)."""
    idf = table.identifier_fields[:2]
    if len(idf) < 2 or sorted(key_cols) != sorted(idf):
        return None
    cols = []
    for c in idf:
        col, ft = keys[c], table.schema.field(c).type
        kt = col.type
        if not (kt == ft
                or (pa.types.is_integer(kt) and pa.types.is_integer(ft))
                or is_string_type(kt) and is_string_type(ft)):
            return None
        if col.null_count or (pa.types.is_floating(kt)
                              and pc.any(pc.is_nan(col)).as_py()):
            return None
        if pa.types.is_timestamp(kt):
            col = col.cast(pa.int64())
        elif pa.types.is_date(kt):
            try:
                col = col.cast(pa.int32())
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                return None
        cols.append(col.to_pylist())
    return sorted(set(zip(*cols)))


def _hash_keys(keys: pa.Table, key_cols: list[str],
               table: Table) -> list[tuple[str, np.ndarray]]:
    """(bound name, sorted distinct hash32 of the column's keys) for each
    key column the data files' hash bounds can judge: a string partition
    column or identifier field without null keys."""
    hashable = {table.partition_column, *table.identifier_fields}
    names = table.schema.names
    out = []
    for c in key_cols:
        if (c not in hashable or c not in names or keys[c].null_count
                or not is_string_type(keys[c].type)
                or not is_string_type(table.schema.field(c).type)):
            continue
        hs = np.unique(hash32_rows(keys[c]))
        out += [(f"{c}_h32", hs)] + ([("conv_h32", hs)]
                                     if c == "conv_id" else [])
    return out


def _valid_bound(b) -> bool:
    return (bool(b) and len(b) == 2
            and all(v is not None and v == v for v in b))  # v != v: NaN


def plan_apply_deletes(
    table: Table, max_task_bytes: int,
) -> tuple[list[RewriteTask], list[str], int]:
    """(tasks, delete file paths, excluded files): the rewrite tasks of the
    purge, the delete files it removes, and how many live files under an
    applicable delete file the key bounds ruled out."""
    dels = table.delete_state()
    loaded, posmap = dels.loaded, dels.posmap
    delete_paths = [d["path"] for d in table.delete_files_meta()]
    if not dels:
        return [], delete_paths, 0

    # per delete file: its exact key tuples for the composite bounds (None
    # when they cannot judge it), and its sorted first-key values for the
    # first-key min/max fallback — null keys can't be excluded by min/max
    # stats → (has_null, sorted)
    composite, first_keys, hashed = [], [], []
    for _, key_cols, keys in loaded:
        composite.append(_composite_keys(keys, key_cols, table))
        hashed.append(_hash_keys(keys, key_cols, table))
        vals = pc.unique(keys[key_cols[0]]).to_pylist()
        nonnull = [v for v in vals if v is not None]
        first_keys.append((len(nonnull) < len(vals), sorted(nonnull)))

    def may_hold(e, i) -> bool:
        for name, hs in hashed[i]:
            b = e.stats.get(name)
            if _valid_bound(b):
                j = np.searchsorted(hs, b[0])
                if j == len(hs) or hs[j] > b[1]:
                    return False
        tuples = composite[i]
        lo, hi = e.stats.get("__key_lo"), e.stats.get("__key_hi")
        if tuples is not None and _valid_bound(lo) and _valid_bound(hi):
            try:
                j = bisect.bisect_left(tuples, tuple(lo))
                return j < len(tuples) and tuples[j] <= tuple(hi)
            except TypeError:
                pass
        s = e.stats.get(loaded[i][1][0])
        has_null, ks = first_keys[i]
        if has_null or not s or s[0] is None:
            return True  # null keys / no stats → cannot exclude
        try:
            j = bisect.bisect_left(ks, s[0])
            return j < len(ks) and ks[j] <= s[1]
        except TypeError:
            return True

    affected = []
    excluded = 0
    for e in table.live_entries():
        if e.path in posmap:  # position-targeted files always rewrite
            affected.append(e)
            continue
        app = dels.applicable(e.seq_added)
        if not app:
            continue
        if any(may_hold(e, i) for i in app):
            affected.append(e)
        else:
            excluded += 1
    return group_files(affected, "d", max_task_bytes), delete_paths, excluded


def _apply_deletes_task(table: Table, task: dict, params: dict) -> dict:
    data = read_task_inputs(table, task)  # deletes applied here
    if len(data) == task["input_rows"]:
        # stats couldn't exclude, but no row actually matched — keep files
        return skipped()
    return task_result(table, task, params, data)


def apply_deletes(
    table: Table,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    max_task_bytes: int | None = None,
):
    """Purge merge-on-read delete files by rewriting the affected data files.
    Returns the committed Snapshot, or None when there were no delete files
    (or the job is incomplete — resume with the same job_id)."""

    def plan():
        tasks, delete_paths, excluded = plan_apply_deletes(
            table, max_task_bytes or target_file_bytes * 4)
        return tasks, {
            "removed_delete_paths": delete_paths,
            "summary": {"input_files": sum(len(t.input_paths) for t in tasks),
                        "excluded_files": excluded}}

    return run_rewrite_job(
        table,
        "apply-deletes",
        plan,
        _apply_deletes_task,
        job_id=job_id,
        params={"target_file_bytes": target_file_bytes},
        concurrency=concurrency,
        max_tasks=max_tasks,
    )
