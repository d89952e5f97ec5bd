"""Merge-on-read equality deletes (Iceberg v2 parity): O(keys) delete
commits, sequence-rule application on scans and rewrites, re-insert
survival, physical purge via apply_deletes, GC protection."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from raylake.core.table import Table
from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import (
    apply_deletes,
    compact,
    expire_snapshots,
    merge_into,
)
from raylake.ops.append import append


@pytest.fixture()
def tbl(tmp_table_root):
    return write_transcript_table(
        tmp_table_root, n_turns=3000, rows_per_file=128, num_buckets=4
    )


def _golden(t: Table) -> pa.Table:
    return t.scan_arrow(sort=True)


def _keys_of(t: pa.Table, n: int) -> pa.Table:
    return t.select(["conv_id", "turn_idx"]).slice(0, n)


def _anti(pre: pa.Table, keys: pa.Table) -> pa.Table:
    import pandas as pd
    import numpy as np

    bidx = pd.MultiIndex.from_arrays(
        [pre["conv_id"].to_pandas(), pre["turn_idx"].to_pandas()])
    kidx = pd.MultiIndex.from_arrays(
        [keys["conv_id"].to_pandas(), keys["turn_idx"].to_pandas()])
    return pre.filter(pa.array(~np.asarray(bidx.isin(kidx))))


def test_mor_delete_is_metadata_only_and_scans_apply(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    files_before = {e.path for e in t.live_entries()}
    keys = _keys_of(pre, 100)
    snap = t.delete_by_keys(keys)
    assert snap.operation == "delete-mor"
    # NO data file was rewritten — the whole point at 100 TB
    assert {e.path for e in t.live_entries()} == files_before
    want = _anti(pre, keys)
    assert _golden(t).equals(want)
    # distributed scan agrees (union + broadcast filter path)
    got_ds = (t.scan().to_pandas()
              .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert got_ds.equals(want.to_pandas().reset_index(drop=True))
    # column-pruned scan with keys outside the projection still applies
    texts = t.scan_arrow(columns=["text"])
    assert len(texts) == len(want)


def test_mor_reinsert_after_delete_survives(tbl, ray_session):
    """Sequence rule: rows appended AFTER the delete commit keep the key."""
    t = tbl
    pre = _golden(t)
    keys = _keys_of(pre, 50)
    t.delete_by_keys(keys)
    reinsert = pre.slice(0, 50)  # same keys, appended at a LATER seq
    append(t, reinsert)
    t.refresh()
    got = _golden(t)
    want = pa.concat_tables([_anti(pre, keys), reinsert]).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.equals(want)


def test_mor_compaction_applies_deletes_without_resurrection(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    keys = _keys_of(pre, 120)
    t.delete_by_keys(keys)
    want = _golden(t)
    compact(t, target_file_bytes=512 * 1024)
    # rewritten files carry a NEW seq — the delete no longer applies to
    # them, so rows must have been dropped physically, not resurrected
    assert _golden(t).equals(want)
    assert t.scan_arrow(apply_deletes=False, sort=True).num_rows < len(pre) \
        or len(t.delete_files_meta()) > 0


def test_mor_apply_deletes_purges(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    keys = _keys_of(pre, 80)
    t.delete_by_keys(keys)
    want = _golden(t)
    snap = apply_deletes(t, target_file_bytes=512 * 1024)
    assert snap is not None and snap.operation == "apply-deletes"
    t.refresh()
    assert t.delete_files_meta() == []
    assert _golden(t).equals(want)
    # now the raw scan equals the filtered one (physically purged)
    assert t.scan_arrow(apply_deletes=False, sort=True).equals(want)
    # metadata row_count is exact again
    assert t.row_count() == len(want)


def test_mor_merge_over_deletes(tbl, ray_session):
    """A MERGE running while delete files exist must not resurrect deleted
    rows in the files it rewrites."""
    t = tbl
    pre = _golden(t)
    keys = _keys_of(pre, 60)
    t.delete_by_keys(keys)
    base = _golden(t)
    # update 40 OTHER rows via merge (later ts wins)
    upd = base.slice(100, 40)
    upd = upd.set_column(
        upd.column_names.index("text"), "text",
        pa.array(["EDIT-" + s for s in upd["text"].to_pylist()]))
    upd = upd.set_column(
        upd.column_names.index("ts"), "ts",
        pc.cast(pc.add(pc.cast(upd["ts"], pa.int64()), 10**9),
                pa.timestamp("us")))
    merge_into(t, upd)
    t.refresh()
    got = _golden(t).to_pandas().set_index(["conv_id", "turn_idx"])
    # deleted keys stay gone
    for c, ti in zip(keys["conv_id"].to_pylist()[:10],
                     keys["turn_idx"].to_pylist()[:10]):
        assert (c, ti) not in got.index
    # updates landed
    u0 = (upd["conv_id"][0].as_py(), upd["turn_idx"][0].as_py())
    assert got.loc[u0, "text"].startswith("EDIT-")


def test_mor_delete_files_survive_gc(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    t.delete_by_keys(_keys_of(pre, 30))
    want = _golden(t)
    compact(t, target_file_bytes=512 * 1024)
    report = expire_snapshots(t, keep_last=1, grace_period_s=0.0)
    dpath = t.delete_files_meta()[0]["path"] if t.delete_files_meta() else None
    if dpath is not None:
        assert dpath not in report["deleted_files"]
        assert os.path.exists(os.path.join(t.root, dpath))
    assert _golden(t).equals(want)


def test_mor_time_travel_before_delete(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    seq0 = t.current_seq
    t.delete_by_keys(_keys_of(pre, 40))
    assert t.scan_arrow(snapshot=seq0, sort=True).equals(pre)


def test_mor_delete_landing_mid_rewrite_conflicts(tbl, ray_session):
    """Iceberg validateNoNewDeleteFiles: a rewrite planned BEFORE a delete
    commit must not land — its output files' new sequence would exempt them
    from the delete, resurrecting rows. The loser retries and re-reads with
    the delete applied."""
    from raylake.core.table import CommitConflictError
    from raylake.ops import plan_compaction
    from raylake.ops.compact import _compact_task
    from raylake.ops.rewrite import run_rewrite_job

    t = tbl
    pre = _golden(t)
    tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    assert tasks
    # pause the job after one task, then a MOR delete lands
    assert run_rewrite_job(
        t, "compact", tasks, _compact_task, job_id="mid-del",
        params={"target_file_bytes": 512 * 1024}, max_tasks=1, concurrency=1,
    ) is None
    t.refresh()
    t.delete_by_keys(_keys_of(pre, 25))
    t.refresh()
    with pytest.raises(CommitConflictError, match="delete files committed"):
        run_rewrite_job(
            t, "compact", tasks, _compact_task, job_id="mid-del",
            params={"target_file_bytes": 512 * 1024}, concurrency=2,
        )
    # clean retry with a FRESH plan sees the delete and lands correctly
    from raylake.state.ledger import Ledger

    Ledger(t.root, "mid-del").clear()
    want = _golden(t)
    from raylake.ops import compact

    snap = compact(t, target_file_bytes=512 * 1024)
    assert snap is not None
    assert _golden(t).equals(want)


def test_mor_delete_key_validation_and_schema_guards(tbl, ray_session):
    t = tbl
    pre = _golden(t)
    with pytest.raises(ValueError, match="not in schema"):
        t.delete_by_keys(pa.table({"conv_idx": [1]}))  # typo'd column
    with pytest.raises(ValueError, match="empty delete key set"):
        t.delete_by_keys(pre.select(["conv_id", "turn_idx"]).slice(0, 0))
    # an equality delete keyed on `text` blocks rename/drop of that column
    t.delete_by_keys(pre.select(["text"]).slice(0, 3))
    t.refresh()
    with pytest.raises(ValueError, match="delete file in a retained"):
        t.rename_column("text", "body")
    with pytest.raises(ValueError, match="delete file in a retained"):
        t.drop_column("text")
    # purging alone is NOT enough: retained snapshots still carry the
    # delete file for time travel — expiring them lifts the guard
    apply_deletes(t, target_file_bytes=512 * 1024)
    t.refresh()
    with pytest.raises(ValueError, match="retained snapshot"):
        t.rename_column("text", "body")
    expire_snapshots(t, keep_last=1, grace_period_s=0.0)
    t.refresh()
    t.rename_column("text", "body")
    t.refresh()
    assert "body" in t.schema.names


def _scan_ds_keys(t: Table) -> list:
    """(conv_id, turn_idx) of the distributed scan as Python values (pandas
    would turn a nullable int64 column into float64)."""
    return sorted(((r["conv_id"], r["turn_idx"]) for r in t.scan().take_all()),
                  key=repr)


def test_mor_int64_keys_beyond_2_53_stay_exact(tmp_table_root, ray_session):
    """Keys are compared as int64, never through float64: with nulls on both
    sides, deleting 2**53 must not also delete 2**53 + 1 (they are the same
    float). Null matches null."""
    big = 2**53
    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64()),
                        ("text", pa.string())])
    t = Table.create(tmp_table_root, schema, partition_column="conv_id",
                     num_buckets=2)
    append(t, pa.table({"conv_id": ["c", "c", "c"],
                        "turn_idx": pa.array([big, big + 1, None], pa.int64()),
                        "text": ["a", "b", "n"]}, schema=schema))
    t.refresh()
    t.delete_by_keys(pa.table({"conv_id": ["c", "c"],
                               "turn_idx": pa.array([big, None], pa.int64())}))
    t.refresh()
    assert t.scan_arrow()["turn_idx"].to_pylist() == [big + 1]
    assert _scan_ds_keys(t) == [("c", big + 1)]
    want = t.scan_arrow(sort=True)
    assert apply_deletes(t) is not None
    t.refresh()
    assert t.delete_files_meta() == []
    assert t.scan_arrow(sort=True).equals(want)
    assert t.scan_arrow(apply_deletes=False)["text"].to_pylist() == ["b"]


def test_mor_mixed_key_widths_delete_by_value(tbl, ray_session):
    """Python-int key tables are int64; turn_idx is int32. The delete must
    match by value, and a key outside the int32 range (2**40) must match
    nothing — in scans, compaction and the purge — without raising."""
    t = tbl
    pre = _golden(t)
    assert pre.schema.field("turn_idx").type == pa.int32()
    c0, t0 = pre["conv_id"][0].as_py(), pre["turn_idx"][0].as_py()
    c1 = pre["conv_id"][1].as_py()
    keys = pa.table({"conv_id": [c0, c1], "turn_idx": [t0, 2**40]})
    assert keys.schema.field("turn_idx").type == pa.int64()
    t.delete_by_keys(keys)
    t.refresh()
    want = pre.slice(1)
    assert _golden(t).equals(want)
    assert _scan_ds_keys(t) == sorted(
        zip(want["conv_id"].to_pylist(), want["turn_idx"].to_pylist()),
        key=repr)
    compact(t, target_file_bytes=512 * 1024)
    t.refresh()
    assert _golden(t).equals(want)
    t.delete_by_keys(pa.table({"conv_id": [c1], "turn_idx": [2**40]}))
    t.refresh()
    assert apply_deletes(t, target_file_bytes=512 * 1024) is not None
    t.refresh()
    assert t.delete_files_meta() == []
    assert _golden(t).equals(want)
