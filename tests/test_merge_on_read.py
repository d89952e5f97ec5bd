"""Merge-on-read MERGE (ops.merge): when copy-on-write would rewrite many
times the source, an upsert or delete writes an equality-delete file and
the source rows instead. The same merges through both paths must give the
same table, the same history and the same change feed, before and after
the purge; a crashed merge-on-read job resumes on the path it planned; a
commit that landed after its plan makes it re-plan; near the delete-key
cap it yields to copy-on-write. Each path is forced by patching the
threshold, `MOR_MIN_AMPLIFICATION`."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import raylake.core.deletes as core_deletes
import raylake.ops.merge as merge_mod
from raylake.core.hashing import partition_of
from raylake.core.schema import TRANSCRIPT_SCHEMA
from raylake.core.table import CommitConflictError, Table
from raylake.fixtures.transcripts import BASE_TS_US, write_transcript_table
from raylake.ops import append, apply_deletes, compact, merge_into
from raylake.ops.maintain import run_with_retry
from raylake.ops.rewrite import read_task_inputs
from raylake.state.ledger import Ledger

COW, MOR = math.inf, 0

SINGLE_KEY_SCHEMA = pa.schema([("id", pa.string()), ("v", pa.int64()),
                               ("ts", pa.timestamp("us"))])


def _rows(single: bool, rows) -> pa.Table:
    """(key0, key1, ts offset, payload) tuples as a table of the schema."""
    ts = pa.array([BASE_TS_US + r[2] * 1_000_000 for r in rows],
                  pa.int64()).cast(pa.timestamp("us"))
    if single:
        return pa.table({"id": pa.array([r[0] for r in rows], pa.string()),
                         "v": pa.array([r[1] for r in rows], pa.int64()),
                         "ts": ts}, schema=SINGLE_KEY_SCHEMA)
    n = len(rows)
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": ts,
    }, schema=TRANSCRIPT_SCHEMA)


def _create(root: str, single: bool, base: pa.Table) -> Table:
    """Two buckets, each written as two files with overlapping keys."""
    if single:
        t = Table.create(root, SINGLE_KEY_SCHEMA, partition_column="id",
                         num_buckets=2, sort_order=("id",))
    else:
        t = Table.create(root, TRANSCRIPT_SCHEMA, num_buckets=2)
    part = partition_of(base[t.partition_column], 2)
    entries = []
    for b in (0, 1):
        rows = base.filter(pa.array(part == b))
        half = len(rows) // 2
        for piece in (rows.slice(0, half), rows.slice(half)):
            if len(piece):
                entries.append(t.write_file(piece, b))
    t.commit("append", entries)
    return t


def _merge(t: Table, K: float, monkeypatch, src: pa.Table, mode: str):
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", K)
    snap = merge_into(t, src, mode=mode, cdc=True)
    t.refresh()
    return snap


def _sorted_feed(feed: pa.Table) -> pa.Table:
    return feed.sort_by([(c, "ascending") for c in feed.column_names])


_row = st.tuples(st.sampled_from([f"c{i}" for i in range(5)]),
                 st.integers(0, 7), st.integers(0, 1000),
                 st.text(alphabet="abxyz", min_size=1, max_size=6))
_step = st.tuples(st.sampled_from(["upsert", "delete", "noop"]),
                  st.lists(_row, min_size=1, max_size=12))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large])
@given(single=st.booleans(),
       base_rows=st.lists(_row, min_size=4, max_size=30,
                          unique_by=lambda r: (r[0], r[1])),
       steps=st.lists(_step, min_size=1, max_size=3))
def test_cow_and_mor_agree(tmp_path_factory, ray_session, monkeypatch,
                           single, base_rows, steps):
    """Differential: duplicate source keys, pure inserts, delete-mode
    merges and all-identical re-deliveries through both paths."""
    if single:  # one row per id
        base_rows = list({r[0]: r for r in base_rows}.values())
    base = _rows(single, base_rows)
    root = tmp_path_factory.mktemp("mor")
    tabs = {K: _create(str(root / name), single, base)
            for K, name in ((COW, "cow"), (MOR, "mor"))}
    start = tabs[COW].current_seq
    for kind, rows in steps:
        if kind == "noop":  # the live rows, re-delivered unchanged
            src = tabs[COW].scan_arrow(sort=True).slice(0, len(rows))
        else:
            src = _rows(single, rows)
        if len(src) == 0:
            continue
        mode = "delete" if kind == "delete" else "upsert"
        snaps = {K: _merge(t, K, monkeypatch, src, mode)
                 for K, t in tabs.items()}
        assert (snaps[COW] is None) == (snaps[MOR] is None)
        if kind == "noop":
            assert snaps[COW] is None
        if snaps[COW] is not None:
            assert snaps[COW].seq == snaps[MOR].seq
            assert snaps[COW].summary["write_mode"] == "copy-on-write"
            mor = snaps[MOR].summary
            if mor["cow_bytes"]:
                assert mor["write_mode"] == "merge-on-read"
                assert mor["removed_files"] == 0
        assert tabs[COW].scan_arrow(sort=True).equals(
            tabs[MOR].scan_arrow(sort=True))

    cow, mor = tabs[COW], tabs[MOR]
    shared = ({e["seq"] for e in cow.meta["snapshot_log"]}
              & {e["seq"] for e in mor.meta["snapshot_log"]})
    for seq in sorted(shared):
        assert cow.scan_arrow(snapshot=seq, sort=True).equals(
            mor.scan_arrow(snapshot=seq, sort=True)), seq
    assert _sorted_feed(cow.changes(start)).equals(
        _sorted_feed(mor.changes(start)))

    for t in tabs.values():
        apply_deletes(t)
        t.refresh()
    assert mor.delete_files_meta() == []
    assert cow.scan_arrow(sort=True).equals(mor.scan_arrow(sort=True))


@pytest.fixture()
def fixture_table(tmp_path, ray_session):
    return write_transcript_table(str(tmp_path / "t"), n_turns=1500,
                                  rows_per_file=128, num_buckets=4)


def _source(t: Table, n_upd: int = 30, n_ins: int = 10) -> pa.Table:
    """Updates of every 37th live row plus brand-new turns."""
    cur = t.scan_arrow(sort=True)
    upd = cur.take(pa.array(np.arange(0, 37 * n_upd, 37) % len(cur)))
    upd = upd.set_column(
        upd.schema.get_field_index("text"), "text",
        pa.array(["upd-" + s for s in upd["text"].to_pylist()], pa.string()))
    ins = cur.slice(0, n_ins)
    ins = ins.set_column(
        ins.schema.get_field_index("turn_idx"), "turn_idx",
        pc.cast(pc.add(ins["turn_idx"], 900000), pa.int32()))
    return pa.concat_tables([upd, ins])


def _lww(model: pa.Table, src: pa.Table) -> pa.Table:
    """Source beats target per key (sources here have unique keys)."""
    from raylake.core.deletes import KeySet

    keys = ["conv_id", "turn_idx"]
    kept = model.filter(pa.array(~KeySet(src.select(keys)).contains(model)))
    return pa.concat_tables([kept, src]).sort_by(
        [(k, "ascending") for k in keys])


def test_crash_resume_keeps_planned_path(fixture_table, monkeypatch):
    t = fixture_table
    src = _source(t)
    want = _lww(t.scan_arrow(sort=True), src)
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", MOR)
    assert merge_into(t, src, job_id="mor-crash", max_tasks=1) is None
    ledger = Ledger(t.root, "mor-crash")
    assert len(ledger.completed()) == 1 < len(ledger.read_meta()["task_ids"])
    # the sizes now say copy-on-write; the persisted plan says otherwise
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", COW)
    snap = merge_into(t, src, job_id="mor-crash")
    t.refresh()
    assert snap.summary["write_mode"] == "merge-on-read"
    assert snap.summary["removed_files"] == 0
    assert snap.summary["delete_rows"] > 0 and t.delete_files_meta()
    assert t.scan_arrow(sort=True).equals(want)
    apply_deletes(t)
    t.refresh()
    assert t.scan_arrow(sort=True).equals(want)


def _compact(t: Table):
    assert compact(t) is not None


def _append_to_read_bucket(t: Table):
    new = t.scan_arrow(sort=True).slice(0, 50)
    new = new.set_column(new.schema.get_field_index("turn_idx"), "turn_idx",
                         pc.cast(pc.add(new["turn_idx"], 500000), pa.int32()))
    append(t, new)


def _delete_keys(t: Table):
    t.delete_by_keys(t.scan_arrow(sort=True).select(
        ["conv_id", "turn_idx"]).slice(0, 3))


@pytest.mark.parametrize("between", [_compact, _append_to_read_bucket,
                                     _delete_keys])
def test_commit_after_plan_replans(fixture_table, monkeypatch, between):
    """A merge-on-read commit planned before another commit conflicts
    where its delete could miss or over-reach rows; a retry re-plans, and
    no update is lost. Its CDC pre-images are the rows live at commit."""
    t = fixture_table
    src = _source(t)
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", MOR)
    assert merge_into(t, src, job_id="mor-race", max_tasks=0) is None
    between(t)
    t.refresh()
    live = t.scan_arrow(sort=True)
    with pytest.raises(CommitConflictError):
        merge_into(t, src, job_id="mor-race", cdc=True)
    t.refresh()
    Ledger(t.root, "mor-race").clear()
    snap = run_with_retry(merge_into, t, source=src, cdc=True)
    t.refresh()
    assert snap.summary["write_mode"] == "merge-on-read"
    assert t.scan_arrow(sort=True).equals(_lww(live, src))
    feed = t.changes(snap.seq - 1)
    pre = feed.filter(pc.equal(feed["_change_type"], "update_preimage"))
    from raylake.core.deletes import KeySet

    keys = ["conv_id", "turn_idx"]
    hit = live.filter(pa.array(KeySet(src.select(keys)).contains(live)))
    assert _sorted_feed(pre.select(live.column_names)).equals(
        _sorted_feed(hit))


def test_disjoint_commit_rebases(fixture_table, monkeypatch):
    """A commit to a bucket the merge never read lets it rebase."""
    t = fixture_table
    src = _source(t, n_upd=1, n_ins=0)
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", MOR)
    assert merge_into(t, src, job_id="mor-rebase", max_tasks=0) is None
    meta = Ledger(t.root, "mor-rebase").read_meta()
    read = {task["partition"] for task in meta["tasks"]}
    other = t.scan_arrow(sort=True)
    other = other.filter(pa.array(
        ~np.isin(partition_of(other["conv_id"], 4), list(read))))
    other = other.slice(0, 5).set_column(
        other.schema.get_field_index("turn_idx"), "turn_idx",
        pc.cast(pc.add(other.slice(0, 5)["turn_idx"], 500000), pa.int32()))
    append(t, other)
    t.refresh()
    live = t.scan_arrow(sort=True)
    snap = merge_into(t, src, job_id="mor-rebase")
    t.refresh()
    assert snap.parent == snap.seq - 1 and snap.parent != meta["parent_seq"]
    assert t.scan_arrow(sort=True).equals(_lww(live, src))


def test_delete_key_cap_forces_cow(fixture_table, monkeypatch):
    t = fixture_table
    t.delete_by_keys(t.scan_arrow(sort=True).select(
        ["conv_id", "turn_idx"]).slice(0, 10))
    t.refresh()
    src = _source(t, n_upd=20, n_ins=0)  # 10 live + 20 source delete rows
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", MOR)
    monkeypatch.setattr(core_deletes, "MAX_SCAN_DELETE_KEYS", 58)
    snap = merge_into(t, src)
    assert snap.summary["write_mode"] == "copy-on-write"
    t.refresh()
    monkeypatch.setattr(core_deletes, "MAX_SCAN_DELETE_KEYS", 60)
    snap = merge_into(t, _source(t, n_upd=20, n_ins=0))
    assert snap.summary["write_mode"] == "merge-on-read"


def test_projected_read_applies_all_deletes(fixture_table):
    """`read_task_inputs(columns=...)` reads the delete key columns it
    needs, filters, then projects; differently typed delete key tables
    under one file are each applied (one probe per key schema), and so
    are position deletes."""
    t = fixture_table
    cur = t.scan_arrow(sort=True)
    first = t.live_entries()[0].path
    t.delete_by_positions(pa.table({"file_path": [first, first],
                                    "pos": pa.array([0, 5], pa.int64())}))
    t.delete_by_keys(cur.select(["conv_id", "turn_idx"]).slice(0, 4))
    wide = cur.select(["conv_id", "turn_idx"]).slice(4, 3)
    t.delete_by_keys(wide.set_column(1, "turn_idx",
                                     pc.cast(wide["turn_idx"], pa.int64())))
    t.delete_by_keys(cur.select(["conv_id"]).slice(len(cur) - 1, 1))
    t.refresh()
    task = {"input_paths": [e.path for e in t.live_entries()]}
    got = read_task_inputs(t, task, columns=["text"])
    assert got.column_names == ["text"]
    want = t.scan_arrow(columns=["text"])
    assert sorted(got["text"].to_pylist()) == sorted(want["text"].to_pylist())
    assert len(got) < len(cur) - 7
