"""Key bounds that lookups and purges prune on.

- Every order-preserving rewrite records per-file hash-space bounds
  (`<col>_h32`, `ops.rewrite.cut_and_write`), so a point lookup after a
  copy-on-write MERGE of z-ordered files prunes as it does after zorder.
- `plan_apply_deletes` tests a delete file keyed on the two identifier
  fields against each data file's exact composite bounds
  (`__key_lo`/`__key_hi`), and falls back to the first-key min/max test
  wherever those bounds cannot judge a key exactly. Every purge must leave
  the scan bit-for-bit equal to the table minus the deleted keys.
"""

import math
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import raylake.ops.merge as merge_mod
from raylake.core.deletes import KeySet
from raylake.core.hashing import partition_of, stable_hash64
from raylake.core.io import read_file
from raylake.core.schema import TRANSCRIPT_SCHEMA
from raylake.core.table import Table
from raylake.fixtures.transcripts import BASE_TS_US
from raylake.ops import apply_deletes, merge_into, zorder
from raylake.ops.deletes import plan_apply_deletes
from raylake.ops.rewrite import cut_and_write
from raylake.state.ledger import Ledger

KEYS = ["conv_id", "turn_idx"]


def _rows(conv_ids, turns, turn_type=pa.int32(), turn_base=0, turn_step=1,
          seed=0) -> pa.Table:
    """`turns` turns per conversation, sorted by (conv_id, turn_idx), with
    random timestamps and texts."""
    rng = np.random.default_rng(seed)
    conv = sorted(conv_ids)
    n = len(conv) * turns
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    schema = TRANSCRIPT_SCHEMA.set(
        1, pa.field("turn_idx", turn_type))
    return pa.table({
        "conv_id": pa.array([c for c in conv for _ in range(turns)]),
        "turn_idx": pa.array([turn_base + i * turn_step
                              for _ in conv for i in range(turns)],
                             turn_type),
        "role": pa.array(["user"] * n),
        "text": pa.array(["".join(rng.choice(letters, int(k)))
                          for k in rng.integers(80, 240, n)]),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array(BASE_TS_US + rng.integers(0, 86_400 * 10**6 * 365, n),
                       pa.int64()).cast(pa.timestamp("us")),
    }, schema=schema)


def _table(root: str, data: pa.Table, rows_per_file: int = 8,
           legacy: bool = False) -> Table:
    """Two hash buckets, each cut into `rows_per_file`-row files in
    (conv_id, turn_idx) order. `legacy` drops the composite key bounds,
    as files written before they existed lack them."""
    t = Table.create(root, data.schema, num_buckets=2)
    part = partition_of(data["conv_id"], 2)
    entries = []
    for b in (0, 1):
        rows = data.filter(pa.array(part == b))
        for off in range(0, len(rows), rows_per_file):
            e = t.write_file(rows.slice(off, rows_per_file), b)
            if legacy:
                e.stats.pop("__key_lo")
                e.stats.pop("__key_hi")
            entries.append(e)
    t.commit("append", entries)
    return t.refresh()


def _holding(t: Table, conv: str, turn: int) -> list[str]:
    """Paths of the live files that hold row (conv, turn)."""
    out = []
    for e in t.live_entries():
        f = read_file(os.path.join(t.root, e.path), columns=KEYS)
        m = pc.and_(pc.equal(f["conv_id"], conv),
                    pc.equal(f["turn_idx"], turn))
        if pc.any(m).as_py():
            out.append(e.path)
    return out


def _planned(t: Table) -> tuple[set[str], int]:
    tasks, _, excluded = plan_apply_deletes(t, 1 << 30)
    return {p for task in tasks for p in task.input_paths}, excluded


def _purge_matches_model(t: Table, pre: pa.Table, keys: pa.Table):
    """Delete `keys`, purge, and check the scan before and after the purge
    against the model: the table minus every row the keys match."""
    want = pre.filter(pa.array(~KeySet(keys).contains(pre)))
    assert t.scan_arrow(sort=True).equals(want)
    snap = apply_deletes(t)
    t.refresh()
    assert t.delete_files_meta() == []
    assert t.scan_arrow(sort=True).equals(want)
    return snap


def _keys(conv, turn, turn_type=pa.int32()) -> pa.Table:
    return pa.table({"conv_id": pa.array(conv, pa.string()),
                     "turn_idx": pa.array(turn, turn_type)})


def _zordered(tmp_path, name: str = "t") -> tuple[Table, list[str]]:
    """120 conversations of 20 turns whose ids have no lexicographic
    locality, in two buckets, z-ordered into ≈12 KB files: only the
    hash-space bounds prune a lookup."""
    rng = np.random.default_rng(5)
    convs = [f"{x:016x}" for x in rng.integers(0, 2**62, 120)]
    t = _table(str(tmp_path / name), _rows(convs, 20, seed=1),
               rows_per_file=128)
    zorder(t, target_file_bytes=12 * 1024)
    return t.refresh(), convs


# ---------------------------------------------------------- lookups (h32)


def test_lookup_prunes_after_zorder_then_merge(tmp_path, ray_session,
                                               monkeypatch):
    """Conversation ids with no lexicographic locality: after zorder, only
    the hash-space bounds prune a lookup. A copy-on-write merge that
    rewrites every file must keep them."""
    t, convs = _zordered(tmp_path)
    zordered = {e.path for e in t.live_entries()}
    pre = t.scan_arrow(sort=True)
    # one changed turn per conversation touches every z-ordered file
    src = pre.filter(pc.equal(pre["turn_idx"], 3))
    src = src.set_column(3, "text",
                         pc.binary_join_element_wise("new-", src["text"], ""))
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", math.inf)
    snap = merge_into(t, src, target_file_bytes=12 * 1024)
    t.refresh()
    assert snap.summary["write_mode"] == "copy-on-write"
    ents = t.live_entries()
    assert not zordered & {e.path for e in ents}  # all rewritten
    full = t.scan_arrow(sort=True)
    for c in convs:
        p = int(partition_of([c], 2)[0])
        bucket = [e for e in ents if e.partition == p]
        assert len(bucket) >= 4
        hit = t.prune_point(c)
        assert len(hit) < len(bucket), c
        got = t.scan_arrow(entries=hit)
        got = got.filter(pc.equal(got["conv_id"], c)).sort_by(
            [(k, "ascending") for k in KEYS])
        assert got.equals(full.filter(pc.equal(full["conv_id"], c)))
    assert all("conv_h32" in e.stats or "conv_id_h32" in e.stats
               for e in ents)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    keys=st.lists(st.one_of(st.none(), st.text("abcé", max_size=3)),
                  min_size=1, max_size=40),
    cut=st.integers(0, 40),
    rows_per_file=st.integers(1, 9),
)
def test_cut_and_write_hash_bounds_property(keys, cut, rows_per_file):
    """Each output file's `<col>_h32` is the true min/max of
    `stable_hash64 >> 32` over its non-null keys — also when the input
    arrives in chunks, each with its own dictionary — and a file of null
    keys only carries none."""
    with tempfile.TemporaryDirectory() as root:
        schema = pa.schema([("conv_id", pa.string()), ("v", pa.int64())])
        t = Table.create(root, schema, num_buckets=1, sort_order=("v",))
        data = pa.table({"conv_id": pa.array(keys, pa.string()),
                         "v": pa.array(range(len(keys)), pa.int64())})
        cut = min(cut, len(keys))
        data = pa.concat_tables([data.slice(0, cut), data.slice(cut)])
        entries = cut_and_write(t, data, 0, rows_per_file, 1.0)
        assert sum(e.rows for e in entries) == len(keys)
        for e in entries:
            f = read_file(os.path.join(root, e.path))
            vals = [k for k in f["conv_id"].to_pylist() if k is not None]
            if not vals:
                assert "conv_id_h32" not in e.stats
                continue
            h = stable_hash64(vals) >> np.uint64(32)
            assert e.stats["conv_id_h32"] == [int(h.min()), int(h.max())]


# ------------------------------------------------ purge plans (composite)


def _conv_table(tmp_path, **kw) -> Table:
    """Six conversations of 40 turns: each spans five 8-row files."""
    data = _rows([f"c{i}" for i in range(6)], 40, **kw)
    return _table(str(tmp_path / "t"), data, rows_per_file=8)


def test_purge_plans_only_the_file_holding_the_turn(tmp_path, ray_session):
    t = _conv_table(tmp_path)
    conv_files = {e.path for e in t.live_entries()
                  if e.stats["conv_id"][0] <= "c2" <= e.stats["conv_id"][1]}
    assert len(conv_files) >= 3
    pre = t.scan_arrow(sort=True)
    keys = _keys(["c2"], [17])
    t.delete_by_keys(keys)
    t.refresh()
    planned, excluded = _planned(t)
    assert planned == set(_holding(t, "c2", 17))
    assert len(planned) == 1
    assert excluded == len(t.live_entries()) - 1
    snap = _purge_matches_model(t, pre, keys)
    # the plan is in the table's own history
    assert snap.summary["input_files"] == 1
    assert snap.summary["excluded_files"] == excluded
    last = t.snapshots()[-1]
    assert last.summary["excluded_files"] == excluded


def test_purge_keys_on_the_exact_bounds(tmp_path, ray_session):
    """A key equal to a file's `__key_lo` or `__key_hi` plans that file."""
    t = _conv_table(tmp_path)
    f = sorted(t.live_entries(), key=lambda e: e.stats["__key_lo"])[3]
    lo, hi = f.stats["__key_lo"], f.stats["__key_hi"]
    assert lo != hi
    pre = t.scan_arrow(sort=True)
    keys = _keys([lo[0], hi[0]], [lo[1], hi[1]])
    t.delete_by_keys(keys)
    t.refresh()
    planned, _ = _planned(t)
    assert planned == {f.path}
    _purge_matches_model(t, pre, keys)


def test_purge_reversed_key_columns(tmp_path, ray_session):
    """A delete file keyed (turn_idx, conv_id) plans like (conv_id,
    turn_idx)."""
    t = _conv_table(tmp_path)
    pre = t.scan_arrow(sort=True)
    keys = pa.table({"turn_idx": pa.array([33], pa.int32()),
                     "conv_id": pa.array(["c4"])})
    t.delete_by_keys(keys)
    t.refresh()
    planned, _ = _planned(t)
    assert planned == set(_holding(t, "c4", 33)) and len(planned) == 1
    _purge_matches_model(t, pre, keys)


def test_purge_first_key_only_delete_file(tmp_path, ray_session):
    """A delete file keyed on conv_id alone falls back to the first-key
    min/max test: every file whose conv_id range holds the key."""
    t = _conv_table(tmp_path)
    pre = t.scan_arrow(sort=True)
    keys = pa.table({"conv_id": pa.array(["c1"])})
    t.delete_by_keys(keys)
    t.refresh()
    planned, _ = _planned(t)
    want = {e.path for e in t.live_entries()
            if e.stats["conv_id"][0] <= "c1" <= e.stats["conv_id"][1]}
    assert planned == want and len(want) >= 5
    _purge_matches_model(t, pre, keys)


def test_purge_int64_keys_on_int32_turns(tmp_path, ray_session):
    """int64 keys on the int32 turn_idx compare by value: 2**40 and
    2**53 + 1 lie in no file, 17 in exactly one."""
    t = _conv_table(tmp_path)
    pre = t.scan_arrow(sort=True)
    keys = _keys(["c3", "c3", "c3"], [2**40, 2**53 + 1, 17], pa.int64())
    t.delete_by_keys(keys)
    t.refresh()
    planned, _ = _planned(t)
    assert planned == set(_holding(t, "c3", 17)) and len(planned) == 1
    _purge_matches_model(t, pre, keys)


def test_purge_int64_turns_beyond_2_53_stay_exact(tmp_path, ray_session):
    """On an int64 turn_idx, (c, 2**53 + 1) falls between a file ending at
    2**53 and one starting at 2**53 + 2: a float comparison would round
    it onto the first file's bound, the exact one excludes both."""
    base = 2**53 - 14
    data = _rows(["c0"], 16, turn_type=pa.int64(), turn_base=base,
                 turn_step=2)
    t = _table(str(tmp_path / "t"), data, rows_per_file=8)
    bounds = sorted((e.stats["__key_lo"][1], e.stats["__key_hi"][1])
                    for e in t.live_entries())
    assert bounds == [(base, 2**53), (2**53 + 2, 2**53 + 16)]
    pre = t.scan_arrow(sort=True)
    keys = _keys(["c0"], [2**53 + 1], pa.int64())
    t.delete_by_keys(keys)
    t.refresh()
    planned, excluded = _planned(t)
    assert planned == set() and excluded == 2
    _purge_matches_model(t, pre, keys)


def test_purge_null_keys_fall_back(tmp_path, ray_session):
    """A null key cannot be judged by bounds: (c5, null) falls back to the
    first key and plans every file of c5; (null, 3) plans every file."""
    t = _conv_table(tmp_path)
    pre = t.scan_arrow(sort=True)
    keys = _keys(["c5", None, "c0"], [None, 3, 5])
    t.delete_by_keys(keys)
    t.refresh()
    planned, excluded = _planned(t)
    assert planned == {e.path for e in t.live_entries()}
    assert excluded == 0
    _purge_matches_model(t, pre, keys)


def test_purge_legacy_files_without_key_bounds(tmp_path, ray_session):
    """Files written before the composite bounds existed fall back to the
    first-key test: every file of the conversation is planned."""
    data = _rows([f"c{i}" for i in range(6)], 40)
    t = _table(str(tmp_path / "t"), data, rows_per_file=8, legacy=True)
    assert not any("__key_lo" in e.stats for e in t.live_entries())
    pre = t.scan_arrow(sort=True)
    keys = _keys(["c2"], [17])
    t.delete_by_keys(keys)
    t.refresh()
    planned, _ = _planned(t)
    want = {e.path for e in t.live_entries()
            if e.stats["conv_id"][0] <= "c2" <= e.stats["conv_id"][1]}
    assert planned == want and len(want) >= 5
    _purge_matches_model(t, pre, keys)


# ------------------------------------------ purge plans (hash-space bounds)


def test_purge_plans_on_hash_bounds_after_zorder(tmp_path, ray_session):
    """A z-ordered file's composite bounds span nearly every key, so they
    keep most files for one deleted turn; the `conv_h32` bounds exclude
    every file whose hash span misses the turn's conversation."""
    t, convs = _zordered(tmp_path)
    conv, turn = convs[7], 5
    composite = {e.path for e in t.live_entries()
                 if tuple(e.stats["__key_lo"]) <= (conv, turn)
                 <= tuple(e.stats["__key_hi"])}
    pre = t.scan_arrow(sort=True)
    keys = _keys([conv], [turn])
    t.delete_by_keys(keys)
    t.refresh()
    planned, excluded = _planned(t)
    assert set(_holding(t, conv, turn)) <= planned
    assert len(planned) < len(composite)
    assert excluded == len(t.live_entries()) - len(planned)
    _purge_matches_model(t, pre, keys)


def test_purge_null_key_ignores_hash_bounds(tmp_path, ray_session):
    """Hash bounds skip null keys: a delete file holding (null, 3) plans
    every file, also for its other, non-null key."""
    t, convs = _zordered(tmp_path)
    pre = t.scan_arrow(sort=True)
    keys = _keys([convs[7], None], [5, 3])
    t.delete_by_keys(keys)
    t.refresh()
    planned, excluded = _planned(t)
    assert planned == {e.path for e in t.live_entries()}
    assert excluded == 0
    _purge_matches_model(t, pre, keys)


# ------------------------------------- merges keep zorder's clustering


def _h32_span(t: Table) -> dict[int, float]:
    """Per bucket, the summed width of the live files' hash-space bounds,
    as a share of the hash space."""
    out: dict[int, float] = {}
    for e in t.live_entries():
        lo, hi = e.stats.get("conv_h32") or e.stats["conv_id_h32"]
        out[e.partition] = out.get(e.partition, 0.0) + (hi - lo) / 2**32
    return out


def _wasted_reads(t: Table, convs: list[str]) -> int:
    """Files the lookups of `convs` read that hold none of their rows."""
    holds: dict[str, set[str]] = {}
    for e in t.live_entries():
        f = read_file(os.path.join(t.root, e.path), columns=["conv_id"])
        for c in pc.unique(f["conv_id"]).to_pylist():
            holds.setdefault(c, set()).add(e.path)
    return sum(len({e.path for e in t.prune_point(c)} - holds[c])
               for c in convs)


def _merge_source(cur: pa.Table, convs: list[str], turn: int) -> pa.Table:
    """New text for `turn` of every conversation, plus a new turn for
    every third one."""
    src = cur.filter(pc.equal(cur["turn_idx"], turn))
    src = src.set_column(3, "text", pc.binary_join_element_wise(
        f"m{turn}-", src["text"], ""))
    new = src.filter(pa.array(np.isin(src["conv_id"].to_numpy(False),
                                      convs[::3])))
    new = new.set_column(1, "turn_idx", pc.add(
        new["turn_idx"], pa.scalar(100, pa.int32())))
    return pa.concat_tables([src, new])


def _lww(cur: pa.Table, src: pa.Table) -> pa.Table:
    kept = cur.filter(pa.array(~KeySet(src.select(KEYS)).contains(cur)))
    return pa.concat_tables([kept, src]).sort_by(
        [(k, "ascending") for k in KEYS])


def test_merges_keep_zorder_clustering(tmp_path, ray_session, monkeypatch):
    """Copy-on-write merges of z-ordered files write their rows in zorder's
    curve order: after each merge, each bucket's files span as much hash
    space as after zorder, and lookups read no more files that miss their
    conversation. The span sum moves by a few percent with the cut points
    (the merge sizes files by its z-ordered inputs' bytes per row and cuts
    a few more); writing the source rows at the tail more than doubles it.
    """
    t, convs = _zordered(tmp_path)
    span0, wasted0 = _h32_span(t), _wasted_reads(t, convs)
    model = t.scan_arrow(sort=True)
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", math.inf)
    for turn in (3, 11):
        src = _merge_source(model, convs, turn)
        snap = merge_into(t, src, target_file_bytes=12 * 1024)
        t.refresh()
        assert snap.summary["write_mode"] == "copy-on-write"
        model = _lww(model, src)
        assert t.scan_arrow(sort=True).equals(model)
        span = _h32_span(t)
        assert span.keys() == span0.keys()
        assert all(span[b] <= 1.05 * span0[b] for b in span0), (span, span0)
        assert _wasted_reads(t, convs) <= wasted0


def _layout(t: Table) -> list:
    """Each live file's bucket, hash bounds and key sequence."""
    out = []
    for e in t.live_entries():
        f = read_file(os.path.join(t.root, e.path), columns=KEYS)
        out.append((e.partition, e.stats.get("conv_h32"),
                    f["conv_id"].to_pylist(), f["turn_idx"].to_pylist()))
    return sorted(out)


def test_paused_merge_writes_the_planned_layout(tmp_path, ray_session,
                                                monkeypatch):
    """The curve-order mark is persisted with the plan: a merge paused
    after one task and resumed writes the files an uninterrupted one
    writes."""
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", math.inf)
    whole, convs = _zordered(tmp_path, "whole")
    paused, _ = _zordered(tmp_path, "paused")
    src = _merge_source(whole.scan_arrow(sort=True), convs, 3)
    merge_into(whole, src, target_file_bytes=12 * 1024)
    assert merge_into(paused, src, target_file_bytes=12 * 1024,
                      job_id="pause", max_tasks=1) is None
    tasks = Ledger(paused.root, "pause").read_meta()["tasks"]
    assert len(tasks) > 1
    assert all(x["extra"]["curve"] == "z" for x in tasks if x["input_paths"])
    merge_into(paused, src, target_file_bytes=12 * 1024, job_id="pause")
    assert _layout(whole.refresh()) == _layout(paused.refresh())
