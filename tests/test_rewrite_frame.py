"""The plan-and-resume frame every rewrite op runs in (ops/rewrite.py):
each op pauses after one task and resumes under its job_id from the
persisted plan, never re-planning; a paused job's written files survive
orphan GC; an empty plan leaves no job directory; and perfbench's traced
run sees every planner it wraps; a job whose commit lost to a conflict
leaves its files to orphan GC."""

import importlib
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import raylake.ops.merge as merge_mod
from raylake.core.deletes import KeySet
from raylake.core.table import CommitConflictError, Table
from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import (
    apply_deletes,
    compact,
    expire_snapshots,
    merge_into,
    repartition_table,
    update_where,
    zorder,
)
from raylake.ops.maintain import run_with_retry
from raylake.state.ledger import Ledger

KEYS = ["conv_id", "turn_idx"]


@pytest.fixture()
def tbl(tmp_path, ray_session):
    return write_transcript_table(str(tmp_path / "t"), n_turns=1500,
                                  rows_per_file=128, num_buckets=4)


def _upserts(cur: pa.Table) -> pa.Table:
    """New text for every 37th live row: keys in every bucket."""
    src = cur.take(pa.array(np.arange(0, len(cur), 37)))
    return src.set_column(src.schema.get_field_index("text"), "text",
                          pc.binary_join_element_wise("upd-", src["text"], ""))


def _lww(cur: pa.Table, src: pa.Table) -> pa.Table:
    kept = cur.filter(pa.array(~KeySet(src.select(KEYS)).contains(cur)))
    return pa.concat_tables([kept, src]).sort_by(
        [(k, "ascending") for k in KEYS])


def _compact(t, cur):
    return (lambda **kw: compact(t, target_file_bytes=512 * 1024, **kw),
            cur, ("compact", "plan_compaction"))


def _zorder(t, cur):
    return (lambda **kw: zorder(t, target_file_bytes=16 * 1024, **kw),
            cur, ("zorder", "plan_zorder"))


def _repartition(t, cur):
    return (lambda **kw: repartition_table(t, 8, **kw),
            cur, ("repartition", "plan_repartition"))


def _update(t, cur):
    hit = pc.equal(cur["turn_idx"], 1)
    want = cur.set_column(
        cur.schema.get_field_index("text"), "text",
        pc.if_else(hit, pa.array(["x"] * len(cur)), cur["text"]))
    return (lambda **kw: update_where(
        t, lambda b: pc.equal(b["turn_idx"], 1), {"text": "x"}, **kw),
        want, ("update", "plan_update"))


def _purge(t, cur):
    dead = cur.select(KEYS).take(pa.array(np.arange(0, len(cur), 53)))
    t.delete_by_keys(dead)
    t.refresh()
    want = cur.filter(pa.array(~KeySet(dead).contains(cur)))
    return (lambda **kw: apply_deletes(t, **kw),
            want, ("deletes", "plan_apply_deletes"))


def _merge(t, cur):
    src = _upserts(cur)
    return (lambda **kw: merge_into(t, src, **kw),
            _lww(cur, src), ("merge", "_stage_source"))


@pytest.mark.parametrize("op", [_compact, _zorder, _repartition, _update,
                                _purge, _merge])
def test_every_op_resumes_its_persisted_plan(tbl, monkeypatch, op):
    """One task, then the rest under the same job_id: the resumed call runs
    from the persisted plan (its planner would raise) and commits the
    same table as an uninterrupted run."""
    t = tbl
    # merge copy-on-write: test_merge_on_read resumes the other write mode
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", math.inf)
    run, want, (module, planner) = op(t, t.scan_arrow(sort=True))
    assert run(job_id="pause", max_tasks=1) is None
    ledger = Ledger(t.root, "pause")
    assert len(ledger.completed()) == 1 < len(ledger.read_meta()["task_ids"])

    def replan(*a, **kw):
        raise AssertionError("resumed job re-planned")

    monkeypatch.setattr(importlib.import_module(f"raylake.ops.{module}"),
                        planner, replan)
    snap = run(job_id="pause")
    assert snap is not None and snap.summary["job_id"] == "pause"
    t.refresh()
    assert t.scan_arrow(sort=True).equals(want)
    assert not os.path.exists(ledger.dir)


def test_expire_keeps_paused_merge_on_read_delete_file(tbl, monkeypatch):
    """Orphan GC must keep every file a paused job ledgered, delete files
    included: the resumed merge-on-read commit references them."""
    t = tbl
    monkeypatch.setattr(merge_mod, "MOR_MIN_AMPLIFICATION", 0)
    cur = t.scan_arrow(sort=True)
    src = _upserts(cur)
    assert merge_into(t, src, job_id="mor-pause", max_tasks=1) is None
    (rec,) = Ledger(t.root, "mor-pause").completed().values()
    assert rec["deletes"]
    expire_snapshots(t, grace_period_s=0.0)
    assert os.path.exists(os.path.join(t.root, rec["deletes"][0]["path"]))
    snap = merge_into(t, src, job_id="mor-pause")
    t.refresh()
    assert snap.summary["write_mode"] == "merge-on-read"
    assert t.scan_arrow(sort=True).equals(_lww(cur, src))


def test_lost_commit_leaves_its_files_to_expire(tbl):
    """A job whose commit loses to a conflict can never commit: it drops
    its ledger, so expire removes the files it wrote and only the live
    files stay on disk."""
    t = tbl
    pre = t.scan_arrow(sort=True)
    assert compact(t, target_file_bytes=512 * 1024, job_id="lost",
                   max_tasks=1) is None
    assert compact(Table.load(t.root),
                   target_file_bytes=512 * 1024) is not None
    with pytest.raises(CommitConflictError):
        compact(t, target_file_bytes=512 * 1024, job_id="lost")
    assert not os.path.exists(os.path.join(t.root, "metadata", "jobs",
                                           "lost"))
    expire_snapshots(t, keep_last=1, grace_period_s=0.0)
    t.refresh()
    on_disk = {os.path.relpath(os.path.join(d, f), t.root)
               for d, _, fs in os.walk(os.path.join(t.root, "data"))
               for f in fs}
    assert on_disk == {e.path for e in t.live_entries()}
    assert t.scan_arrow(sort=True).equals(pre)


@pytest.mark.parametrize("noop", [
    lambda t: compact(t, target_file_bytes=512 * 1024, job_id="noop"),
    lambda t: run_with_retry(compact, t, target_file_bytes=512 * 1024),
    lambda t: zorder(t, job_id="noop", partitions=set()),
    lambda t: update_where(t, lambda b: pc.equal(b["turn_idx"], -1),
                           {"text": "x"}, prune={"turn_idx": (-2, -1)},
                           job_id="noop"),
    lambda t: apply_deletes(t, job_id="noop"),
    lambda t: merge_into(t, t.scan_arrow().slice(0, 0), job_id="noop"),
], ids=["compact", "run_with_retry", "zorder", "update", "purge", "merge"])
def test_empty_plan_leaves_no_job_directory(tbl, noop):
    """A scheduled no-op maintenance run (a fresh job id each time) must
    not leave a job directory for every later expire to list."""
    t = tbl
    compact(t, target_file_bytes=512 * 1024)
    t.refresh()
    assert noop(t) is None
    jobs = os.path.join(t.root, "metadata", "jobs")
    assert not os.path.isdir(jobs) or os.listdir(jobs) == []


def test_perfbench_plan_spans_see_every_planner(tbl):
    """perfbench's traced run wraps the planners by module attribute; an op
    that stopped calling its planner through the module global would drop
    the per-layer plan spans without an error."""
    from perfbench.trace import Tracer, install_wrappers, uninstall_wrappers

    t = tbl
    tracer = Tracer(True)
    undo = install_wrappers(tracer)
    try:
        compact(t, target_file_bytes=512 * 1024)
        t.refresh()
        zorder(t, target_file_bytes=64 * 1024)
        t.refresh()
        cur = t.scan_arrow(sort=True)
        merge_into(t, _upserts(cur))
        t.refresh()
        t.delete_by_keys(cur.select(KEYS).slice(0, 3))
        t.refresh()
        apply_deletes(t)
    finally:
        uninstall_wrappers(undo)
    plans = {}
    for sp in tracer.spans:
        got = plans.setdefault(sp.name, {"calls": 0, "tasks": 0})
        for k in got:
            got[k] += sp.counts.get(k, 0)
    for name in ("ops.compact.plan_compaction", "ops.zorder.plan_zorder",
                 "ops.merge.plan_merge", "ops.deletes.plan_apply_deletes"):
        assert plans.get(name, {}).get("calls") == 1, name
        assert plans[name]["tasks"] > 0, name
