"""Rewrite jobs run one Ray task per bin of planned tasks: LPT packing
properties, the Ray task count of a job, task-by-task ledgering inside a
bin, and real task CPU in the commit summary."""

import json
import os
import uuid
from dataclasses import asdict

import pandas as pd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import compact, plan_compaction
from raylake.ops.rewrite import (
    RewriteTask,
    _rewrite_batch_inner,
    pack_tasks,
    run_rewrite_job,
)
from raylake.state.ledger import Ledger


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(0, 10**9)), min_size=0, max_size=60),
    n_bins=st.integers(1, 40),
)
# dealt in plan order, 4 lands on a bin already holding 1+1: loads 6 and 2
@example(sizes=[1, 1, 1, 1, 4], n_bins=2)
def test_pack_tasks_lpt_properties(sizes, n_bins):
    tasks = [RewriteTask(task_id=f"t{i}", partition=i % 4, input_bytes=b)
             for i, b in enumerate(sizes)]
    bins = pack_tasks(tasks, n_bins)
    placed = [t.task_id for b in bins for t in b]
    # every task, zero-byte ones included, lands in exactly one bin
    assert sorted(placed) == sorted(t.task_id for t in tasks)
    assert len(placed) == len(set(placed))
    assert len(bins) == min(n_bins, len(tasks))
    assert all(bins)
    loads = [sum(t.input_bytes for t in b) for b in bins]
    assert loads == sorted(loads, reverse=True)  # handed out heaviest first
    # largest-first bound: a bin's smallest task s was dealt last, onto the
    # lightest bin, which then held at most (total - s) / bins bytes
    total = sum(sizes)
    for b, load in zip(bins, loads):
        s = min(t.input_bytes for t in b)
        assert load * len(bins) <= total - s + s * len(bins)


def test_job_runs_in_two_ray_tasks_per_slot(tmp_table_root, ray_session):
    """The session has 4 CPUs: 12 planned tasks run in at most 8 Ray
    tasks, and in at most 2 when `concurrency=1` caps the slots."""
    t = write_transcript_table(tmp_table_root, n_turns=200, num_buckets=2)
    probes = os.path.join(tmp_table_root, "probes")
    os.makedirs(probes)

    def task_fn(table, task, params):
        # one Table is loaded per batch, and a Ray task runs >= 1 batch
        probe = table.__dict__.setdefault("_probe", uuid.uuid4().hex)
        open(os.path.join(probes, f"{probe}-{task['task_id']}"), "w").close()
        return {"entries": [], "replaced": [], "rows": 0}

    for concurrency, max_ray_tasks in ((None, 8), (1, 2)):
        for f in os.listdir(probes):
            os.remove(os.path.join(probes, f))
        tasks = [RewriteTask(task_id=f"p{i % 2}-{i}", partition=i % 2,
                             input_bytes=100 * (i + 1)) for i in range(12)]
        run_rewrite_job(t, "noop", tasks, task_fn, concurrency=concurrency)
        ran = [f.split("-", 1) for f in os.listdir(probes)]
        assert sorted(task_id for _, task_id in ran) == sorted(
            x.task_id for x in tasks)
        assert len({probe for probe, _ in ran}) <= max_ray_tasks


def test_retried_bin_skips_ledgered_tasks(tmp_table_root):
    t = write_transcript_table(tmp_table_root, n_turns=200, num_buckets=2)
    a = RewriteTask(task_id="p0-0", partition=0)
    b = RewriteTask(task_id="p1-0", partition=1)
    ledger = Ledger(t.root, "retry-job")
    ledger.record(a.task_id, {"partition": 0, "entries": [], "replaced": [],
                              "rows": 7, "bytes": 0, "wall_s": 0.5})
    before = ledger.completed()[a.task_id]
    ran = []

    def task_fn(table, task, params):
        ran.append(task["task_id"])
        return {"entries": [], "replaced": [], "rows": 1}

    batch = pd.DataFrame({"bin_json": [json.dumps([asdict(a), asdict(b)])]})
    out = _rewrite_batch_inner(batch, t.root, "retry-job", task_fn, {})
    assert ran == [b.task_id]
    assert out["task_id"].tolist() == [b.task_id]
    done = ledger.completed()
    assert done[a.task_id] == before
    assert done[b.task_id]["rows"] == 1


def test_packed_compact_summary_has_task_cpu(tmp_table_root, ray_session):
    """concurrency=1 puts every planned task in two bins: the job must
    still ledger and count each task, keep the scan bit-for-bit, and report
    the workers' real CPU next to their wall time."""
    t = write_transcript_table(
        tmp_table_root, n_turns=4000, rows_per_file=96, num_buckets=4)
    pre = t.scan_arrow(sort=True)
    n_tasks = len(plan_compaction(t, target_file_bytes=512 * 1024))
    assert n_tasks >= 2
    snap = compact(t, target_file_bytes=512 * 1024, concurrency=1)
    assert snap is not None
    assert t.scan_arrow(sort=True).equals(pre)
    assert snap.summary["tasks"] == n_tasks
    assert snap.summary["task_cpu_s"] > 0
    assert snap.summary["task_wall_s"] > 0
