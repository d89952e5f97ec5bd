"""Rewrite jobs run one Ray task per bin of planned tasks: LPT packing
properties, the Ray task count of a job, task-by-task ledgering inside a
bin, real task CPU in the commit summary, what a failed bin leaves behind,
the `concurrency` cap, and every rewrite op on a 1-CPU Ray session."""

import os
import signal
import subprocess
import sys
import time
import uuid
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import compact, plan_compaction
from raylake.ops.compact import _compact_task
from raylake.ops.rewrite import (
    RewriteTask,
    pack_tasks,
    run_bin,
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

    out = run_bin([asdict(a), asdict(b)], t.root, "retry-job", task_fn, {})
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


def test_failed_bin_leaves_a_resumable_job(tmp_table_root, ray_session):
    """One task raises: the job raises the task's own exception type only
    after the other bins finished, the table keeps its snapshot, every
    other task is ledgered, and a re-run of the job id commits the same
    rows."""
    t = write_transcript_table(
        tmp_table_root, n_turns=1500, rows_per_file=64, num_buckets=4)
    pre, seq = t.scan_arrow(sort=True), t.current_seq
    params = {"target_file_bytes": 512 * 1024, "branch": None}
    tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    assert 2 <= len(tasks) <= 8  # one bin each on the 4-CPU session
    bad = tasks[0].task_id
    fail = os.path.join(tmp_table_root, "fail")
    open(fail, "w").close()

    def task_fn(table, task, params):
        if task["task_id"] == bad and os.path.exists(fail):
            time.sleep(0.2)
            raise ValueError("boom")
        time.sleep(0.5)  # still running when the bad task raises
        return _compact_task(table, task, params)

    with pytest.raises(ValueError, match="boom"):
        run_rewrite_job(t, "compact", tasks, task_fn, job_id="fail-job",
                        params=params)
    assert t.refresh().current_seq == seq
    done = Ledger(t.root, "fail-job").completed()
    assert set(done) == {x.task_id for x in tasks} - {bad}
    os.remove(fail)
    snap = run_rewrite_job(t, "compact", tasks, task_fn, job_id="fail-job",
                           params=params)
    assert snap is not None and snap.summary["tasks"] == len(tasks)
    assert t.refresh().scan_arrow(sort=True).equals(pre)


def test_concurrency_caps_bins_in_flight(tmp_table_root, ray_session):
    """`concurrency=1` runs its two bins one after the other, although
    the session has 4 CPUs for them."""
    t = write_transcript_table(tmp_table_root, n_turns=200, num_buckets=2)
    spans = os.path.join(tmp_table_root, "spans")
    os.makedirs(spans)

    def task_fn(table, task, params):
        t0 = time.time()
        time.sleep(0.3)
        with open(os.path.join(spans, task["task_id"]), "w") as f:
            f.write(f"{t0} {time.time()}")
        return {"entries": [], "replaced": [], "rows": 0}

    tasks = [RewriteTask(task_id=f"s{i}", partition=i, input_bytes=1)
             for i in range(2)]
    run_rewrite_job(t, "noop", tasks, task_fn, concurrency=1)
    spans = sorted(tuple(map(float, open(os.path.join(spans, f)).read()
                             .split())) for f in os.listdir(spans))
    assert len(spans) == 2
    assert spans[0][1] <= spans[1][0]


_ONE_CPU = """
import math, sys
import pyarrow as pa, pyarrow.compute as pc, ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
import raylake.ops.merge as M
from raylake.core.deletes import KeySet
from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import (append, apply_deletes, compact, merge_into,
                         overwrite_partitions, zorder)
from raylake.ops.delete_where import delete_where
from raylake.ops.rewrite import byte_capped_batch_size

t = write_transcript_table(sys.argv[1], 1500, rows_per_file=64,
                           num_buckets=4)
model = t.scan_arrow(sort=True)

def check(name, snap):
    t.refresh()
    print(name, snap is not None and t.scan_arrow(sort=True).equals(model),
          flush=True)

check("compact", compact(t, target_file_bytes=64 * 1024))
check("zorder", zorder(t, target_file_bytes=32 * 1024))
for mode, amp, rows in (("copy-on-write", math.inf, [0, 11, 230, 901]),
                        ("merge-on-read", 0, [5, 17, 404])):
    M.MOR_MIN_AMPLIFICATION = amp
    src = model.take(rows)
    src = src.set_column(src.schema.get_field_index("text"), "text",
                         pc.binary_join_element_wise("upd-", src["text"], ""))
    keep = ~KeySet(src.select(["conv_id", "turn_idx"])).contains(model)
    model = pa.concat_tables([model.filter(pa.array(keep)), src]).sort_by(
        [(c, "ascending") for c in t.sort_order])
    snap = merge_into(t, src)
    check(mode, snap if snap.summary["write_mode"] == mode else None)
check("apply_deletes", apply_deletes(t))

def renamed(rows, prefix):
    return rows.set_column(0, "conv_id", pc.binary_join_element_wise(
        prefix, rows["conv_id"], ""))

def add(rows):
    global model
    model = pa.concat_tables([model, rows]).sort_by(
        [(c, "ascending") for c in t.sort_order])

new = renamed(model.slice(0, 200), "a1-")  # one batch: in the driver
add(new)
check("append", append(t, new))
new = renamed(model.slice(0, 300), "a2-")  # five batches: Ray Data
add(new)
check("append-bins", append(t, new, batch_size=64))
src = renamed(model.slice(0, 150), "o-")
parts = pa.array(t.partition_ids(src["conv_id"]))
model = model.filter(pc.invert(pc.is_in(
    pa.array(t.partition_ids(model["conv_id"])), parts)))
add(src)
check("overwrite", overwrite_partitions(t, src))
M.MOR_MIN_AMPLIFICATION = 64
src = model.take(list(range(0, 700, 10)))  # 70 turns of 1 MiB: two batches
src = src.set_column(src.schema.get_field_index("text"), "text", pa.array(
    [f"{i}:" + "w" * (1 << 20) for i in range(len(src))]))
keep = ~KeySet(src.select(["conv_id", "turn_idx"])).contains(model)
model = model.filter(pa.array(keep))
add(src)
snap = merge_into(t, src)
check("merge-batches", snap if byte_capped_batch_size(src) < len(src)
      else None)

def check_scan(name):
    got = pa.concat_tables(ray.get(t.scan().to_arrow_refs())).sort_by(
        [(c, "ascending") for c in t.sort_order])
    print(name, got.equals(model) and t.scan().count() == len(model),
          flush=True)

check_scan("scan")
model = model.filter(pc.not_equal(model["turn_idx"], 1))
check("delete_where", delete_where(t, lambda b: pc.equal(b["turn_idx"], 1),
                                   columns=["turn_idx"]))
check_scan("scan-after-delete")
ray.shutdown()
"""


def test_rewrite_ops_on_one_cpu(tmp_path):
    """On a 1-CPU Ray session a job's two bins queue on one slot: every
    rewrite op, append and overwrite, in one batch or several, and a merge
    whose source stages in two batches must still finish and keep the scan
    equal to the model. So must `Table.scan`, whose two read tasks also
    share the slot, and `delete_where`, which reads through it."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ops = ("compact", "zorder", "copy-on-write", "merge-on-read",
           "apply_deletes", "append", "append-bins", "overwrite",
           "merge-batches", "scan", "delete_where", "scan-after-delete")
    child = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU, str(tmp_path / "tbl")], cwd=repo,
        env=dict(os.environ, RAY_ADDRESS="", PYTHONPATH=repo),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)  # a hang kills its Ray processes too
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    assert child.returncode == 0, err[-2000:]
    got = [ln for ln in out.splitlines() if ln.split(" ")[0] in ops]
    assert got == [f"{op} True" for op in ops]
