"""Golden-scan invariance for every maintenance op (SURVEY §5a,c,d).

The north rule: post-maintenance scans are bit-for-bit identical to
pre-maintenance scans — per-turn `text` equality under stable
(conv_id, turn_idx) ordering. The duckdb oracle recomputes MERGE from
first principles.
"""

import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from raylake.core.table import Table
from raylake.fixtures.transcripts import (
    gen_late_batch,
    gen_transcripts,
    write_transcript_table,
)
from raylake.ops import compact, expire_snapshots, merge_into, plan_compaction, zorder
from raylake.ops.append import append


@pytest.fixture()
def small_table(tmp_table_root):
    return write_transcript_table(
        tmp_table_root, n_turns=4000, rows_per_file=96, num_buckets=4
    )


def _golden(t: Table) -> pa.Table:
    return t.scan_arrow(sort=True)


def test_compact_bitforbit_and_fewer_files(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    n_files_before = len(t.live_entries())
    snap = compact(t, target_file_bytes=512 * 1024, concurrency=2)
    assert snap is not None and snap.operation == "compact"
    assert len(t.live_entries()) < n_files_before
    assert _golden(t).equals(pre)  # bit-for-bit, text included
    assert t.row_count() == len(pre)
    # idempotent: nothing left to compact at this threshold
    assert plan_compaction(t, target_file_bytes=512 * 1024) == []


def test_zorder_bitforbit_and_pruning(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    compact(t, target_file_bytes=512 * 1024, concurrency=2)
    snap = zorder(t, target_file_bytes=64 * 1024, concurrency=2)
    assert snap is not None
    assert _golden(t).equals(pre)
    # pruning: a conv_id point lookup must skip most files
    conv = pre["conv_id"][len(pre) // 2].as_py()
    pruned = t.prune_point(conv)
    assert len(pruned) < len(t.live_entries())
    got = t.scan_arrow(entries=pruned)
    got = got.filter(pc.equal(got["conv_id"], conv)).sort_by("turn_idx")
    expect = pre.filter(pc.equal(pre["conv_id"], conv)).sort_by("turn_idx")
    assert got.equals(expect)


def test_hilbert_clustering_bitforbit(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    snap = zorder(t, target_file_bytes=64 * 1024, curve="hilbert", concurrency=2)
    assert snap is not None
    assert _golden(t).equals(pre)
    conv = pre["conv_id"][len(pre) // 3].as_py()
    pruned = t.prune_point(conv)
    assert len(pruned) < len(t.live_entries())


def test_hilbert_key_locality():
    """Consecutive Hilbert indices must be adjacent cells (the curve's
    defining property) — catches rotation/reflection bugs."""
    import numpy as np

    from raylake.core.hashing import hilbert_key

    order = 4
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n, dtype=np.uint64),
                         np.arange(n, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()
    d = hilbert_key(xs << np.uint64(32 - order), ys << np.uint64(32 - order),
                    order=order)
    assert sorted(d.tolist()) == list(range(n * n))  # bijective
    by_d = np.argsort(d)
    px, py = xs[by_d], ys[by_d]
    steps = np.abs(np.diff(px.astype(int))) + np.abs(np.diff(py.astype(int)))
    assert (steps == 1).all()  # unit steps: true Hilbert walk


def _merge_oracle(pre: pa.Table, late: pa.Table) -> pa.Table:
    """DuckDB full-recompute oracle for last-writer-wins MERGE."""
    con = duckdb.connect()
    con.register("tgt", pre)
    con.register("src", late)
    out = con.sql(
        """
        WITH src_dedup AS (
          SELECT * EXCLUDE (rn) FROM (
            SELECT *, row_number() OVER (
              PARTITION BY conv_id, turn_idx ORDER BY ts DESC) AS rn
            FROM src) WHERE rn = 1
        )
        SELECT * FROM src_dedup
        UNION ALL
        SELECT * FROM tgt WHERE (conv_id, turn_idx) NOT IN
          (SELECT (conv_id, turn_idx) FROM src_dedup)
        ORDER BY conv_id, turn_idx
        """
    ).arrow()
    con.close()
    return out.cast(pre.schema)


def test_merge_upsert_matches_oracle(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    late = gen_late_batch(pre, update_frac=0.05, insert_frac=0.05, seed=9)
    files_before = {e.path for e in t.live_entries()}
    snap = merge_into(t, late, concurrency=2)
    assert snap is not None and snap.operation == "merge"
    got = _golden(t)
    expect = _merge_oracle(pre, late)
    assert got.equals(expect)
    assert snap.summary["rewritten_rows"] > 0
    del files_before  # widespread updates legitimately touch every small file


def test_merge_pruning_untouched_files_survive(small_table, ray_session):
    """Updates confined to ONE conv must leave other files un-rewritten."""
    t = small_table
    pre = _golden(t)
    conv = pre["conv_id"][0].as_py()
    one = pre.filter(pc.equal(pre["conv_id"], conv)).slice(0, 5)
    # bump ts so last-writer-wins picks the new text
    import pyarrow as pa_

    late = one.set_column(
        one.column_names.index("text"),
        "text",
        pa_.array(["CHANGED-" + s for s in one["text"].to_pylist()]),
    ).set_column(
        one.column_names.index("ts"),
        "ts",
        pc.add(one["ts"].cast(pa_.int64()), 10**9).cast(pa_.timestamp("us")),
    )
    files_before = {e.path for e in t.live_entries()}
    snap = merge_into(t, late, concurrency=2)
    assert snap is not None
    files_after = {e.path for e in t.live_entries()}
    survivors = files_before & files_after
    assert len(survivors) > len(files_before) * 0.5, "pruning broken"
    got = _golden(t)
    assert got.equals(_merge_oracle(pre, late))


def test_merge_noop_skips_rewrite(small_table, ray_session):
    """Re-delivering identical rows must be a no-op (null-safe MG4)."""
    t = small_table
    pre = _golden(t)
    identical = pre.slice(0, 200)  # same keys, same bytes, same ts
    seq_before = t.current_seq
    snap = merge_into(t, identical, concurrency=2)
    assert snap is None  # nothing changed → no commit at all
    assert t.current_seq == seq_before
    assert _golden(t).equals(pre)


def test_merge_delete(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    victims = pre.slice(0, 150).select(["conv_id", "turn_idx"])
    snap = merge_into(t, pre.slice(0, 150), mode="delete", concurrency=2)
    assert snap is not None
    got = _golden(t)
    assert len(got) == len(pre) - 150
    import pandas as pd

    key = pd.MultiIndex.from_arrays(
        [got["conv_id"].to_pandas(), got["turn_idx"].to_pandas()]
    )
    vkey = pd.MultiIndex.from_arrays(
        [victims["conv_id"].to_pandas(), victims["turn_idx"].to_pandas()]
    )
    assert not key.isin(vkey).any()


def test_merge_skew_split_parallelizes_hot_conv(tmp_path, ray_session):
    """A hot conv spanning many files must split into multiple merge tasks."""
    root = str(tmp_path / "hot")
    t = Table.create(
        root,
        gen_transcripts(10).schema,
        partition_column="conv_id",
        num_buckets=1,
    )
    # one conversation, 4000 turns, written as 20 disjoint turn-range files
    import numpy as np
    from raylake.fixtures.transcripts import BASE_TS_US, turn_text

    n = 4000
    data = pa.table(
        {
            "conv_id": pa.array(["conv-hot"] * n),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": pa.array(["user", "assistant"] * (n // 2)),
            "text": pa.array([turn_text("conv-hot", i) for i in range(n)]),
            "tool": pa.array([None] * n, type=pa.string()),
            "ts": pa.array(BASE_TS_US + np.arange(n, dtype=np.int64) * 1_000_000).cast(
                pa.timestamp("us")
            ),
        }
    )
    entries = [t.write_file(data.slice(i * 200, 200), 0) for i in range(20)]
    t.commit("append", entries)
    pre = t.scan_arrow(sort=True)
    # the premise: the hot conv's files hold well over one task's bytes
    max_task_bytes = 128 * 1024
    assert sum(e.bytes for e in entries) > 1.5 * max_task_bytes

    late = gen_late_batch(pre, update_frac=0.2, insert_frac=0.0, seed=3)
    from raylake.ops.merge import _plan_merge_tasks, _stage_source
    from raylake.state.ledger import Ledger

    ledger = Ledger(root, "plan-probe")
    stats = _stage_source(t, late, os.path.join(ledger.dir, "staging"))
    tasks = _plan_merge_tasks(t, stats, max_task_bytes=max_task_bytes)
    ledger.clear()
    assert len(tasks) > 1, "hot conv_id was not skew-split into turn ranges"

    snap = merge_into(t, late, max_task_bytes=max_task_bytes,
                      concurrency=2)
    assert snap is not None
    assert _golden_equals(t, _merge_oracle(pre, late))


def _golden_equals(t, expect):
    return t.scan_arrow(sort=True).equals(expect)


def test_resume_after_partial_job(small_table, ray_session):
    """Kill a compaction halfway (max_tasks) → resume with same job_id →
    identical final state as an uninterrupted run (SURVEY §5d)."""
    t = small_table
    pre = _golden(t)
    all_tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    assert len(all_tasks) >= 2
    half = compact(
        t, target_file_bytes=512 * 1024, job_id="job-x", max_tasks=len(all_tasks) // 2,
        concurrency=2,
    )
    assert half is None  # incomplete: no commit yet
    assert t.current_seq == 1  # snapshot unchanged mid-job
    snap = compact(t, target_file_bytes=512 * 1024, job_id="job-x", concurrency=2)
    assert snap is not None
    assert _golden(t).equals(pre)
    assert plan_compaction(t, target_file_bytes=512 * 1024) == []
    # ledger cleaned up after commit
    assert not os.path.exists(os.path.join(t.root, "metadata", "jobs", "job-x"))


def test_distributed_append(tmp_table_root, ray_session):
    import ray.data

    t = Table.create(
        tmp_table_root, gen_transcripts(10).schema, partition_column="conv_id",
        num_buckets=4,
    )
    data = gen_transcripts(3000, seed=11)
    snap = append(t, ray.data.from_arrow(data), batch_size=512, concurrency=2)
    assert snap is not None and snap.operation == "append"
    got = t.scan_arrow(sort=True)
    expect = data.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.equals(expect)
    # every file is partition-pure
    for e in t.live_entries():
        import pyarrow.parquet as pq
        from raylake.core.hashing import partition_of

        f = pq.read_table(os.path.join(t.root, e.path), columns=["conv_id"])
        buckets = set(partition_of(f["conv_id"], t.num_buckets).tolist())
        assert buckets == {e.partition}


def test_gc_protects_inflight_job_outputs(small_table, ray_session):
    """Orphan GC must not delete files ledgered by an uncommitted job."""
    t = small_table
    tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    from raylake.ops.compact import _compact_task
    from raylake.ops.rewrite import run_rewrite_job

    assert run_rewrite_job(
        t, "compact", tasks, _compact_task, job_id="paused",
        params={"target_file_bytes": 512 * 1024}, max_tasks=1, concurrency=1,
    ) is None  # one task done, job paused — its outputs are uncommitted
    from raylake.state.ledger import Ledger

    rec = next(iter(Ledger(t.root, "paused").completed().values()))
    pending = [e["path"] for e in rec["entries"]]
    assert pending
    report = expire_snapshots(t, keep_last=10, grace_period_s=0.0)
    for p in pending:
        assert p not in report["deleted_files"]
        assert os.path.exists(os.path.join(t.root, p))
    # resuming the paused job still works and lands bit-for-bit
    pre = _golden(t)
    snap = run_rewrite_job(
        t, "compact", tasks, _compact_task, job_id="paused",
        params={"target_file_bytes": 512 * 1024}, concurrency=2,
    )
    assert snap is not None
    assert _golden(t).equals(pre)


def test_concurrent_disjoint_maintenance_both_commit(small_table, ray_session):
    """Snapshot isolation (T4): a compaction of partitions {0,1} planned at
    the same snapshot as a merge touching only partition 2's conversations —
    both commit (disjoint replaced-file sets; the later one rebases)."""
    t = small_table
    pre = _golden(t)
    base_seq = t.current_seq

    compact_tasks = plan_compaction(t, target_file_bytes=512 * 1024,
                                    partitions={0, 1})
    assert compact_tasks

    # a merge confined to conversations of partition 2
    from raylake.core.hashing import partition_of

    convs = pre["conv_id"].to_pylist()
    p2_conv = next(c for c in convs
                   if int(partition_of([c], t.num_buckets)[0]) == 2)
    one = pre.filter(pc.equal(pre["conv_id"], p2_conv)).slice(0, 3)
    late = one.set_column(
        one.column_names.index("ts"), "ts",
        pc.add(one["ts"].cast(pa.int64()), 10**9).cast(pa.timestamp("us")),
    ).set_column(
        one.column_names.index("text"), "text",
        pa.array(["X" + s for s in one["text"].to_pylist()]),
    )

    # pin the compaction job's plan/parent at base_seq BEFORE the merge runs
    from raylake.ops.compact import _compact_task
    from raylake.ops.rewrite import run_rewrite_job

    assert run_rewrite_job(
        t, "compact", compact_tasks, _compact_task, job_id="cc",
        params={"target_file_bytes": 512 * 1024}, max_tasks=0,
    ) is None

    snap_m = merge_into(t, late, concurrency=2)
    assert snap_m is not None
    # compaction was planned against base_seq but commits after the merge:
    # disjoint file sets → rebases cleanly instead of conflicting
    snap_c = run_rewrite_job(
        t, "compact", compact_tasks, _compact_task, job_id="cc",
        params={"target_file_bytes": 512 * 1024}, concurrency=2,
    )
    assert snap_c is not None and snap_c.parent == snap_m.seq
    got = _golden(t)
    expect = _merge_oracle(pre, late)
    assert got.equals(expect)
    assert t.current_seq == base_seq + 2


def test_conflict_retry_replans_and_succeeds(small_table, ray_session):
    """Intersecting concurrent rewrites: the loser re-plans against the new
    snapshot and succeeds on retry (ops/maintain.py)."""
    from raylake.core.table import CommitConflictError
    from raylake.ops.maintain import run_with_retry

    t = small_table
    pre = _golden(t)
    base_seq = t.current_seq

    # pin a compaction plan over ALL partitions at base_seq, then let a
    # conflicting full compaction commit first
    tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    from raylake.ops.compact import _compact_task
    from raylake.ops.rewrite import run_rewrite_job

    assert run_rewrite_job(
        t, "compact", tasks, _compact_task, job_id="loser",
        params={"target_file_bytes": 512 * 1024}, max_tasks=0,
    ) is None
    assert compact(t, target_file_bytes=512 * 1024, concurrency=2) is not None

    # the stale plan now conflicts (its inputs were rewritten)…
    import pytest as _pytest

    with _pytest.raises(CommitConflictError):
        run_rewrite_job(
            t, "compact", tasks, _compact_task, job_id="loser",
            params={"target_file_bytes": 512 * 1024}, concurrency=2,
        )
    # …and run_with_retry re-plans against the current snapshot and lands
    # (fresh plan finds nothing left to compact → clean no-op is also fine)
    snap = run_with_retry(
        lambda tbl, job_id: compact(tbl, target_file_bytes=512 * 1024,
                                    job_id=job_id, concurrency=2),
        t,
    )
    assert _golden(t).equals(pre)
    assert t.current_seq >= base_seq + 1


def test_torn_commit_is_invisible(small_table):
    """Crash between writing snap-N.json and swapping table.json: readers
    keep seeing the old snapshot; the orphaned snap file is GC'd."""
    import os

    t = small_table
    pre = _golden(t)
    seq = t.current_seq
    # simulate the torn write: a snap file for seq+1 exists, pointer doesn't
    import json

    torn = {
        "seq": seq + 1, "parent": seq, "ts_ms": 0, "operation": "compact",
        "manifests": [], "summary": {},
    }
    with open(os.path.join(t.root, "metadata", f"snap-{seq + 1}.json"), "w") as f:
        json.dump(torn, f)
    t2 = Table.load(t.root)
    assert t2.current_seq == seq  # pointer is the source of truth
    assert t2.scan_arrow(sort=True).equals(pre)
    report = expire_snapshots(t2, keep_last=10, grace_period_s=0.0)
    assert f"metadata/snap-{seq + 1}.json" in report["deleted_files"]
    # and the NEXT commit takes seq+1 cleanly (last_sequence unaffected)
    e = t2.write_file(pre.slice(0, 10), 0)
    snap = t2.commit("append", [e])
    assert snap.seq == seq + 1
    assert Table.load(t.root).row_count() == len(pre) + 10


def test_expire_and_orphan_gc(small_table, ray_session):
    t = small_table
    pre = _golden(t)
    compact(t, target_file_bytes=512 * 1024, concurrency=2)
    zorder(t, target_file_bytes=512 * 1024, concurrency=2)
    assert t.current_seq == 3
    # drop an orphan (simulated failed write) into the data dir
    orphan = os.path.join(t.root, "data", "p=00000", "orphan.parquet")
    import pyarrow.parquet as pq

    pq.write_table(pre.slice(0, 10), orphan)
    report = expire_snapshots(t, keep_last=2, grace_period_s=0.0)
    assert report["expired_snapshots"] == [1]
    assert "data/p=00000/orphan.parquet" in report["deleted_files"]
    assert not os.path.exists(orphan)
    # retained snapshots still scan; current scan still bit-for-bit
    assert _golden(t).equals(pre)
    assert t.scan_arrow(snapshot=2, sort=True).equals(pre)
    # expired snapshot is gone
    assert not os.path.exists(os.path.join(t.root, "metadata", "snap-1.json"))
    # GC never deleted a reachable file
    for e in t.live_entries():
        assert os.path.exists(os.path.join(t.root, e.path))


def test_compact_resume_uses_persisted_plan_after_interleaved_append(
    small_table, ray_session
):
    """ADVICE r01 (medium): a commit landing between crash and resume must
    not shift the plan under ledgered results — resume reuses the persisted
    plan, and the final scan equals the pre-state plus exactly the appended
    rows (no duplicated rows from task-id collisions)."""
    t = small_table
    pre = _golden(t)
    tasks = plan_compaction(t, target_file_bytes=512 * 1024)
    assert len(tasks) >= 2
    from raylake.ops.compact import _compact_task
    from raylake.ops.rewrite import run_rewrite_job

    assert run_rewrite_job(
        t, "compact", tasks, _compact_task, job_id="interleaved",
        params={"target_file_bytes": 512 * 1024}, max_tasks=1, concurrency=1,
    ) is None  # paused after one task
    # an append commits while the job is paused (fresh conv_ids so the
    # (conv_id, turn_idx) sort stays a unique total order)
    late = pre.slice(0, 150)
    late = late.set_column(
        late.schema.get_field_index("conv_id"), "conv_id",
        pc.binary_join_element_wise(
            pa.array(["late"] * len(late)), late["conv_id"], "-"),
    )
    append(t, late)
    t.refresh()
    # resume via the public entry point — it must NOT re-plan positionally
    snap = compact(t, target_file_bytes=512 * 1024, job_id="interleaved",
                   concurrency=2)
    assert snap is not None
    got = _golden(t)
    want = (
        pa.concat_tables([pre, late.cast(pre.schema)])
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    assert got.equals(want)


def test_scd_merge_raises_on_duplicate_source_keys():
    """ADVICE r01 (low): reference Spark MERGE raises on multiple matching
    source rows; silently emitting per-duplicate outputs corrupts upserts."""
    from raylake.functions.scd import scd1_merge, scd2_merge

    tgt = pa.table({"k": [1, 2], "v": ["a", "b"]})
    dup_src = pa.table({"k": [2, 2], "v": ["x", "y"]})
    with pytest.raises(ValueError, match="duplicate keys"):
        scd1_merge(tgt, dup_src, keys=["k"])
    dup_tgt = pa.table({"k": [1, 1], "v": ["a", "b"]})
    with pytest.raises(ValueError, match="duplicate keys"):
        scd1_merge(dup_tgt, pa.table({"k": [1], "v": ["x"]}), keys=["k"])
    from raylake.functions.scd import add_scd2_cols
    import datetime

    ts0 = datetime.datetime(2024, 1, 1)
    tgt2 = add_scd2_cols(tgt, ts0)
    with pytest.raises(ValueError, match="duplicate keys"):
        scd2_merge(tgt2, dup_src, keys=["k"], tracked_cols=["v"], start_ts=ts0)


def test_expire_grace_period_protects_fresh_unreachable_files(
    small_table, ray_session
):
    """ADVICE r01 (high): writers create data files BEFORE taking the commit
    lock; a freshly-written unreachable file must survive a sweep under the
    default grace period (it may be an in-flight write, not an orphan)."""
    import pyarrow.parquet as pq

    t = small_table
    pre = _golden(t)
    fresh = os.path.join(t.root, "data", "p=00000", "inflight.parquet")
    pq.write_table(pre.slice(0, 5), fresh)
    report = expire_snapshots(t, keep_last=10)  # default grace 300s
    assert "data/p=00000/inflight.parquet" not in report["deleted_files"]
    assert os.path.exists(fresh)
    os.unlink(fresh)


def test_commit_lock_exit_preserves_successors_lock(tmp_table_root):
    """ADVICE r01 (low): __exit__ must not unlink a lock it no longer owns
    (e.g. after a stale break by a waiter)."""
    from raylake.core.table import _CommitLock

    os.makedirs(os.path.join(tmp_table_root, "metadata"), exist_ok=True)
    a = _CommitLock(tmp_table_root)
    b = _CommitLock(tmp_table_root, timeout_s=0.5)
    a.__enter__()
    # simulate a stale break + successor acquisition while `a` thinks it
    # still holds the lock
    os.unlink(a.path)
    b.__enter__()
    a.__exit__(None, None, None)  # must NOT remove b's lock
    assert os.path.exists(b.path)
    b.__exit__(None, None, None)
    assert not os.path.exists(b.path)


def test_merge_staged_read_amplification_bounded(small_table, ray_session):
    """VERDICT r01 #10: key-sorted small-row-group staging + key-range
    parquet filters keep Σ staged rows decoded close to Σ rows owned —
    a hot bucket split into k tasks must not re-read its staged source
    k times."""
    t = small_table
    base = _golden(t)
    late = gen_late_batch(base, update_frac=0.10, insert_frac=0.05, seed=11)
    snap = merge_into(t, late, max_task_bytes=64 * 1024)  # force many tasks
    assert snap is not None
    s = snap.summary
    assert s["staged_rows_used"] >= len(late) * 0.95
    # row-group granularity (16k) allows boundary slop; amplification must
    # stay well under the task count
    assert s["staged_rows_read"] <= max(s["staged_rows_used"] * 3,
                                        s["staged_rows_used"] + 64 * 1024)


def test_zorder_splits_oversized_partition(small_table, ray_session):
    """ADVICE/VERDICT r03: a skewed bucket that outgrows `max_task_bytes`
    must split into multiple z-sorted file-group tasks instead of becoming
    one oversized in-memory sort — with the bit-for-bit scan invariant and
    point-lookup pruning intact."""
    from raylake.ops import plan_zorder

    t = small_table
    pre = _golden(t)
    sizes = {e.partition: sum(x.bytes for x in t.live_entries()
                              if x.partition == e.partition)
             for e in t.live_entries()}
    big = max(sizes, key=sizes.get)
    cap = sizes[big] // 3  # force ≥3 groups for the biggest bucket
    tasks = plan_zorder(t, max_task_bytes=cap)
    per_part = {}
    for task in tasks:
        per_part.setdefault(task.partition, []).append(task)
        assert task.input_bytes <= cap or len(task.input_paths) == 1
    assert len(per_part[big]) >= 3
    # every live file is covered exactly once across the split tasks
    planned = [p for task in tasks for p in task.input_paths]
    assert sorted(planned) == sorted(e.path for e in t.live_entries())

    snap = zorder(t, target_file_bytes=64 * 1024, concurrency=2,
                  max_task_bytes=cap)
    assert snap is not None
    assert _golden(t).equals(pre)  # bit-for-bit invariant
    conv = pre["conv_id"][len(pre) // 2].as_py()
    pruned = t.prune_point(conv)
    assert len(pruned) < len(t.live_entries())  # pruning still effective


def test_zorder_unsplit_plan_is_unchanged(small_table, ray_session):
    """Default planning (partition fits max_task_bytes) keeps the one-task-
    per-partition shape and task ids (resume-compat)."""
    from raylake.ops import plan_zorder

    t = small_table
    tasks = plan_zorder(t)
    assert [task.task_id for task in tasks] == [
        f"z{p:05d}" for p in sorted({e.partition for e in t.live_entries()})]
