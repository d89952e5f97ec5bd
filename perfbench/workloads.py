"""The two workloads: one closed-loop client driving raylake's public API.

Each iteration builds a fresh table from the seed and runs a fixed amount of
work on it, so every iteration of a run does the same work and the run
reports medians across iterations and operations.

- ``maintain``: large prose files. Rewrite tasks (Parquet decode/encode,
  sort, z-key, last-writer-wins) do nearly all the work.
- ``ingest``: hundreds of 32-row files of compressible fixture text. Each
  operation touches few rows but walks every manifest entry, commits and
  pays Ray dispatch, and merge-on-read delete files pile up.

Both run the same operation kinds (so every end-to-end metric exists on
both); the order and the table shape differ.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import gen as G
from perfbench import host


# shared by both workloads
TARGET_FILE_BYTES = 1 << 20  # rewrite output files
LATE_UPDATE, LATE_INSERT = 0.05, 0.02  # late batch of the big merge
APPEND_TURNS = 200           # per round, in new conversations
UPSERT_CONVS = 10            # conversations receiving late turns per round
UPSERT_TAIL, UPSERT_NEW = 8, 2  # rewritten tail turns, new turns per conv
DELETE_KEYS = 50             # live keys deleted per round
SCANS = 4                    # timed full scans per iteration
ITERATIONS = 3               # fresh tables per run, at least (set-up samples)
REF_EVERY_S = 4.0            # wall time between reference readings


@dataclass(frozen=True)
class Config:
    text: str                  # "prose" | "digest"
    max_text: int              # turn text is 50..max_text characters
    turns: int                 # turns in the set-up table
    max_conv: int              # longest conversation, in turns
    rows_per_file: int
    buckets: int
    lookups: int               # lookups on the maintained layout
    rounds: int                # append/upsert/delete rounds
    round_lookups: int         # lookups per round
    repeats: int               # runs of each of compact, zorder, merge


WORKLOADS = {
    "maintain": Config(text="prose", max_text=500, turns=200_000,
                       max_conv=2000, rows_per_file=1024, buckets=4,
                       lookups=34, rounds=2, round_lookups=0, repeats=1),
    "ingest": Config(text="digest", max_text=2000, turns=10_000,
                     max_conv=200, rows_per_file=32, buckets=16,
                     lookups=0, rounds=3, round_lookups=16, repeats=2),
}


class OpFailed(Exception):
    pass


class Recorder:
    """Times operations in wall time and in CPU seconds of the process
    group, records their snapshot summaries, counts attempts and failures,
    tracks machine CPU and peak RSS over the timed sections, and takes the
    host reference readings (`host.Reference`) between operations."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples: dict[str, list] = defaultdict(list)
        self.summaries: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failures: list[dict] = []
        self.timed_wall_s = 0.0
        self.cpu_busy_s = 0.0
        self.cpu_steal_s = 0.0
        self.iter_peak_mb, self.iter_peak_op = 0.0, None
        self.clock = host.GroupClock()
        self.ref = None

    def reference(self) -> None:
        """Take a reference reading when the last one is older than
        REF_EVERY_S of wall time. The first run of the job warms it up and
        is not kept."""
        if self.ref is None:
            self.ref = host.Reference()
            self.ref.run()
            self.ref_at = -REF_EVERY_S
        now = time.perf_counter()
        if now - self.ref_at > REF_EVERY_S:
            self.samples["ref"].append(self.ref.run())
            self.ref_at = now

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        self.reference()
        # freed memory that jemalloc still holds would count in the peak
        # or not depending on its decay timer; every op starts without it
        pa.default_memory_pool().release_unused()
        host.reset_peak_rss()
        busy0, steal0 = host.cpu_times()
        self.clock.start()
        with self.tracer.span("op." + name) as sp:
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                self.failures.append({"op": name, "type": type(e).__name__,
                                      "msg": str(e)[:300]})
                raise OpFailed(name) from e
            dt = time.perf_counter() - t0
            summary = getattr(out, "summary", None)
            if summary is not None:
                self.summaries[name].append(summary)
                if sp is not None:
                    sp.counts.update(
                        task_wall_s=summary.get("task_wall_s", 0.0),
                        tasks=summary.get("tasks", 0))
        cpu = self.clock.stop()
        busy, steal = host.cpu_times()
        self.cpu_busy_s += busy - busy0
        self.cpu_steal_s += steal - steal0
        self.timed_wall_s += dt
        peak = host.peak_rss_mb()
        if peak > self.iter_peak_mb:
            self.iter_peak_mb, self.iter_peak_op = peak, name
        self.samples[name].append(dt)
        self.samples[name + ".cpu"].append(cpu)
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": "check:" + name,
                                  "type": "CheckFailed", "msg": detail})


def _rewritten(snap) -> int:
    return snap.summary["rewritten_rows"] if snap is not None else 0


def _sorted_scan(tbl, **kw) -> pa.Table:
    return tbl.scan_arrow(sort=True, **kw)


def _diff(got: pa.Table, exp: pa.Table) -> str:
    return f"rows {len(got)} vs expected {len(exp)}"


def _check_scan(rec: Recorder, name: str, got: pa.Table,
                model: pa.Table) -> None:
    """A sorted scan must equal the model, bit for bit."""
    exp = G.sort_keys(model)
    rec.check(name, got.equals(exp), _diff(got, exp))


class Iteration:
    """One fresh table and the fixed work of one iteration."""

    def __init__(self, cfg: Config, rec: Recorder, gen: G.Gen, root: str):
        self.cfg = cfg
        self.rec = rec
        self.gen = gen
        self.root = root
        self.tbl = None
        self.model: pa.Table | None = None  # live rows, in no set order
        self.next_conv = 0
        self.cdc = defaultdict(int)          # expected change-feed counts

    # -------------------------------------------------------------- set-up

    def setup(self, with_late: bool) -> None:
        from raylake import TRANSCRIPT_SCHEMA, Table
        from raylake.core.hashing import partition_of

        cfg, rec = self.cfg, self.rec
        t0 = time.perf_counter()
        with rec.tracer.span("setup"):
            with rec.tracer.span("setup.gen"):
                data = self.gen.conversations(0, cfg.turns, cfg.max_conv)
                self.next_conv = len(pc.unique(data["conv_id"]))
            t1 = time.perf_counter()
            with rec.tracer.span("setup.write"):
                tbl = Table.create(self.root, TRANSCRIPT_SCHEMA,
                                   partition_column="conv_id",
                                   num_buckets=cfg.buckets)
                part = partition_of(data["conv_id"], cfg.buckets)
                order = np.argsort(part, kind="stable")
                ordered = data.take(pa.array(order))
                part = part[order]
                cuts = np.flatnonzero(np.diff(part)) + 1
                entries = []
                for lo, hi in zip(np.concatenate([[0], cuts]),
                                  np.concatenate([cuts, [len(part)]])):
                    for off in range(lo, hi, cfg.rows_per_file):
                        piece = ordered.slice(
                            off, min(cfg.rows_per_file, hi - off))
                        entries.append(tbl.write_file(piece, int(part[lo])))
            t2 = time.perf_counter()
            with rec.tracer.span("setup.commit"):
                tbl.commit("append", entries)
            t3 = time.perf_counter()
            with rec.tracer.span("setup.late"):
                self.late = (self.gen.late_batch(data, LATE_UPDATE,
                                                 LATE_INSERT)
                             if with_late else None)
            with rec.tracer.span("setup.warm"):
                _warm_up(self.root + "-warm")
        rec.samples["setup"].append(time.perf_counter() - t0)
        rec.samples["setup.gen"].append(t1 - t0)
        rec.samples["setup.write"].append(t2 - t1)
        rec.samples["setup.commit"].append(t3 - t2)
        self.tbl = tbl
        self.setup_seq = tbl.current_seq
        self.model = G.sort_keys(data)

    # ----------------------------------------------------------- operations

    def maintenance(self, late: pa.Table) -> None:
        """compact → zorder → merge. The scans after compact and zorder must
        equal the model of the table before them, bit for bit; the scan
        after merge must equal the last-writer-wins model. With `repeats`
        > 1 each op is rolled back and run again on the same snapshot: the
        same work, sampled again."""
        from raylake.ops import compact, merge_into, zorder

        rec, tbl, tb = self.rec, self.tbl, TARGET_FILE_BYTES
        if rec.tracer.enabled:
            self.rec.samples.setdefault("probe", []).append(
                _phase_probe(tbl, tb, self.root + "-probe"))
        before = G.sort_keys(self.model)
        self.model = G.upsert_model(self.model, late)
        merged = G.sort_keys(self.model)
        rows, cpus = 0, np.zeros(self.cfg.repeats)
        for name, fn, args, expected in (
                ("compact", compact, (), before),
                ("zorder", zorder, (), before),
                ("merge", merge_into, (late,), merged)):
            start = tbl.current_seq
            for r in range(self.cfg.repeats):
                if r:
                    tbl.rollback(start)
                snap = rec.op(name, fn, tbl, *args, target_file_bytes=tb)
                cpus[r] += rec.samples[name + ".cpu"][-1]
                if name == "merge" and r + 1 == self.cfg.repeats:
                    continue  # the caller's next scan checks this state
                got = _sorted_scan(tbl)
                rec.check(f"{name}_scan", got.equals(expected),
                          _diff(got, expected))
                del got
            rows += _rewritten(snap)
        rec.samples["maintain_turns_per_cpu_s"].extend(rows / cpus)
        ents = tbl.live_entries()
        rec.samples["stored_bytes_per_turn"].append(
            sum(e.bytes for e in ents) / max(1, sum(e.rows for e in ents)))

    def full_scan(self, name: str) -> None:
        """The full sorted scan, timed SCANS times (it does not change the
        table), each result checked against the model."""
        exp = G.sort_keys(self.model)
        for _ in range(SCANS):
            got = self.rec.op("scan", _sorted_scan, self.tbl)
            self.rec.samples["scan_turns_per_cpu_s"].append(
                len(got) / self.rec.samples["scan.cpu"][-1])
            self.rec.check(name, got.equals(exp), _diff(got, exp))
            del got

    def lookups(self, n: int) -> None:
        rec, tbl = self.rec, self.tbl
        model = G.sort_keys(self.model)
        ids = model["conv_id"].to_numpy(zero_copy_only=False)
        for conv in self.gen.lookup_convs(self.model, n):
            def look(c=conv):
                ents = tbl.prune_point(c)
                return ents, tbl.scan_arrow(entries=ents)
            ents, got = rec.op("lookup", look)
            got = G.sort_keys(got.filter(pc.equal(got["conv_id"], conv)))
            lo, hi = np.searchsorted(ids, conv), np.searchsorted(
                ids, conv, side="right")
            exp = model.slice(lo, hi - lo)
            rec.check("lookup_rows", got.equals(exp), f"{conv}: "
                      + _diff(got, exp))
            if rec.tracer.enabled:
                useful = sum(
                    1 for e in ents
                    if pc.any(pc.equal(pq.read_table(
                        os.path.join(tbl.root, e.path),
                        columns=["conv_id"])["conv_id"], conv)).as_py())
                rec.samples["lookup.files_read"].append(len(ents))
                rec.samples["lookup.files_useful"].append(useful)
                rec.samples["lookup.files_total"].append(
                    len(tbl.live_entries()))

    def rounds(self) -> None:
        from raylake.ops import append, merge_into

        cfg, rec, tbl, g = self.cfg, self.rec, self.tbl, self.gen
        for _ in range(cfg.rounds):
            new = g.conversations(self.next_conv, APPEND_TURNS, 50)
            self.next_conv += len(pc.unique(new["conv_id"]))
            rec.op("append", append, tbl, new)
            self.model = pa.concat_tables([self.model, new])
            self.cdc["insert"] += len(new)

            src = g.tail_upsert(self.model, UPSERT_CONVS, UPSERT_TAIL,
                                UPSERT_NEW)
            inserted = len(G.anti_join(src, self.model))
            rec.op("upsert", merge_into, tbl, src, cdc=True,
                   target_file_bytes=TARGET_FILE_BYTES)
            self.model = G.upsert_model(self.model, src)
            self.cdc["insert"] += inserted
            self.cdc["update_preimage"] += len(src) - inserted
            self.cdc["update_postimage"] += len(src) - inserted

            keys = g.live_keys(self.model, DELETE_KEYS)
            rec.op("delete", tbl.delete_by_keys, keys)
            self.model = G.anti_join(self.model, keys)
            self.cdc["delete"] += len(keys)
            self.lookups(cfg.round_lookups)
        metas = tbl.delete_files_meta()
        rec.samples["deletes.live_delete_files"].append(len(metas))
        rec.samples["deletes.delete_rows"].append(
            sum(d["rows"] for d in metas))

    def history(self) -> None:
        """Time travel to the set-up snapshot and the change feed since the
        rounds began."""
        rec, tbl = self.rec, self.tbl
        got = rec.op("time_travel", _sorted_scan, tbl,
                     snapshot=self.setup_seq)
        _check_scan(rec, "time_travel_setup", got, self.setup_model)
        feed = rec.op("changes", tbl.changes, self.feed_from)
        counts = dict(zip(*[c.to_pylist() for c in pc.value_counts(
            feed["_change_type"]).flatten()]))
        expected = {k: v for k, v in self.cdc.items() if v}
        rec.check("changes_since_setup", counts == expected,
                  f"{counts} vs {expected}")

    def purge_and_expire(self) -> None:
        from raylake.ops import apply_deletes, expire_snapshots

        rec, tbl = self.rec, self.tbl
        rec.op("purge", apply_deletes, tbl,
               target_file_bytes=TARGET_FILE_BYTES)
        rep = rec.op("expire", expire_snapshots, tbl, keep_last=1,
                     grace_period_s=0.0)
        rec.samples["expire.snapshots_expired"].append(
            len(rep["expired_snapshots"]))
        rec.samples["expire.files_deleted"].append(len(rep["deleted_files"]))
        rec.samples["expire.bytes_freed"].append(rep["freed_bytes"])

    def finish(self) -> None:
        ents = self.tbl.live_entries()
        self.rec.check("live_rows",
                       sum(e.rows for e in ents) == len(self.model))

    # ---------------------------------------------------------- the orders

    def run(self, workload: str) -> None:
        self.setup(with_late=workload == "maintain")
        self.setup_model = self.model
        self.feed_from = self.setup_seq
        if workload == "maintain":
            self.maintenance(self.late)
            self.late = None
            self.full_scan("scan_equals_model")
            self.lookups(self.cfg.lookups)
            self.rounds()
            self.purge_and_expire()
            _check_scan(self.rec, "scan_after_purge_expire",
                        _sorted_scan(self.tbl), self.model)
        else:
            # scans and maintenance on the set-up layout, whose shape does
            # not depend on the seed; then back to it for the rounds
            self.full_scan("scan_equals_setup")
            self.maintenance(self.gen.late_batch(
                self.model, LATE_UPDATE, LATE_INSERT))
            _check_scan(self.rec, "merge_scan", _sorted_scan(self.tbl),
                        self.model)
            # rolled-back commits stay in the log: the feed starts after
            self.feed_from = self.tbl.current_seq
            self.tbl.rollback(self.setup_seq)
            self.model = self.setup_model
            self.rounds()
            self.history()
            self.purge_and_expire()
            _check_scan(self.rec, "scan_after_purge_expire",
                        _sorted_scan(self.tbl), self.model)
        self.finish()


def _warm_up(root: str) -> None:
    """One tiny compact on a throwaway table: starts the Ray worker and
    imports raylake in it, so no timed operation pays that."""
    from raylake import TRANSCRIPT_SCHEMA, Table
    from raylake.ops import compact

    shutil.rmtree(root, ignore_errors=True)
    t = Table.create(root, TRANSCRIPT_SCHEMA, num_buckets=1)
    g = G.Gen(0, "digest", 60)
    rows = g.conversations(0, 8, 4)
    t.commit("append", [t.write_file(rows.slice(0, 4), 0),
                        t.write_file(rows.slice(4), 0)])
    compact(t)
    shutil.rmtree(root, ignore_errors=True)


def _phase_probe(tbl, target_file_bytes: int, probe_root: str) -> dict:
    """Time the in-task phases of one planned compaction task in the driver:
    Parquet read, sort, last-writer-wins, file stats and Parquet write."""
    from raylake import Table
    from raylake.core.metadata import column_stats
    from raylake.ops.compact import plan_compaction
    from raylake.ops.merge import last_writer_wins
    from raylake.ops.rewrite import cut_and_write, read_task_inputs

    task = asdict(plan_compaction(tbl, target_file_bytes=target_file_bytes)[0])
    t0 = time.perf_counter()
    data = read_task_inputs(tbl, task)
    t1 = time.perf_counter()
    data = data.sort_by([(c, "ascending") for c in tbl.sort_order])
    t2 = time.perf_counter()
    src = data.slice(0, max(1, len(data) // 20))
    merged = last_writer_wins(data, src)
    t3 = time.perf_counter()
    column_stats(data, tbl.stats_columns)
    t4 = time.perf_counter()
    shutil.rmtree(probe_root, ignore_errors=True)
    probe = Table.create(probe_root, tbl.schema,
                           num_buckets=tbl.num_buckets)
    bpr = task["input_bytes"] / max(1, task["input_rows"])
    cut_and_write(probe, data, task["partition"], target_file_bytes, bpr)
    t5 = time.perf_counter()
    shutil.rmtree(probe_root, ignore_errors=True)
    mb = data.nbytes / 1e6
    return {"read_MBps": mb / (t1 - t0), "sort_ms": (t2 - t1) * 1e3,
            "lww_ms": (t3 - t2) * 1e3, "stats_ms": (t4 - t3) * 1e3,
            "write_MBps": mb / (t5 - t4), "rows": len(merged)}
