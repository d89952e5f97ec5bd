"""sf1 proof run (VERDICT r03 #1): the full maintenance cycle
(compact → zorder → merge) over a 100M-turn transcript table — 10× the
per-round driver bench — with the same validity stamp, plus point-lookup
pruning ratio, fast-delete timing, peak driver RSS and peak tmpfs
footprint. One attempt (the table alone is ~25 GB on /dev/shm; best-of-3
would triple a 10-minute setup for a number whose validity the stamp
already adjudicates).

Run: RAY_GRAFT_CPUS=32 python scripts/sf1_maintenance_bench.py
Writes BENCH_sf1.json next to the repo's other bench artifacts.
"""
import json
import os
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_TURNS = int(os.environ.get("SF1_TURNS", str(100_000_000)))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ROOT = "/dev/shm/raylake_sf1_bench/table"


def _memcpy_probe(seconds: float = 0.5) -> float:
    import numpy as np

    a = np.empty(1 << 27, np.uint8)
    b = np.empty_like(a)
    np.copyto(b, a)
    t0 = time.monotonic()
    n = 0
    while time.monotonic() - t0 < seconds:
        np.copyto(b, a)
        n += 1
    return round(n * a.nbytes / (time.monotonic() - t0) / 1e9, 2)


class PeakSampler(threading.Thread):
    """Samples driver VmHWM and /dev/shm usage every 2 s."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop = threading.Event()
        self.peak_shm_gb = 0.0

    def run(self):
        while not self.stop.wait(2.0):
            st = os.statvfs("/dev/shm")
            used = (st.f_blocks - st.f_bfree) * st.f_frsize / 1e9
            self.peak_shm_gb = max(self.peak_shm_gb, used)

    @staticmethod
    def driver_hwm_gb() -> float:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM"):
                    return round(int(line.split()[1]) / 1e6, 2)
        return -1.0


def main():
    import ray

    probe_pre = _memcpy_probe()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)

    from bench import scan_rows
    from raylake.fixtures.transcripts import gen_late_from_meta_ds
    from raylake.pipelines.maintenance import (
        build_bench_table,
        run_maintenance,
    )

    sampler = PeakSampler()
    sampler.start()
    num_buckets = min(512, max(16, N_TURNS // 120_000))

    t0 = time.monotonic()
    table, sizes = build_bench_table(ROOT, N_TURNS,
                                     num_buckets=num_buckets)
    build_sec = round(time.monotonic() - t0, 1)
    t0 = time.monotonic()
    # distributed expansion, materialized into the OBJECT STORE (spills to
    # disk, never the driver heap): the prior driver-side generator held
    # 5.3M ~1KB Python strings and drove peak driver RSS to 16.5 GB
    # (r04 verdict item 2); the driver now holds only int64 key arrays.
    late = gen_late_from_meta_ds(sizes, update_frac=0.05, insert_frac=0.02,
                                 seed=7).materialize()
    late_sec = round(time.monotonic() - t0, 1)
    os.sync()
    scan_rows(table)  # warm

    # Metadata-tree coalescing on a REALISTIC fragmented tree (review
    # finding: the bulk-built fixture has ONE manifest, so timing the op
    # on it benchmarked a no-op). Synthesize the many-small-appends state
    # with the op's own force-regroup path (metadata-only, scan invariant
    # untouched), then time the real coalesce over all live entries.
    from raylake.ops import rewrite_manifests

    pre_manifests = {}
    n_entries = sum(1 for _ in table.live_entries(table.current_seq))
    frag_target = max(1, n_entries // 256)  # ~256 small manifests
    t = time.monotonic()
    rewrite_manifests(table, target_entries=frag_target, force=True,
                      min_manifests=1)  # 1-manifest tree: skip the early-out
    pre_manifests["manifest_fragment_sec"] = round(time.monotonic() - t, 3)
    n_manifests = len(table.snapshot().manifests)
    t = time.monotonic()
    snap = rewrite_manifests(table, min_manifests=2)
    pre_manifests["rewrite_manifests"] = round(time.monotonic() - t, 3)
    pre_manifests["manifests_before"] = n_manifests
    pre_manifests["manifests_after"] = (
        len(snap.manifests) if snap is not None else n_manifests)
    pre_manifests["manifest_entries"] = n_entries

    res = run_maintenance(table, late,
                          target_file_bytes=32 * 1024 * 1024)

    queries = {k: v["sec"] for k, v in res["stages"].items()}
    for k, v in res["stages"].items():
        queries[f"{k}_task_wall_s"] = v.get("task_wall_s", 0)
        queries[f"{k}_task_cpu_s"] = v.get("task_cpu_s", 0)
    queries.update(pre_manifests)

    # idempotence probe: post-maintenance the tree is already coalesced,
    # so a second call must be a fast no-op
    t = time.monotonic()
    snap2 = rewrite_manifests(table, min_manifests=2)
    queries["rewrite_manifests_noop"] = round(time.monotonic() - t, 3)
    queries["rewrite_manifests_noop_skipped"] = snap2 is None
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

    # fast delete: keys drawn from ONE partition's file (never a full scan
    # of a 100M-row table onto the driver)
    import pyarrow.parquet as pq

    e0 = table.live_entries()[0]
    keys = pq.read_table(os.path.join(table.root, e0.path),
                         columns=["conv_id", "turn_idx"]).slice(0, 2000)
    keys = keys.combine_chunks()
    t = time.monotonic()
    table.delete_by_keys(keys)
    queries["mor_delete_2k_keys"] = round(time.monotonic() - t, 3)

    sampler.stop.set()
    out = {
        "metric": "maintenance_compact_zorder_merge",
        "value": res["total_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": 1.0,
        "num_cpus": NUM_CPUS,
        "n_turns": N_TURNS,
        "scanned_rows": n_scan,
        "rewritten_rows": res["rewritten_rows"],
        "turns_per_sec": res["turns_per_sec"],
        "setup_sec": {"build_table": build_sec, "gen_late": late_sec},
        "peak_driver_rss_gb": PeakSampler.driver_hwm_gb(),
        "peak_shm_gb": round(sampler.peak_shm_gb, 1),
        "validity": {
            "memcpy_gbps_pre": probe_pre,
            "memcpy_gbps_post": _memcpy_probe(),
            "task_wall_total_s": round(sum(
                v.get("task_wall_s", 0) for v in res["stages"].values()), 1),
            "task_cpu_total_s": round(sum(
                v.get("task_cpu_s", 0) for v in res["stages"].values()), 1),
        },
    }
    shutil.rmtree(os.path.dirname(ROOT), ignore_errors=True)
    ray.shutdown()
    print(json.dumps(out))
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCH_sf1.json"), "w") as f:
        json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
