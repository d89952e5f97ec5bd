"""One benchmark run in this process: start Ray, run the workload's
iterations, check every output, print the detail lines and, last, the
result line. `perfbench/run.py` runs this file under a hard time limit.

    python3 perfbench/bench.py --workload maintain --seed 1 --seconds 30 \
        --trace 0 --workdir .perfbench_tmp/run-1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return float(xs[max(0, min(len(xs) - 1, round(p / 100 * len(xs)) - 1))])


def percentile_report(xs: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs) if xs else None}
    for p in (99.9, 99, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = percentile(xs, p)
            break
    return out


def med(xs) -> float:
    return float(statistics.median(xs))


# CPU seconds are scaled to a host on which one reference reading
# (`host.Reference`) costs this much
REF_NOMINAL_S = 0.25


def end_to_end(rec) -> dict:
    """Set-up is wall time. Every operation is measured in CPU seconds of
    the whole process group (driver, raylet, Ray workers), scaled to the
    nominal host speed: × REF_NOMINAL_S / the run's median reference
    reading. CPU time leaves out what other tenants take by time-slicing
    and stealing; the scaling takes out what they slow down by sharing
    caches, memory bandwidth and hyperthreads. The raw wall and CPU times
    are in the detail line."""
    s = rec.samples
    scale = REF_NOMINAL_S / med(s["ref"])
    v = {
        "setup_s": (med(s["setup"]), "s"),
        "maintain_turns_per_cpu_s": (
            med(s["maintain_turns_per_cpu_s"]) / scale, "1/s"),
        "compact_cpu_s": (med(s["compact.cpu"]) * scale, "s"),
        "zorder_cpu_s": (med(s["zorder.cpu"]) * scale, "s"),
        "merge_cpu_s": (med(s["merge.cpu"]) * scale, "s"),
        "scan_turns_per_cpu_s": (
            med(s["scan_turns_per_cpu_s"]) / scale, "1/s"),
        "lookup_cpu_p50_ms": (med(s["lookup.cpu"]) * scale * 1e3, "ms"),
        "lookup_cpu_p90_ms": (
            percentile(s["lookup.cpu"], 90) * scale * 1e3, "ms"),
        "stored_bytes_per_turn": (med(s["stored_bytes_per_turn"]), "B"),
        "driver_peak_rss_mb": (med(s["peak_rss_mb"]), "MB"),
        "upsert_cpu_p50_ms": (med(s["upsert.cpu"]) * scale * 1e3, "ms"),
        "append_cpu_p50_ms": (med(s["append.cpu"]) * scale * 1e3, "ms"),
        "purge_cpu_s": (med(s["purge.cpu"]) * scale, "s"),
    }
    return {k: {"value": val, "unit": u} for k, (val, u) in v.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--ray-temp", default=None)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "raylake")):
        print(f"perfbench: no raylake package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import raylake too and inherit the environment, not
    # sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    from perfbench import host
    from perfbench.layers import layer_metrics, layer_table
    from perfbench.trace import Tracer, install_wrappers, uninstall_wrappers
    from perfbench.workloads import (
        ITERATIONS, WORKLOADS, Iteration, OpFailed, Recorder)
    from perfbench import gen as G

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    cfg = WORKLOADS[args.workload]

    import ray

    import pyarrow as pa

    memcpy_pre = host.memcpy_gbps()
    nproc = host.nproc()
    pa.set_cpu_count(nproc)  # the driver's Arrow pool gets what Ray gets
    tables = os.path.join(args.workdir, "tables")
    os.makedirs(tables, exist_ok=True)
    init_kw = dict(num_cpus=nproc, include_dashboard=False,
                   logging_level="ERROR", log_to_driver=False,
                   object_store_memory=512 << 20)
    if args.ray_temp:
        init_kw["_temp_dir"] = args.ray_temp
    tracer = Tracer(bool(args.trace))
    rec = Recorder(tracer)
    undo = []
    iterations = 0
    t_start = time.perf_counter()
    try:
        ray.init(**init_kw)
        import logging

        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ray_cpus = ray.cluster_resources().get("CPU")
        if args.trace:
            undo = install_wrappers(tracer)
        gen = G.Gen(args.seed, cfg.text, cfg.max_text, cfg.buckets)
        own_cpu0 = host.group_cpu_s()
        while (iterations < ITERATIONS
               or rec.timed_wall_s < args.seconds):
            root = os.path.join(tables, f"it{iterations}")
            it = Iteration(cfg, rec, gen, root)
            rec.iter_peak_mb, rec.iter_peak_op = 0.0, None
            try:
                with tracer.span(f"iteration.{iterations}"):
                    it.run(args.workload)
            except OpFailed:
                pass  # recorded with its exception type by the recorder
            except Exception as e:  # a bench-side step raised: still a failure
                rec.failures.append({"op": "iteration",
                                     "type": type(e).__name__,
                                     "msg": str(e)[:300]})
            finally:
                del it
                gc.collect()  # the last table's objects go before the next
                shutil.rmtree(root, ignore_errors=True)
            rec.samples["peak_rss_mb"].append(rec.iter_peak_mb)
            rec.samples["peak_rss_op"].append(rec.iter_peak_op)
            iterations += 1
            if rec.failures:
                break
        own_cpu = host.group_cpu_s() - own_cpu0
    finally:
        uninstall_wrappers(undo)
        shutil.rmtree(tables, ignore_errors=True)
        ray.shutdown()
    run_wall = time.perf_counter() - t_start
    memcpy_post = host.memcpy_gbps()

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": iterations, "run_wall_s": run_wall,
        "config": cfg.__dict__,
        "host": {"nproc": nproc, "ray_num_cpus": ray_cpus,
                 "cpus_online": os.cpu_count(),
                 "arrow_cpu_count": pa.cpu_count(),
                 "own_cpu_s": own_cpu,
                 "versions": host.versions(),
                 "memcpy_gbps_pre": memcpy_pre,
                 "memcpy_gbps_post": memcpy_post,
                 "timed_wall_s": rec.timed_wall_s,
                 "reference_cpu_s": percentile_report(rec.samples["ref"]),
                 "timed_machine_cpu_busy_s": rec.cpu_busy_s,
                 "timed_machine_cpu_steal_s": rec.cpu_steal_s,
                 "ray_temp_dir": args.ray_temp or "ray default"},
        "timings_ms": {k: percentile_report([x * 1e3 for x in v])
                       for k, v in sorted(rec.samples.items())
                       if k.removesuffix(".cpu") in ("setup", "compact", "zorder", "merge",
                                "scan", "lookup", "upsert", "append",
                                "delete", "purge", "expire", "time_travel",
                                "changes")},
        "peak_rss_mb": list(zip(rec.samples["peak_rss_mb"],
                                rec.samples["peak_rss_op"])),
        "failures": rec.failures,
        "cpu_samples_s": {k: v for k, v in rec.samples.items()
                          if k == "ref" or k.endswith(".cpu")},
    }
    ok = not rec.failures
    if args.trace:
        layers = layer_table(tracer)
        detail["layers"] = layers
        path = os.path.join(args.workdir,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"spans": [s.to_json() for s in tracer.spans],
                       "layers": layers}, f)
        detail["trace_file"] = path
    print(json.dumps({"detail": detail}, default=str), flush=True)
    metrics = {}
    if ok:
        if args.trace:
            metrics = layer_metrics(tracer, rec, memcpy_pre, memcpy_post)
        else:
            metrics = end_to_end(rec)
    print(json.dumps({"correct": ok, "attempted": rec.attempted,
                      "failed": len(rec.failures), "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
