#!/usr/bin/env python3
"""CPU cost of launching a rewrite job's bins: a Ray Data job against plain
Ray tasks (`raylake.ops.rewrite.run_bins`).

Each launch starts `--bins` bins that do no work, the way a rewrite job
starts its packed bins, and is timed in CPU seconds of the whole process
group (this driver, the raylet and every Ray worker), so scheduling counts
wherever it happens. The Ray Data launch is the one rewrite jobs used
before: `from_items` of one JSON row per bin, `map_batches(batch_size=1,
batch_format="pandas", num_cpus=1)`, `take_all`. The two launchers
alternate, after a warm-up of each.

    python3 scripts/launcher_cost.py --num-cpus 1 --bins 2 --reps 12

Prints one JSON line: the median CPU and wall milliseconds of each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _noop_batch(batch, payload):
    return batch


def _noop_bin(items, payload):
    return len(items)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--num-cpus", type=int, default=1)
    ap.add_argument("--bins", type=int, default=2)
    ap.add_argument("--reps", type=int, default=12)
    args = ap.parse_args()
    if os.getpgrp() != os.getpid():
        os.setsid()  # the group is then this driver and the Ray processes

    os.environ.setdefault("PYTHONPATH", ROOT)  # for the Ray workers
    import ray
    import ray.data

    from perfbench.host import GroupClock
    from raylake.ops.rewrite import run_bins

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    bins = [[{"task_id": f"t{i}", "input_paths": []}] for i in range(args.bins)]
    payload = {"table_root": "/nonexistent", "params": {}}

    def ray_data():
        ray.data.from_items(
            [{"bin_json": json.dumps(b)} for b in bins]
        ).map_batches(_noop_batch, fn_kwargs={"payload": payload},
                      batch_size=1, batch_format="pandas",
                      num_cpus=1).take_all()

    def ray_tasks():
        run_bins(_noop_bin, bins, payload=payload)

    launchers = {"ray_data_job": ray_data, "ray_tasks": ray_tasks}
    got = {name: {"cpu_ms": [], "wall_ms": []} for name in launchers}
    clock = GroupClock()
    for rep in range(args.reps + 1):
        for name, launch in launchers.items():
            clock.start()
            t0 = time.perf_counter()
            launch()
            wall = time.perf_counter() - t0
            cpu = clock.stop()
            if rep:  # rep 0 warms up workers and imports
                got[name]["cpu_ms"].append(cpu * 1e3)
                got[name]["wall_ms"].append(wall * 1e3)
    ray.shutdown()
    print(json.dumps({
        "num_cpus": args.num_cpus, "bins": args.bins, "reps": args.reps,
        **{name: {k: round(statistics.median(v), 1) for k, v in g.items()}
           for name, g in got.items()}}))


if __name__ == "__main__":
    main()
