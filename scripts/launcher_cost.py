#!/usr/bin/env python3
"""CPU cost of launching a rewrite job's bins, and of writing one append
batch, in the driver, as plain Ray tasks (`raylake.ops.rewrite.run_bins`)
and as a Ray Data job.

Every launch is timed in CPU seconds of the whole process group (this
driver, the raylet and every Ray worker), so scheduling counts wherever it
happens. The launchers of each measurement alternate, after a warm-up of
each.

- `empty_bins`: `--bins` bins that do no work, the way a rewrite job
  starts its packed bins. The Ray Data launch is the one rewrite jobs used
  before: `from_items` of one JSON row per bin, `map_batches(batch_size=1,
  batch_format="pandas", num_cpus=1)`, `take_all`.
- `append_bin`: one `append_batch` of 200 new turns of perfbench's
  `ingest` digest text, in 45 conversations of up to 6 turns, so that
  every one of a scratch table's 16 buckets gets a file (never committed;
  perfbench's own appends put 200 turns in about 6 conversations). The
  Ray Data job is the one `append` ran for an in-memory table before
  (`from_arrow`, `map_batches`, `take_all`).

    python3 scripts/launcher_cost.py --num-cpus 1 --bins 2 --reps 12

Prints one JSON line: the median CPU and wall milliseconds of each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
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
    import numpy as np
    import ray
    import ray.data

    from perfbench.gen import Gen
    from perfbench.host import GroupClock
    from raylake import TRANSCRIPT_SCHEMA, Table
    from raylake.core.hashing import partition_of
    from raylake.ops.append import append_batch
    from raylake.ops.rewrite import run_bins, write_batches

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    clock = GroupClock()

    def timed(launchers):
        got = {name: {"cpu_ms": [], "wall_ms": []} for name in launchers}
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
        return {name: {k: round(statistics.median(v), 1)
                       for k, v in g.items()} for name, g in got.items()}

    bins = [[{"task_id": f"t{i}", "input_paths": []}] for i in range(args.bins)]
    payload = {"table_root": "/nonexistent", "params": {}}
    empty = timed({
        "ray_data_job": lambda: ray.data.from_items(
            [{"bin_json": json.dumps(b)} for b in bins]
        ).map_batches(_noop_batch, fn_kwargs={"payload": payload},
                      batch_size=1, batch_format="pandas",
                      num_cpus=1).take_all(),
        "ray_tasks": lambda: run_bins(_noop_bin, bins, payload=payload),
    })

    scratch = tempfile.mkdtemp(prefix="launcher_cost_")
    try:
        root = Table.create(os.path.join(scratch, "tbl"), TRANSCRIPT_SCHEMA,
                            num_buckets=16).root
        rows = Gen(0, "digest", 2000, 16).conversations(1 << 20, 200, 6)
        appended = timed({
            "driver": lambda: write_batches(append_batch, rows,
                                            table_root=root),
            "ray_task": lambda: run_bins(append_batch, [rows],
                                         table_root=root),
            "ray_data_job": lambda: write_batches(
                append_batch, ray.data.from_arrow(rows),
                batch_size=len(rows), table_root=root),
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ray.shutdown()
    print(json.dumps({
        "num_cpus": args.num_cpus, "bins": args.bins, "reps": args.reps,
        "empty_bins": empty,
        "append_bin": {"turns": len(rows), "files": len(np.unique(
            partition_of(rows["conv_id"], 16))), **appended}}))


if __name__ == "__main__":
    main()
