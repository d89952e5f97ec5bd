#!/usr/bin/env python3
"""Wall time of `Table.scan` against `ray.data.read_parquet` over the same
clean files.

Builds a table of each perfbench workload's shape (`perfbench/workloads.py`:
`ingest`, 10k digest turns in 32-row files over 16 buckets; `maintain`,
200k prose turns in 1024-row files over 4 buckets), with no delete and no
schema change, so both readers read the same files. Each reader runs three
ways: whole rows, projected to `conv_id, turn_idx`, and `count()`. Rows are
collected with `to_arrow_refs` and `ray.get`. The readers of each
measurement alternate round by round, after one warm-up round that checks
every result against `Table.scan_arrow`.

    python3 scripts/scan_cost.py --num-cpus 1 --rounds 11

Prints one JSON line per workload: the median wall milliseconds of each
reader and way, with the quartiles.
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

KEYS = ["conv_id", "turn_idx"]


def build(root: str, workload: str):
    """A committed table of `workload`'s set-up shape, as perfbench
    writes it: each bucket's turns cut into files of `rows_per_file`."""
    import numpy as np
    import pyarrow as pa

    from perfbench.gen import Gen
    from perfbench.workloads import WORKLOADS
    from raylake import TRANSCRIPT_SCHEMA, Table
    from raylake.core.hashing import partition_of

    cfg = WORKLOADS[workload]
    data = Gen(0, cfg.text, cfg.max_text, cfg.buckets).conversations(
        0, cfg.turns, cfg.max_conv)
    tbl = Table.create(root, TRANSCRIPT_SCHEMA, partition_column="conv_id",
                       num_buckets=cfg.buckets)
    part = partition_of(data["conv_id"], cfg.buckets)
    order = np.argsort(part, kind="stable")
    data, part = data.take(pa.array(order)), part[order]
    entries = []
    for p in np.unique(part):
        lo, hi = np.searchsorted(part, [p, p + 1])
        for off in range(lo, hi, cfg.rows_per_file):
            entries.append(tbl.write_file(
                data.slice(off, min(cfg.rows_per_file, hi - off)), int(p)))
    tbl.commit("append", entries)
    return tbl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--num-cpus", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--workloads", nargs="+", default=["ingest", "maintain"])
    args = ap.parse_args()

    os.environ.setdefault("PYTHONPATH", ROOT)  # for the Ray workers
    import logging

    import pyarrow as pa
    import ray
    import ray.data

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    def rows(ds) -> pa.Table:
        return pa.concat_tables(ray.get(ds.to_arrow_refs()))

    scratch = tempfile.mkdtemp(prefix="scan_cost_",
                               dir="/dev/shm" if os.path.isdir("/dev/shm")
                               else None)
    try:
        for workload in args.workloads:
            tbl = build(os.path.join(scratch, workload), workload)
            paths = [os.path.join(tbl.root, e.path)
                     for e in tbl.live_entries()]
            # partitioning=None: the data/p=<bucket>/ directories must not
            # become a hive column; Ray fails on it with a column list
            runs = {
                "scan": lambda: rows(tbl.scan()),
                "read_parquet": lambda: rows(ray.data.read_parquet(
                    paths, partitioning=None)),
                "scan_keys": lambda: rows(tbl.scan(columns=KEYS)),
                "read_parquet_keys": lambda: rows(ray.data.read_parquet(
                    paths, columns=KEYS)),
                "scan_count": lambda: tbl.scan().count(),
                "read_parquet_count": lambda: ray.data.read_parquet(
                    paths, partitioning=None).count(),
            }
            want = tbl.scan_arrow(sort=True)
            sort = [(c, "ascending") for c in KEYS]
            for name, run in runs.items():  # warm-up round, checked
                got = run()
                ok = (got == len(want) if name.endswith("count") else
                      got.sort_by(sort).equals(
                          want.select(got.column_names)))
                if not ok:
                    raise SystemExit(f"{workload} {name}: wrong result")
            wall = {name: [] for name in runs}
            for _ in range(args.rounds):
                for name, run in runs.items():
                    t0 = time.perf_counter()
                    run()
                    wall[name].append((time.perf_counter() - t0) * 1e3)
            out = {}
            for name, v in wall.items():
                q1, med, q3 = statistics.quantiles(v, n=4)
                out[name] = {"median_ms": round(med, 1),
                             "q1_ms": round(q1, 1), "q3_ms": round(q3, 1)}
            print(json.dumps({
                "workload": workload, "num_cpus": args.num_cpus,
                "rounds": args.rounds, "files": len(paths),
                "rows": len(want), "wall": out}), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()


if __name__ == "__main__":
    main()
