#!/usr/bin/env python3
"""Layered maintain/ingest benchmark for raylake.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maintain --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is ``{"detail": ...}``: percentiles with sample counts,
host facts, failures and, when traced, the per-operation layer table.

This file is a supervisor. It runs perfbench/bench.py in its own process
group under a hard time limit; on a hang it kills the whole group (the
benchmark and every Ray process it started), waits for them to end, removes
the run's tables and exits non-zero without printing a result. Tables, Ray's
session files and trace files stay inside the checkout, in .perfbench_tmp/
and .rt/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 150.0
# Ray's AF_UNIX socket paths (<temp>/session_<stamp>_<pid>/sockets/
# plasma_store) must stay under 108 bytes
RAY_SOCKET_SUFFIX = 64  # with a 7-digit pid


def _group_alive(pgid: int) -> list[int]:
    """PIDs whose process group is `pgid` (read from /proc)."""
    alive = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            alive.append(int(d))
    return alive


def _reap_group(pgid: int, grace_s: float) -> None:
    """Wait up to `grace_s` for the group to exit, then SIGKILL it and wait
    until every member has ended."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.2)
    while _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.2)


def _ray_sessions(ray_temp: str | None) -> set[str]:
    if ray_temp is None or not os.path.isdir(ray_temp):
        return set()
    return {d for d in os.listdir(ray_temp) if d.startswith("session_2")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    ray_temp = os.path.join(ROOT, ".rt")
    if len(ray_temp) + RAY_SOCKET_SUFFIX > 107:
        ray_temp = None  # checkout path too long: Ray's default temp dir
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if ray_temp:
        cmd += ["--ray-temp", ray_temp]
    os.makedirs(workdir, exist_ok=True)
    sessions = _ray_sessions(ray_temp)

    def on_term(signum, frame):
        raise KeyboardInterrupt  # so the group is killed and reaped below
    signal.signal(signal.SIGTERM, on_term)
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {HARD_LIMIT_S:.0f} s; killed",
              file=sys.stderr)
        code = 124
    except KeyboardInterrupt:
        code = 130
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        _reap_group(child.pid, grace_s=10.0)
        shutil.rmtree(os.path.join(workdir, "tables"), ignore_errors=True)
    if code == 0:  # keep Ray's logs of a failed run only
        for s in _ray_sessions(ray_temp) - sessions:
            shutil.rmtree(os.path.join(ray_temp, s), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
