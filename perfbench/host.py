"""Host facts stamped on every run: CPU count, busy CPU from /proc/stat,
peak RSS of this process, a memcpy bandwidth probe and package versions;
the process-group CPU clock the operations are timed with, and the
reference job that gauges the host's speed."""

from __future__ import annotations

import os
import platform
import time

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """Processing units as GNU `nproc` counts them: OMP_NUM_THREADS when
    set, else the CPUs this process may run on."""
    try:
        return max(1, int(os.environ["OMP_NUM_THREADS"]))
    except (KeyError, ValueError):
        return len(os.sched_getaffinity(0))


def group_pids() -> list[int]:
    """Live processes in this process group: the benchmark driver and every
    Ray process it started."""
    pgid, out = os.getpgrp(), []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(d))
    return out


def process_cpu_s(pid: int) -> float | None:
    """CPU seconds of all threads of process `pid`, in nanosecond steps,
    from its CPUCLOCK_SCHED clock (the clockid glibc's clock_getcpuclockid
    builds). The kernel leaves time stolen by the hypervisor out of it."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return None  # exited


def group_cpu(pids: list[int]) -> dict[int, float]:
    out = {}
    for pid in pids:
        c = process_cpu_s(pid)
        if c is not None:
            out[pid] = c
    return out


class GroupClock:
    """CPU seconds the process group spends between `start` and `stop`.

    Summed over the driver and every Ray process, so Ray Data's dispatch,
    the raylet and the tasks all count. Work does not change with how much
    of the host other tenants take, unlike wall time. A process that
    starts in between counts from zero; one that exits in between is lost.
    The /proc scans run before the first and after the last reading, so
    they stay out of the interval."""

    def start(self) -> None:
        self._pids = group_pids()
        self._t0 = group_cpu(self._pids)

    def stop(self) -> float:
        t1 = group_cpu(self._pids)
        new = [p for p in group_pids() if p not in t1]
        t1.update(group_cpu(new))
        return sum(c - self._t0.get(p, 0.0) for p, c in t1.items())


def group_cpu_s() -> float:
    """CPU seconds of the live processes in this process group."""
    return sum(group_cpu(group_pids()).values())


def cpu_times() -> tuple[float, float]:
    """Machine-wide busy CPU seconds (user+nice+system+irq+softirq) and
    the seconds the hypervisor stole from this machine's CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / _TICK, v[7] / _TICK


def reset_peak_rss() -> None:
    """Restart the kernel's VmHWM high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers the process lifetime instead


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def memcpy_gbps(seconds: float = 0.3) -> float:
    """Single-thread copy bandwidth of a 64 MiB buffer: a contention stamp
    for the host, independent of the program."""
    a = np.ones(1 << 26, np.uint8)
    b = np.empty_like(a)
    np.copyto(b, a)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.copyto(b, a)
        n += 1
    return n * a.nbytes / (time.perf_counter() - t0) / 1e9


def versions() -> dict:
    import pandas
    import pyarrow
    import ray

    import raylake

    return {"python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": np.__version__,
            "pandas": pandas.__version__, "raylake": raylake.__version__}


def _ref_task(batch):
    import pyarrow as pa
    import pyarrow.parquet as pq

    b = batch.sort_by([("text", "ascending")])
    sink = pa.BufferOutputStream()
    pq.write_table(b, sink, compression="zstd")
    back = pq.read_table(pa.BufferReader(sink.getvalue()), use_threads=False)
    return pa.table({"rows": [len(back)]})


class Reference:
    """A fixed Ray Data job that shares no code with raylake: four blocks
    of 5000 prose turns put in the object store, each sorted, encoded to
    Parquet (zstd) and decoded in a Ray task. Timed like the operations, in
    CPU seconds of the process group.

    Only the host moves it: how much of the memory bandwidth, the caches
    and the hyperthread siblings other tenants take. Those move the CPU
    time of every operation by up to a third between runs of the same
    code, and move this job with them."""

    def __init__(self):
        from perfbench import gen as G

        data = G.Gen(0, "prose", 500).conversations(0, 20000, 50)
        self.blocks = [data.slice(i * 5000, 5000) for i in range(4)]
        self.clock = GroupClock()

    def run(self) -> float:
        import ray.data

        self.clock.start()
        ray.data.from_arrow(self.blocks).map_batches(
            _ref_task, batch_format="pyarrow", batch_size=None).materialize()
        return self.clock.stop()
