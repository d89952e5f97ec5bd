"""Per-layer numbers of a traced run: self time per layer for each
operation kind, and the counters each layer boundary recorded.

For an operation span the layers are the wrapped driver-side calls under
it, each counted by self time so nested calls are not counted twice:

- ``plan``: the op's plan function (manifest walk excluded);
- ``metadata``: `Table.live_entries`, the manifest walk;
- ``prune``: `Table.prune_point` (manifest walk excluded);
- ``commit``: `Table.commit` (manifest walk excluded);
- ``task``: Σ rewrite-task wall time from the commit's snapshot summary;
- ``dispatch``: what is left of the op's wall time. For a rewrite op this
  is Ray Data scheduling plus driver glue (ledger reads, staging); for a
  driver-only op (delete, lookup, scan) it is the op's own driver work.

The parts add up to the op's wall time by construction; the tracing
overhead (span bookkeeping, measured) is reported beside them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYER_OF = {
    "core.metadata.live_entries": "metadata",
    "core.table.prune_point": "prune",
    "core.table.commit": "commit",
}
PARTS = ("plan", "metadata", "prune", "commit", "task", "dispatch")


def _layer(name: str) -> str | None:
    if name.startswith("ops.") and ".plan" in name:
        return "plan"
    return LAYER_OF.get(name)


def op_breakdowns(tracer) -> dict[str, list[dict]]:
    """Per operation call: its wall time split into PARTS."""
    selft = tracer.self_times()
    out: dict[str, list[dict]] = defaultdict(list)
    for sp in tracer.spans:
        if not sp.name.startswith("op."):
            continue
        parts = dict.fromkeys(PARTS, 0.0)
        for d in tracer.descendants(sp.id):
            layer = _layer(d.name)
            if layer is not None:
                parts[layer] += selft[d.id]
        task = float(sp.counts.get("task_wall_s", 0.0))
        parts["task"] = task
        parts["dispatch"] = selft[sp.id] - task
        parts["wall"] = sp.end - sp.start
        out[sp.name[3:]].append(parts)
    return out


def layer_table(tracer) -> dict:
    """Median per call of every part, per operation kind."""
    table = {}
    for op, calls in sorted(op_breakdowns(tracer).items()):
        row = {"n": len(calls)}
        for k in PARTS + ("wall",):
            row[f"{k}_s"] = statistics.median(c[k] for c in calls)
        row["sum_wall_s"] = sum(c["wall"] for c in calls)
        table[op] = row
    table["_trace"] = {"overhead_s": tracer.overhead_s,
                       "spans": len(tracer.spans)}
    return table


# per-layer metric name → (op kind, part) for the self-time table
BREAKDOWN_METRICS = {
    f"layer.{op}.{part}_s": (op, part)
    for op, parts in {
        "compact": ("plan", "metadata", "commit", "task", "dispatch"),
        "zorder": ("plan", "metadata", "commit", "task", "dispatch"),
        "merge": ("plan", "metadata", "commit", "task", "dispatch"),
        "upsert": ("plan", "metadata", "commit", "task", "dispatch"),
        "purge": ("plan", "metadata", "commit", "task", "dispatch"),
        "append": ("commit", "dispatch"),
        "delete": ("commit", "dispatch"),
        "lookup": ("prune", "metadata", "dispatch"),
        "scan": ("metadata", "dispatch"),
    }.items()
    for part in parts
}


def _spans_under_ops(tracer):
    """(op kind, span) for spans with an op span among their ancestors."""
    op_of: dict[int, str | None] = {}
    for sp in tracer.spans:  # parents precede children
        parent = tracer.spans[sp.parent] if sp.parent is not None else None
        if parent is None:
            op_of[sp.id] = None
        elif parent.name.startswith("op."):
            op_of[sp.id] = parent.name[3:]
        else:
            op_of[sp.id] = op_of[parent.id]
        if op_of[sp.id] is not None:
            yield op_of[sp.id], sp


def layer_metrics(tracer, rec, memcpy_pre: float, memcpy_post: float
                  ) -> dict:
    med = statistics.median
    s = rec.samples
    iters = len(s["setup"])
    by_name = defaultdict(list)
    for op, sp in _spans_under_ops(tracer):
        by_name[sp.name].append(sp)
        by_name[(op, sp.name)].append(sp)

    def dur_ms(name):
        return med((x.end - x.start) * 1e3 for x in by_name[name])

    def count(name, key, agg=med):
        return agg(x.counts.get(key, 0) for x in by_name[name])

    def summed(ops, key):
        """Σ over the listed ops' snapshot summaries, per iteration."""
        return sum(sm.get(key, 0) for op in ops
                   for sm in rec.summaries[op]) / iters

    rewrite_ops = ("compact", "zorder", "merge", "upsert", "purge")
    breakdown = op_breakdowns(tracer)
    v = {
        "setup.gen_s": (med(s["setup.gen"]), "s"),
        "setup.write_s": (med(s["setup.write"]), "s"),
        "setup.commit_s": (med(s["setup.commit"]), "s"),
        "core.metadata.live_entries_ms": (
            dur_ms("core.metadata.live_entries"), "ms"),
        "core.metadata.entries": (
            count("core.metadata.live_entries", "entries"), "count"),
        "core.metadata.manifests": (
            count("core.metadata.live_entries", "manifests"), "count"),
        "core.metadata.calls": (
            len(by_name["core.metadata.live_entries"]) / iters, "count"),
        "core.table.prune_point_ms": (dur_ms("core.table.prune_point"),
                                      "ms"),
        "core.table.files_read": (med(s["lookup.files_read"]), "count"),
        "core.table.files_total": (med(s["lookup.files_total"]), "count"),
        "core.table.useful_ratio": (
            sum(s["lookup.files_useful"]) / sum(s["lookup.files_read"]),
            "ratio"),
        "core.table.commit_ms": (dur_ms("core.table.commit"), "ms"),
        "core.table.commits": (
            len(by_name["core.table.commit"]) / iters, "count"),
        "core.table.conflicts": (
            count("core.table.commit", "conflicts", sum), "count"),
        "core.deletes.live_delete_files": (
            med(s["deletes.live_delete_files"]), "count"),
        "core.deletes.delete_rows": (med(s["deletes.delete_rows"]), "count"),
        "dispatch.s": (sum(c["dispatch"] for op in rewrite_ops
                           for c in breakdown[op]) / iters, "s"),
        "dispatch.tasks": (summed(rewrite_ops, "tasks"), "count"),
        "rewrite.task_wall_s": (summed(rewrite_ops, "task_wall_s"), "s"),
        "rewrite.rows": (summed(rewrite_ops, "rewritten_rows"), "count"),
        "rewrite.bytes_written": (summed(rewrite_ops, "rewritten_bytes"),
                                  "B"),
        "rewrite.tasks": (summed(rewrite_ops, "tasks"), "count"),
        "rewrite.skipped_tasks": (summed(rewrite_ops, "skipped_tasks"),
                                  "count"),
        "ops.merge.staged_rows_read": (
            summed(("merge",), "staged_rows_read"), "count"),
        "ops.merge.staged_rows_used": (
            summed(("merge",), "staged_rows_used"), "count"),
        "ops.expire.snapshots_expired": (
            med(s["expire.snapshots_expired"]), "count"),
        "ops.expire.files_deleted": (med(s["expire.files_deleted"]),
                                     "count"),
        "ops.expire.bytes_freed": (med(s["expire.bytes_freed"]), "B"),
        "host.memcpy_gbps_pre": (memcpy_pre, "GB/s"),
        "host.memcpy_gbps_post": (memcpy_post, "GB/s"),
        "host.cpu_busy_s": (rec.cpu_busy_s, "s"),
        "host.timed_wall_s": (rec.timed_wall_s, "s"),
        "host.reference_cpu_s": (med(s["ref"]), "s"),
        "trace.overhead_s": (tracer.overhead_s, "s"),
        "trace.overhead_pct": (
            100 * tracer.overhead_s / rec.timed_wall_s, "%"),
    }
    for op, plan in (("compact", "ops.compact.plan_compaction"),
                     ("zorder", "ops.zorder.plan_zorder"),
                     ("merge", "ops.merge.plan_merge"),
                     ("purge", "ops.deletes.plan_apply_deletes")):
        prefix, short = plan.rsplit(".", 1)
        key = (op, plan)
        v[f"{prefix}.{short}_ms"] = (dur_ms(key), "ms")
        v[f"{prefix}.tasks"] = (count(key, "tasks"), "count")
        v[f"{prefix}.input_files"] = (count(key, "input_files"), "count")
    probe = s["probe"]
    for key, name, unit in (("read_MBps", "parquet.read_MBps", "MB/s"),
                            ("sort_ms", "transform.sort_ms", "ms"),
                            ("lww_ms", "transform.lww_ms", "ms"),
                            ("stats_ms", "stats.ms", "ms"),
                            ("write_MBps", "parquet.write_MBps", "MB/s")):
        v[name] = (med(p[key] for p in probe), unit)
    for name, (op, part) in BREAKDOWN_METRICS.items():
        v[name] = (med(c[part] for c in breakdown[op]), "s")
    # op walls of the traced run, to hold against the untraced run's; the
    # delete and expire latencies are mostly fsync on the checkout's disk,
    # too noisy between runs for an end-to-end bound, so they live here
    for op in ("compact", "zorder", "merge", "upsert", "purge", "append",
               "delete", "expire", "lookup", "scan"):
        v[f"trace.{op}_wall_s"] = (med(c["wall"] for c in breakdown[op]),
                                   "s")
    return {k: {"value": float(val), "unit": u} for k, (val, u) in v.items()}
