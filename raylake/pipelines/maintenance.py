"""The flagship pipeline: compact → Z-order → MERGE late turns (BASELINE.json
metric: maintenance throughput in turns/sec rewritten).

Mirrors the reference's end-to-end maintenance reliance on Iceberg (appends
accrue small files → rewrite_data_files → MERGE INTO late data, SURVEY §2.7,
§2.8) as one resumable Ray Data job sequence over a transcript table.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from raylake.core.schema import TRANSCRIPT_SCHEMA
from raylake.core.table import Table
from raylake.fixtures.transcripts import gen_late_batch, gen_transcripts
from raylake.ops import compact, merge_into, zorder
from raylake.ops.append import append


def build_bench_table(
    root: str,
    n_turns: int,
    num_buckets: int = 64,
    seed: int = 42,
    rows_per_file: int = 1024,
    conv_meta_override=None,
) -> tuple[Table, "object"]:
    """Create a fresh transcript table laid out as many small files (the
    compaction workload) via parallel Ray generation. Returns
    (table, conv_sizes). Setup only — not part of the timed pipeline.
    Deliberately fragmented input, exactly what an append-heavy bronze table
    looks like (ref: _bronze_handler.py:50-56). `conv_meta_override` feeds a
    custom (sizes, starts) layout, e.g. hotkey_conv_meta's skewed one."""
    from raylake.fixtures.transcripts import conv_meta, write_transcript_table_ray

    shutil.rmtree(root, ignore_errors=True)
    tbl = write_transcript_table_ray(
        root, n_turns, rows_per_file=rows_per_file, num_buckets=num_buckets,
        seed=seed, conv_meta_override=conv_meta_override,
    )
    sizes = (conv_meta_override[0] if conv_meta_override is not None
             else conv_meta(n_turns, seed)[0])
    return tbl, sizes


def run_maintenance(
    table: Table,
    late: pa.Table,
    target_file_bytes: int = 32 * 1024 * 1024,
    concurrency: int | None = None,
) -> dict:
    """compact → zorder → merge; returns per-stage seconds + rewritten rows."""
    out: dict = {"stages": {}}
    total_rewritten = 0
    t0 = time.monotonic()

    t = time.monotonic()
    s = compact(table, target_file_bytes=target_file_bytes, concurrency=concurrency)
    out["stages"]["compact"] = {
        "sec": round(time.monotonic() - t, 3),
        "rows": s.summary["rewritten_rows"] if s else 0,
        "files_removed": s.summary["removed_files"] if s else 0,
        "files_added": s.summary["added_files"] if s else 0,
        "task_wall_s": s.summary["task_wall_s"] if s else 0,
        "task_cpu_s": s.summary["task_cpu_s"] if s else 0,
    }
    total_rewritten += out["stages"]["compact"]["rows"]

    t = time.monotonic()
    s = zorder(table, target_file_bytes=target_file_bytes, concurrency=concurrency)
    out["stages"]["zorder"] = {
        "sec": round(time.monotonic() - t, 3),
        "rows": s.summary["rewritten_rows"] if s else 0,
        "task_wall_s": s.summary["task_wall_s"] if s else 0,
        "task_cpu_s": s.summary["task_cpu_s"] if s else 0,
    }
    total_rewritten += out["stages"]["zorder"]["rows"]

    t = time.monotonic()
    s = merge_into(table, late, target_file_bytes=target_file_bytes,
                   concurrency=concurrency)
    out["stages"]["merge"] = {
        "sec": round(time.monotonic() - t, 3),
        "rows": s.summary["rewritten_rows"] if s else 0,
        "skipped_tasks": s.summary["skipped_tasks"] if s else 0,
        "task_wall_s": s.summary["task_wall_s"] if s else 0,
        "task_cpu_s": s.summary["task_cpu_s"] if s else 0,
    }
    total_rewritten += out["stages"]["merge"]["rows"]

    out["total_sec"] = round(time.monotonic() - t0, 3)
    out["rewritten_rows"] = total_rewritten
    out["turns_per_sec"] = round(total_rewritten / max(1e-9, out["total_sec"]), 1)
    return out
