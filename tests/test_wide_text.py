"""Wide-`text` byte-budget proof (SURVEY §7 hard part; r04 verdict #8).

Ray's map_batches coalesces to a ROW count, so writer-side stages sized in
rows would put gigabytes into one worker heap when turns are 100 KB+. The
writer paths (append, partition overwrite, merge staging) now size
batches by a byte budget (ops/rewrite.byte_capped_batch_size). These tests
build a 120 KB-turn fixture and pin: the cap math, bounded
rows-per-written-file through append and overwrite, bit-for-bit
maintenance over wide rows, and the unchanged default-width behavior."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from raylake.core.schema import TRANSCRIPT_SCHEMA
from raylake.core.table import Table
from raylake.ops import compact, merge_into, overwrite_partitions
from raylake.ops.append import append
from raylake.ops.rewrite import byte_capped_batch_size

TEXT_BYTES = 120_000


def _wide_table(n_rows: int = 300, n_convs: int = 10) -> pa.Table:
    """n_rows transcript turns with deterministic ~120 KB texts."""
    conv = [f"conv-{i % n_convs:08d}" for i in range(n_rows)]
    turn = [i // n_convs for i in range(n_rows)]
    text = [(f"{c}:{t}:" + "x" * TEXT_BYTES)[:TEXT_BYTES]
            for c, t in zip(conv, turn)]
    return pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int32()),
        "role": pa.array(["user"] * n_rows),
        "text": pa.array(text, pa.string()),
        "tool": pa.array([None] * n_rows, pa.string()),
        "ts": pa.array(
            np.arange(n_rows, dtype=np.int64) * 1_000_000,
            pa.timestamp("us")),
    }).cast(TRANSCRIPT_SCHEMA)


def test_byte_cap_scales_with_row_width(ray_session):
    wide = _wide_table(64)
    cap = byte_capped_batch_size(wide)
    assert 1 <= cap <= (64 << 20) // TEXT_BYTES + 1  # ~546 at 120 KB rows
    narrow = pa.table({"text": pa.array(["x" * 100] * 64)})
    assert byte_capped_batch_size(narrow) == 64 * 1024  # default unchanged
    assert byte_capped_batch_size(pa.table(
        {"text": pa.array([], pa.string())})) == 64 * 1024

    import ray.data
    ds = ray.data.from_arrow(wide)
    cap_ds = byte_capped_batch_size(ds)
    assert 1 <= cap_ds <= (64 << 20) // TEXT_BYTES + 1


def test_wide_append_bounds_rows_per_file(tmp_table_root, ray_session):
    t = Table.create(tmp_table_root, TRANSCRIPT_SCHEMA, num_buckets=2)
    wide = _wide_table(300)
    # tight budget so the bound is exercised hard even at this fixture size
    import raylake.ops.append as ap
    from raylake.ops.rewrite import byte_capped_batch_size as bc
    cap = bc(wide, budget_bytes=8 << 20)  # ~69 rows
    append(t, wide, batch_size=cap)
    entries = t.live_entries()
    assert max(e.rows for e in entries) <= cap
    # every batch (→ every written file) stayed under ~budget + slack
    assert max(e.rows for e in entries) * TEXT_BYTES <= (8 << 20) * 1.5
    got = t.scan_arrow(sort=True)
    assert got.equals(wide.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]))


def test_wide_overwrite_bounds_rows_per_file(tmp_table_root, ray_session):
    """With its default batch size, a 72 MB overwrite into one bucket is
    cut at the 64 MiB byte budget: no file holds more rows than
    `byte_capped_batch_size` allows."""
    t = Table.create(tmp_table_root, TRANSCRIPT_SCHEMA, num_buckets=1)
    wide = _wide_table(600, n_convs=20)
    cap = byte_capped_batch_size(wide)
    assert cap < len(wide)
    snap = overwrite_partitions(t, wide)
    assert snap.summary["overwritten_partitions"] == [0]
    assert max(e.rows for e in t.live_entries()) <= cap
    assert t.scan_arrow(sort=True).equals(wide.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]))


def test_wide_maintenance_bit_for_bit(tmp_table_root, ray_session):
    t = Table.create(tmp_table_root, TRANSCRIPT_SCHEMA, num_buckets=2)
    wide = _wide_table(240)
    append(t, wide)
    pre = t.scan_arrow(sort=True)
    snap = compact(t, target_file_bytes=4 << 20, concurrency=2)
    if snap is not None:  # cut into ~35-row files; scan unchanged
        assert max(e.rows for e in t.live_entries()) * TEXT_BYTES \
            <= (4 << 20) * 2
    assert t.scan_arrow(sort=True).equals(pre)

    # wide late rows flow through byte-budgeted merge staging
    late = pre.slice(0, 5).set_column(
        3, "text", pa.array([("late:" + "y" * TEXT_BYTES)[:TEXT_BYTES]] * 5))
    late = late.set_column(
        5, "ts", pc.add(pre.slice(0, 5)["ts"],
                        pa.scalar(10**9, pa.int64()).cast(pa.duration("us"))))
    snap = merge_into(t, late, concurrency=2)
    assert snap is not None
    post = t.scan_arrow(sort=True)
    assert len(post) == len(pre)
    merged = post.slice(0, 5)["text"].to_pylist()
    assert all(s.startswith("late:") for s in merged)
