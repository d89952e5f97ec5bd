"""Appends of in-memory Arrow tables (`ops/rewrite.py:write_batches`): one
byte-capped batch is written in the driver, more through Ray Data. Both
must write the files a Ray Data append of the same rows writes, and a
failed batch must leave nothing but orphans that expiry removes."""

import hashlib
import os
import uuid
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raylake.core.schema import TRANSCRIPT_SCHEMA
from raylake.core.table import Table
from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import append, expire_snapshots

KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def _rows(tmp_path, n_turns=400):
    return write_transcript_table(
        str(tmp_path / "src"), n_turns, rows_per_file=64,
        num_buckets=4).scan_arrow(sort=True)


def _file_digests(t: Table) -> dict[int, list[str]]:
    """Per bucket, the sorted digests of its files' rows in file order."""
    by = defaultdict(list)
    for e in t.refresh().live_entries():
        rows = pq.read_table(os.path.join(t.root, e.path))
        by[e.partition].append(hashlib.sha1(
            repr(rows.to_pydict()).encode()).hexdigest())
    return {p: sorted(v) for p, v in by.items()}


@pytest.mark.parametrize("batch_size", [None, 64])
def test_in_memory_append_writes_the_ray_data_files(
        tmp_path, ray_session, batch_size):
    """One batch (driver) and seven batches write, per bucket,
    the files a `ray.data.from_arrow` append writes: same count, same rows
    in the same order."""
    import ray.data

    rows = _rows(tmp_path)
    got = {}
    for name, src in (("arrow", rows), ("dataset", ray.data.from_arrow(rows))):
        t = Table.create(str(tmp_path / name), TRANSCRIPT_SCHEMA,
                         num_buckets=16)
        append(t, src, batch_size=batch_size)
        got[name] = _file_digests(t)
        assert t.scan_arrow(sort=True).equals(rows)
    assert got["arrow"] == got["dataset"]
    n_files = [len(v) for v in got["arrow"].values()]
    if batch_size is None:
        assert set(n_files) == {1}
    else:
        assert max(n_files) > 1


def test_multi_slice_append_matches_model(tmp_path, ray_session):
    rows = _rows(tmp_path, 1000)
    t = write_transcript_table(str(tmp_path / "tbl"), 600, rows_per_file=64,
                               num_buckets=4)
    model = t.scan_arrow(sort=True)
    new = rows.filter(pa.array(~np.isin(rows["conv_id"].to_numpy(
        zero_copy_only=False), model["conv_id"].to_numpy(
            zero_copy_only=False))))
    assert len(new) > 100
    append(t, new, batch_size=50, concurrency=1)
    want = pa.concat_tables([model, new]).sort_by(KEYS)
    assert t.refresh().scan_arrow(sort=True).equals(want)


@pytest.mark.parametrize("batch_size", [None, 50])
def test_failed_slice_commits_nothing(tmp_path, ray_session, batch_size):
    """A turn_idx that overflows int32 in the last batch: its ArrowInvalid
    comes out, the table keeps its snapshot, and expiry removes every file
    the other batches wrote."""
    t = write_transcript_table(str(tmp_path / "tbl"), 300, rows_per_file=64,
                               num_buckets=4)
    seq, pre = t.current_seq, t.scan_arrow(sort=True)
    rows = _rows(tmp_path)
    turn = rows["turn_idx"].to_numpy().astype(np.int64)
    turn[-1] = 1 << 40
    bad = rows.set_column(rows.schema.get_field_index("turn_idx"),
                          "turn_idx", pa.array(turn))
    data = os.path.join(t.root, "data")

    def on_disk():
        return {os.path.join(d, f) for d, _, fs in os.walk(data) for f in fs}

    before = on_disk()
    with pytest.raises(pa.ArrowInvalid):
        append(t, bad, batch_size=batch_size)
    assert t.refresh().current_seq == seq
    orphans = on_disk() - before
    if batch_size is not None:
        assert orphans  # the batches before the bad one were written
    expire_snapshots(t, keep_last=1, grace_period_s=0)
    assert on_disk() == {os.path.join(t.root, e.path)
                         for e in t.live_entries()}
    assert not orphans & on_disk()
    assert t.scan_arrow(sort=True).equals(pre)


def test_dataset_append_runs_its_plan_once(tmp_path, ray_session):
    """Sizing the batches of a lazy Dataset must not run its plan a second
    time: the upstream `map_batches` before a groupby runs once."""
    import ray.data

    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(b):
        (marks / uuid.uuid4().hex).touch()
        return b

    rows = _rows(tmp_path)
    ds = (ray.data.from_arrow(rows).map_batches(mark, batch_format="pyarrow")
          .groupby("conv_id").map_groups(lambda g: g, batch_format="pyarrow"))
    t = Table.create(str(tmp_path / "tbl"), TRANSCRIPT_SCHEMA, num_buckets=4)
    append(t, ds)
    assert len(list(marks.iterdir())) == 1
    assert t.scan_arrow(sort=True).equals(rows)


def test_silver_overwrite_writes_through_append(tmp_path, ray_session):
    """SilverPipeline.run(mode="overwrite") replaces the whole table with
    the transformed rows."""
    from raylake.fixtures.reference_shapes import OHLCV_SCHEMA, ohlcv_table
    from raylake.pipelines.silver import SilverPipeline

    data = ohlcv_table()
    pipe = SilverPipeline(
        schema=OHLCV_SCHEMA, key_cols=["symbol", "date"],
        positive_cols=["open", "high", "low", "close"],
        zero_and_positive_cols=["volume"], dropna_cols=["symbol", "date"],
        dedup_condition_cols=["ingest_timestamp"])
    tgt = Table.create(str(tmp_path / "ohlcv"), OHLCV_SCHEMA,
                       partition_column="symbol", num_buckets=2,
                       sort_order=("symbol", "date"))
    append(tgt, data.cast(OHLCV_SCHEMA))  # replaced by the overwrite
    snap = pipe.run(data, target=tgt, mode="overwrite")
    assert snap.operation == "overwrite"
    got = tgt.refresh().scan_arrow(sort=True).to_pandas()
    want = pipe.transform_arrow(data).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(["symbol", "date"]).reset_index(drop=True),
        want.sort_values(["symbol", "date"]).reset_index(drop=True),
        check_dtype=False)
