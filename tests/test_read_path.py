"""The per-file Parquet reader (`core/io.read_file`) and the footer
statistics `Table.write_file` writes.

`read_file` replaces `pq.read_table` for every single-file read in `core/`
and `ops/`, so it must return exactly what `pq.read_table` returns, and it
must keep raising on a column the file lacks: the pre-evolution fallbacks
in the scans catch that error to re-read the whole file."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from raylake.core.io import read_file
from raylake.fixtures.transcripts import write_transcript_table


def _sample() -> pa.Table:
    return pa.table({
        "a": pa.array([3, 1, 2], pa.int64()),
        "b": pa.array(["x", None, "z"], pa.string()),
        "c": pa.array([1.5, 2.5, None], pa.float64()),
        "ts": pa.array([1, 2, 3], pa.timestamp("us")),
    })


@pytest.fixture()
def files(tmp_path):
    t = _sample()
    paths = {
        "plain": t,
        "empty": t.slice(0, 0),
        # add_files adopts files written by pandas, schema blob included
        "pandas": pa.Table.from_pandas(
            pd.DataFrame(t.to_pydict()).set_index("a", drop=False)),
    }
    out = {}
    for name, tab in paths.items():
        p = str(tmp_path / f"{name}.parquet")
        pq.write_table(tab, p)
        out[name] = p
    return out


@pytest.mark.parametrize("name", ["plain", "empty", "pandas"])
@pytest.mark.parametrize("columns", [None, ["b"], ["c", "a"], ["a", "a"]])
def test_read_file_equals_read_table(files, name, columns):
    want = pq.read_table(files[name], columns=columns)
    got = read_file(files[name], columns=columns)
    assert got.equals(want)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.column_names == want.column_names


@pytest.mark.parametrize("columns", [["a", "nope"], ["nope"]])
def test_read_file_unknown_column_raises(files, columns):
    with pytest.raises(pa.ArrowInvalid):
        pq.read_table(files["plain"], columns=columns)
    with pytest.raises(pa.ArrowInvalid):
        read_file(files["plain"], columns=columns)


def test_columns_read_over_pre_evolution_files(tmp_table_root, ray_session):
    t = write_transcript_table(tmp_table_root, 300, rows_per_file=64,
                               num_buckets=2)
    pre = t.scan_arrow(sort=True)
    t.add_column("note", pa.string())
    t.rename_column("role", "speaker")
    cols = ["conv_id", "turn_idx", "speaker", "note"]
    want = pre.rename_columns(
        ["speaker" if c == "role" else c for c in pre.column_names]
    ).append_column("note", pa.nulls(len(pre), pa.string())).select(cols)

    assert t.scan_arrow(columns=cols, sort=True).equals(want)
    with pytest.raises((pa.ArrowInvalid, KeyError)):
        t.scan_arrow(columns=["nope"])

    # position deletes route the distributed scan through one read task per
    # targeted file, whose projected read falls back to a whole-file read
    # for files that predate the new column and the rename
    e = t.live_entries()[0]
    rows = read_file(os.path.join(t.root, e.path))
    t.delete_by_positions(pa.table({
        "file_path": pa.array([e.path, e.path]),
        "pos": pa.array([0, 3], pa.int64()),
    }))
    dead = {(rows["conv_id"][i].as_py(), rows["turn_idx"][i].as_py())
            for i in (0, 3)}
    keep = [(c, i) not in dead for c, i in zip(want["conv_id"].to_pylist(),
                                               want["turn_idx"].to_pylist())]
    want = want.filter(pa.array(keep))
    sort = [("conv_id", "ascending"), ("turn_idx", "ascending")]

    assert t.scan_arrow(columns=cols, sort=True).equals(want)
    got = pa.concat_tables(ray.get(t.scan(columns=cols).to_arrow_refs()))
    assert got.sort_by(sort).equals(want)


def test_write_file_footer_statistics(tmp_table_root):
    t = write_transcript_table(tmp_table_root, 200, rows_per_file=64,
                               num_buckets=2)
    meta = pq.ParquetFile(
        os.path.join(t.root, t.live_entries()[0].path)).metadata
    rg = meta.row_group(0)
    stats = {rg.column(i).path_in_schema: rg.column(i).statistics
             for i in range(rg.num_columns)}
    for c in ("conv_id", "turn_idx"):
        assert stats[c] is not None and stats[c].has_min_max, c
    assert stats["text"] is None or not stats["text"].has_min_max
