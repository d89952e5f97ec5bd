"""The per-file Parquet reader (`core/io.read_file`), the one reader of a
data file's live rows (`Table.live_reader`) and the footer statistics
`Table.write_file` writes.

`read_file` replaces `pq.read_table` for every single-file read in `core/`
and `ops/`, so it must return exactly what `pq.read_table` returns, and it
must keep raising on a column the file lacks, so that a projection never
silently narrows. Every scan and rewrite reads data files through
`live_reader`; the differential test below checks that all of them return
the same rows over deletes of every kind and an evolved schema."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from raylake import Table
from raylake.core.io import read_file
from raylake.fixtures.transcripts import write_transcript_table
from raylake.ops import append, compact
from raylake.ops.delete_where import (
    LINEAGE_FILE,
    LINEAGE_POS,
    scan_with_lineage,
)
from raylake.ops.rewrite import read_task_inputs


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


def _rows(t: pa.Table) -> pa.Table:
    """`t` in a total row order over all of its columns."""
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _ds_rows(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _one_conv(t: Table, prefix: str) -> tuple[pa.Table, int]:
    """The rows of one conversation re-keyed as a new conversation, and
    the bucket the new key hashes to."""
    cur = t.scan_arrow(sort=True)
    rows = cur.filter(pc.equal(cur["conv_id"], cur["conv_id"][0]))
    new = prefix + rows["conv_id"][0].as_py()
    rows = rows.set_column(0, "conv_id", pa.array([new] * len(rows)))
    return rows, int(t.partition_ids(pa.array([new]))[0])


def test_file_committed_after_add_column_reads_current_schema(
        tmp_table_root, ray_session):
    """A writer that loaded the table before a concurrent `add_column`
    commits a file in the old schema AFTER the change. Reads decide from
    the file's footer, so it pads the new column like any older file."""
    t = write_transcript_table(tmp_table_root, 200, rows_per_file=64,
                               num_buckets=2)
    stale = Table.load(t.root)
    rows, part = _one_conv(stale, "late-")
    t.add_column("score", pa.float64())
    e = stale.write_file(rows, part)
    stale.commit("append", [e])
    t.refresh()
    assert e.seq_added > t.meta["schema_last_updated_seq"]
    ents = [x for x in t.live_entries() if x.path == e.path]

    got = t.scan_arrow(entries=ents)
    assert got.schema.names == t.schema.names
    assert got["score"].null_count == len(rows)
    want = rows.append_column("score", pa.nulls(len(rows), pa.float64()))
    assert got.equals(want)
    cols = ["conv_id", "score"]
    lookup = t.scan_arrow(entries=t.prune_point(rows["conv_id"][0].as_py()),
                          columns=cols)
    lookup = lookup.filter(pc.equal(lookup["conv_id"],
                                            rows["conv_id"][0]))
    assert lookup.equals(want.select(cols))
    task = {"input_paths": [e.path]}
    assert read_task_inputs(t, task, columns=cols).equals(want.select(cols))
    # the older files send every file of the scan through the reader
    whole = t.scan_arrow()
    assert whole["score"].null_count == len(whole)
    assert _rows(_ds_rows(t.scan())).equals(_rows(whole))
    assert _rows(_ds_rows(t.scan(columns=cols))).equals(
        _rows(whole.select(cols)))
    # an unknown read option raises rather than being dropped
    with pytest.raises(TypeError, match="override_num_blocks"):
        t.scan(override_num_blocks=2)


def test_late_old_schema_file_among_rewritten_files(tmp_table_root,
                                                   ray_session):
    """The stale writer's file is the only one that predates the
    `add_column`: compact rewrote every other file after it. The scan
    knows the file from the schema its writer recorded and pads it like
    `scan_arrow` does."""
    t = write_transcript_table(tmp_table_root, 500, rows_per_file=64,
                               num_buckets=2)
    n = t.row_count()
    stale = Table.load(t.root)
    rows, part = _one_conv(stale, "late-")
    t.add_column("score", pa.float64())
    compact(t)
    t.refresh()
    assert all(e.seq_added > t.meta["schema_last_updated_seq"]
               for e in t.live_entries())
    stale.commit("append", [stale.write_file(rows, part)])
    t.refresh()
    whole = t.scan_arrow()
    assert len(whole) == n + len(rows)
    assert whole["score"].null_count == len(whole)
    assert _rows(_ds_rows(t.scan())).equals(_rows(whole))
    cols = ["conv_id", "score"]
    assert _rows(_ds_rows(t.scan(columns=cols))).equals(
        _rows(whole.select(cols)))


def test_rename_then_readd_old_name_reads_nulls(tmp_table_root,
                                                ray_session):
    """After `rename_column("tool", "tool_name")` and
    `add_column("tool")`, a file written before both holds its values
    under the physical name `tool`: every reader returns them as
    `tool_name`, and nulls for the new `tool`."""
    t = write_transcript_table(tmp_table_root, 200, rows_per_file=64,
                               num_buckets=2)
    pre = t.scan_arrow(sort=True)
    t.rename_column("tool", "tool_name")
    t.add_column("tool", pa.string())
    paths = [e.path for e in t.live_entries()]
    nulls = pa.nulls(len(pre), pa.string())
    for cols in (["tool"], ["tool_name"], ["conv_id", "tool_name", "tool"]):
        want = pa.table({"tool": nulls, "tool_name": pre["tool"],
                         "conv_id": pre["conv_id"]}).select(cols)
        got = {
            "scan_arrow": t.scan_arrow(columns=cols),
            "scan": _ds_rows(t.scan(columns=cols)),
            "read_task_inputs": read_task_inputs(
                t, {"input_paths": paths}, columns=cols),
            "scan_with_lineage": _ds_rows(scan_with_lineage(
                t, columns=cols)).drop([LINEAGE_FILE, LINEAGE_POS]),
        }
        for name, g in got.items():
            assert _rows(g).equals(_rows(want)), (name, cols)


def test_every_reader_returns_the_same_live_rows(tmp_table_root,
                                                 ray_session):
    """Differential read-path test: one table with equality deletes under
    two key schemas (turn_idx as int32 and as int64), a conv_id-only
    delete and position deletes, over files from before and after an
    added and a renamed column. At the head and at the pre-delete
    snapshot, every reader returns the model's rows."""
    t = write_transcript_table(tmp_table_root, 400, rows_per_file=48,
                               num_buckets=2)
    t.add_column("note", pa.string())
    t.rename_column("role", "speaker")
    late, _ = _one_conv(t, "late-")
    late = late.set_column(late.schema.get_field_index("note"), "note",
                           pa.array([f"n{i}" for i in range(len(late))]))
    append(t, late)
    t.refresh()
    old_seq = t.current_seq
    full = _rows(t.scan_arrow())
    assert full["note"].null_count == len(full) - len(late)

    # deletes of every kind, each reaching old and new files
    convs = pc.unique(full["conv_id"]).to_pylist()
    k32 = full.filter(pc.equal(full["turn_idx"], 1)).select(
        ["conv_id", "turn_idx"]).slice(0, 6)
    k64 = full.filter(pc.equal(full["turn_idx"], 2)).select(
        ["conv_id", "turn_idx"]).slice(3, 6)
    k64 = k64.set_column(1, "turn_idx", k64["turn_idx"].cast(pa.int64()))
    t.delete_by_keys(k32)
    t.delete_by_keys(k64)
    t.delete_by_keys(pa.table({"conv_id": [convs[5], "late-" + convs[0]]}))
    e = t.live_entries()[1]
    raw = read_file(os.path.join(t.root, e.path))
    t.delete_by_positions(pa.table({"file_path": [e.path] * 3,
                                    "pos": pa.array([0, 4, 7], pa.int64())}))
    t.refresh()
    dead = {(c, int(i)) for k in (k32, k64)
            for c, i in zip(k["conv_id"].to_pylist(),
                            k["turn_idx"].to_pylist())}
    dead |= {(c, i) for c, i in zip(full["conv_id"].to_pylist(),
                                    full["turn_idx"].to_pylist())
             if c in (convs[5], "late-" + convs[0])}
    dead |= {(raw["conv_id"][i].as_py(), raw["turn_idx"][i].as_py())
             for i in (0, 4, 7)}
    live = full.filter(pa.array([
        (c, i) not in dead for c, i in zip(full["conv_id"].to_pylist(),
                                           full["turn_idx"].to_pylist())]))
    assert len(full) - len(live) == len(dead) > 20

    cols = ["turn_idx", "speaker", "note"]
    for snap, want in ((None, live), (old_seq, full)):
        paths = [x.path for x in t.live_entries(snap)]
        got = {
            "scan_arrow": t.scan_arrow(snapshot=snap),
            "scan": _ds_rows(t.scan(snapshot=snap)),
            "read_task_inputs": read_task_inputs(
                t, {"input_paths": paths}, snapshot=snap),
            "scan_with_lineage": _ds_rows(scan_with_lineage(
                t, snapshot=snap, live_only=True)).drop(
                    [LINEAGE_FILE, LINEAGE_POS]),
        }
        for name, g in got.items():
            assert _rows(g).equals(want), (name, snap)
        # a pushed-down row filter holds on files read one per task too
        g = _ds_rows(t.scan(snapshot=snap, filter=pc.field("turn_idx") < 3))
        assert _rows(g).equals(want.filter(pc.less(want["turn_idx"], 3)))
        projected = {
            "scan_arrow": t.scan_arrow(snapshot=snap, columns=cols),
            "scan": _ds_rows(t.scan(snapshot=snap, columns=cols)),
            "read_task_inputs": read_task_inputs(
                t, {"input_paths": paths}, snapshot=snap, columns=cols),
        }
        for name, g in projected.items():
            assert _rows(g).equals(_rows(want.select(cols))), (name, snap)
