"""`Table.scan` and `scan_with_lineage` read every file through one Ray read
whose tasks carry the manifest's row counts and the output schema. Their
`count()` and `schema()` must agree with the rows the scan returns over
files that deletes reach and files that they do not, files from before an
`add_column` and a file adopted by `add_files`."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from raylake.core.table import LINEAGE_FILE, LINEAGE_POS, Table
from raylake.ops.add_files import add_files
from raylake.ops.delete_where import delete_where, scan_with_lineage

SCHEMA = pa.schema([("id", pa.int64()), ("v", pa.float64()),
                    ("k", pa.string())])


def _rows(ids, note: bool) -> pa.Table:
    t = pa.table({"id": pa.array(ids, pa.int64()),
                  "v": pa.array([i / 2 for i in ids], pa.float64()),
                  "k": pa.array([f"k{i % 5}" for i in ids], pa.string())})
    if note:
        t = t.append_column("note", pa.array([f"n{i}" for i in ids]))
    return t


def _ds_rows(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_scan_count_and_schema_match_rows(tmp_path, ray_session):
    t = Table.create(str(tmp_path / "t"), SCHEMA, partition_column=None,
                     sort_order=("id",))
    old = [t.write_file(_rows(range(0, 100), False), -1),
           t.write_file(_rows(range(100, 200), False), -1)]
    t.commit("append", old)
    before_deletes = t.current_seq
    t.delete_by_keys(pa.table({"id": pa.array([5, 150], pa.int64())}))
    t.delete_by_positions(pa.table({"file_path": [old[0].path] * 2,
                                    "pos": pa.array([1, 2], pa.int64())}))
    t.add_column("note", pa.string())
    t.commit("append", [t.write_file(_rows(range(200, 250), True), -1)])
    ext = str(tmp_path / "ext.parquet")  # with pandas schema metadata
    pq.write_table(pa.Table.from_pandas(
        _rows(range(250, 290), True).to_pandas(), preserve_index=False), ext)
    add_files(t, [ext])
    t.refresh()

    live = sorted(set(range(290)) - {1, 2, 5, 150})
    whole = t.scan_arrow(sort=True)
    assert whole["id"].to_pylist() == live
    assert whole["note"].null_count == 200 - 4

    ds = t.scan()
    assert ds.schema().names == t.schema.names
    assert ds.count() == len(whole)
    got = _ds_rows(t.scan()).sort_by([("id", "ascending")])
    assert got.select(whole.column_names).equals(whole)

    cols = ["note", "id"]
    ds = t.scan(columns=cols)
    assert ds.schema().names == cols
    assert ds.count() == len(whole)
    assert _ds_rows(ds).column_names == cols
    # one read task per file here, and no task's output is cut further
    assert t.scan(entries=t.live_entries()[:1]).materialize().num_blocks() == 1

    where = pc.field("id") >= 100
    assert t.scan(filter=where).count() == len(
        whole.filter(pc.greater_equal(whole["id"], 100)))
    assert t.scan(columns=["v"], filter=where).count() == sum(
        i >= 100 for i in live)
    assert t.scan(snapshot=before_deletes).count() == 200

    lin = scan_with_lineage(t, live_only=True)
    assert lin.schema().names == t.schema.names + [LINEAGE_FILE, LINEAGE_POS]
    assert lin.count() == len(whole)
    assert scan_with_lineage(t).count() == 290

    # a delete_where over the same read leaves every count exact
    delete_where(t, lambda b: pc.less(b["id"], 10), columns=["id"])
    t.refresh()
    n = len(t.scan_arrow())
    assert n == len(whole) - sum(i < 10 for i in live)
    assert t.scan().count() == t.scan(columns=["id"]).count() == n
    assert scan_with_lineage(t, live_only=True).count() == n
