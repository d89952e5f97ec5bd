"""Property-based check of merge-on-read delete semantics under random
interleavings of delete / append / re-insert / compact / purge: the table's
visible scan must always equal a simple visible-set model.

Model semantics (= Iceberg's sequence rule at set level): a delete commit
removes every CURRENTLY-VISIBLE row with a matching key (all visible rows
were added before the delete's sequence); a later append of the same key is
visible; compaction and purge never change visibility."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raylake.core.table import Table
from raylake.fixtures.transcripts import gen_transcripts
from raylake.ops import apply_deletes, compact
from raylake.ops.append import append

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("delete"), st.integers(0, 6)),
        st.tuples(st.just("append_new"), st.integers(0, 6)),
        st.tuples(st.just("reinsert"), st.integers(0, 6)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("purge"), st.just(0)),
    ),
    min_size=2, max_size=6,
)


def _key_df(t: pa.Table) -> pd.DataFrame:
    return t.select(["conv_id", "turn_idx"]).to_pandas()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=OPS, seed=st.integers(0, 10_000))
def test_mor_interleavings_match_visible_set_model(ops, seed, tmp_path_factory,
                                                   ray_session):
    rng = np.random.default_rng(seed)
    base = gen_transcripts(400, seed=11)
    root = str(tmp_path_factory.mktemp("mor") / "t")
    tbl = Table.create(root, base.schema, partition_column="conv_id",
                       num_buckets=2)
    append(tbl, base)
    tbl.refresh()

    model = base.to_pandas()  # the visible set
    deleted_pool = model.iloc[:0].copy()  # rows deleted so far (for reinsert)
    extra_id = 0

    for op, k in ops:
        tbl.refresh()
        if op == "delete" and len(model):
            idx = rng.choice(len(model), size=min(5 + k, len(model)),
                             replace=False)
            victims = model.iloc[idx]
            tbl.delete_by_keys(pa.Table.from_pandas(
                victims[["conv_id", "turn_idx"]], preserve_index=False))
            vk = set(zip(victims["conv_id"], victims["turn_idx"]))
            mask = [
                (c, ti) in vk
                for c, ti in zip(model["conv_id"], model["turn_idx"])
            ]
            deleted_pool = pd.concat([deleted_pool, model[mask]])
            model = model[~np.asarray(mask)]
        elif op == "append_new":
            rows = base.to_pandas().iloc[: 3 + k].copy()
            rows["conv_id"] = [f"new{extra_id}-{c}" for c in rows["conv_id"]]
            extra_id += 1
            append(tbl, pa.Table.from_pandas(rows, preserve_index=False)
                   .cast(base.schema))
            model = pd.concat([model, rows])
        elif op == "reinsert" and len(deleted_pool):
            rows = deleted_pool.iloc[: 2 + k]
            deleted_pool = deleted_pool.iloc[2 + k:]
            append(tbl, pa.Table.from_pandas(rows, preserve_index=False)
                   .cast(base.schema))
            model = pd.concat([model, rows])
        elif op == "compact":
            compact(tbl, target_file_bytes=256 * 1024)
        elif op == "purge":
            apply_deletes(tbl, target_file_bytes=256 * 1024)

    tbl.refresh()
    got = (tbl.scan_arrow(sort=True).to_pandas()
           .sort_values(["conv_id", "turn_idx", "ts"], kind="mergesort")
           .reset_index(drop=True))
    want = (model.sort_values(["conv_id", "turn_idx", "ts"], kind="mergesort")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


# --- the key-membership kernel against a set-of-tuples oracle --------------

_NAN = object()  # the oracle's one NaN: NaN == NaN for float keys
_POOLS = {
    "string": (pa.string(), st.sampled_from(["", "a", "b", "ab", "é"])),
    "int32": (pa.int32(), st.sampled_from([0, 1, -1, 7, 2**31 - 1, -2**31])),
    "int64": (pa.int64(),
              st.sampled_from([0, 1, 7, 2**53, 2**53 + 1, 2**63 - 1, -2**63])),
    "timestamp": (pa.timestamp("us"),
                  st.sampled_from([0, 1, 10**15, 10**15 + 1, -5])),
    "float64": (pa.float64(),
                st.sampled_from([0.0, -0.0, 1.5, float("nan"), 2.0**53])),
}


def _oracle_value(v):
    return _NAN if isinstance(v, float) and v != v else v


@st.composite
def _kernel_case(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1,
                          max_size=3))
    row = st.tuples(*[st.one_of(st.none(), _POOLS[k][1]) for k in kinds])
    rows = draw(st.lists(row, max_size=40))
    # keys: some drawn from the batch (hits), some fresh; duplicates allowed
    picked = draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
    keys = picked + draw(st.lists(row, max_size=8))
    keys = draw(st.permutations(keys + draw(st.lists(
        st.sampled_from(keys), max_size=3)) if keys else []))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    # an int32 column may meet an int64 key table (Python ints)
    widen = draw(st.booleans())
    return kinds, rows, keys, cuts, widen


def _column(values, typ, cuts):
    bounds = [0, *cuts, len(values)]
    chunks = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    return pa.chunked_array([pa.array(c, typ) for c in chunks], typ)


@settings(max_examples=300, deadline=None)
@given(case=_kernel_case(), dense=st.booleans())
def test_key_kernel_matches_set_of_tuples_oracle(case, dense):
    from unittest import mock

    from raylake.core import deletes
    from raylake.core.deletes import KeySet, delete_keep_mask

    kinds, rows, keys, cuts, widen = case
    names = [f"k{i}" for i in range(len(kinds))]
    batch = pa.table({n: _column([r[i] for r in rows], _POOLS[k][0], cuts)
                      for i, (n, k) in enumerate(zip(names, kinds))})
    key_types = [pa.int64() if widen and k == "int32" else _POOLS[k][0]
                 for k in kinds]
    key_tab = pa.table({n: pa.array([r[i] for r in keys], t)
                        for i, (n, t) in enumerate(zip(names, key_types))})
    # dense: a tiny code limit densifies before every column after the first
    with mock.patch.object(deletes, "_CODE_LIMIT", 2 if dense else
                           deletes._CODE_LIMIT):
        ks = KeySet(key_tab)
        got = ks.contains(batch)
        keep = delete_keep_mask(batch, [ks])
    if dense and len(kinds) > 1 and len(ks.sets[names[1]]) > 1:
        assert ks._dense[1] is not None  # the densify path ran
    oracle = {tuple(map(_oracle_value, r)) for r in keys}
    want = np.array([tuple(map(_oracle_value, r)) in oracle for r in rows],
                    dtype=bool)
    assert got.dtype == bool and got.shape == (len(rows),)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(keep, ~want)


def test_key_kernel_incomparable_types_match_nothing():
    """A key and a column with no common type never match (no implicit
    string<->int parse) and never raise."""
    from raylake.core.deletes import KeySet

    ints = pa.table({"k": pa.array([1, 2], pa.int32())})
    strs = pa.table({"k": ["1", "2"]})
    assert not KeySet(strs).contains(ints).any()
    assert not KeySet(ints).contains(strs).any()
    utc = pa.table({"k": pa.array([0], pa.timestamp("us", "UTC"))})
    naive = pa.table({"k": pa.array([0], pa.timestamp("us"))})
    assert not KeySet(utc).contains(naive).any()
