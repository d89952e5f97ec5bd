"""Config-driven silver pipeline — the reference's template-method extension
surface (SURVEY §2.11; ref src/elt/silver/_silver_pipeline.py:15-76).

A `SilverPipeline` is configured entirely by constructor kwargs (schema,
keys, rename map, trim/nullify/fill/dropna column lists, dedup order) and
applies the reference's fixed stage order:

    normalize → rename → trim → nullify → null-handle → dedup

Each stage is a vectorized `map_batches` over zero-copy Arrow; dedup is the
only shuffle (hash on the key columns). Subclasses override `transform()`
and call `super().transform()` to splice extra stages, exactly like
`transform_daily_ohlcv.py:79-85` / `transform_quarterly_ratio.py:56-70`
(which reorders rename before normalize).

`run()` loads the result into a lakehouse Table via overwrite / SCD1 merge,
mirroring `_silver_pipeline.py:79-111`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import pandas as pd
import pyarrow as pa

from raylake.functions import cleaning as cl


class SilverPipeline:
    def __init__(
        self,
        schema: pa.Schema,
        key_cols: Sequence[str],
        rename_map: Mapping[str, str] | None = None,
        trimmed_cols: Sequence[str] = (),
        positive_cols: Sequence[str] = (),
        zero_and_positive_cols: Sequence[str] = (),
        fill_map: Mapping[str, object] | None = None,
        dict_fills: Sequence[tuple[str, str, Mapping[str, object]]] = (),
        template_fills: Sequence[tuple[str, str, str]] = (),
        dropna_cols: Sequence[str] = (),
        dedup_condition_cols: Sequence[str] = ("updated_at", "ingest_timestamp"),
        scd_tracked_cols: Sequence[str] | None = None,
    ):
        self.schema = schema
        self.key_cols = list(key_cols)
        self.rename_map = dict(rename_map or {})
        self.trimmed_cols = list(trimmed_cols)
        self.positive_cols = list(positive_cols)
        self.zero_and_positive_cols = list(zero_and_positive_cols)
        self.fill_map = dict(fill_map or {})
        self.dict_fills = list(dict_fills)
        self.template_fills = list(template_fills)
        self.dropna_cols = list(dropna_cols)
        self.dedup_condition_cols = [
            c for c in dedup_condition_cols if c in schema.names
        ]
        self.scd_tracked_cols = list(
            scd_tracked_cols
            if scd_tracked_cols is not None
            else [c for c in schema.names if c not in self.key_cols]
        )

    # ------------------------------------------------------------ stages

    def _clean_batch(self, t: pa.Table) -> pa.Table:
        """All row-local stages fused into ONE map_batches body (one pass
        over the object store, no intermediate datasets)."""
        t = cl.rename_columns(t, self.rename_map)
        t = cl.normalize_schema(t, self.schema)
        t = cl.trim_strings(t, self.trimmed_cols)
        t = cl.nullify_non_positive(t, self.positive_cols)
        t = cl.nullify_negative(t, self.zero_and_positive_cols)
        t = cl.drop_null_rows(t, self.dropna_cols)
        t = cl.fill_null_fixed(t, self.fill_map)
        for col, key_col, mapping in self.dict_fills:
            t = cl.fill_null_from_dict(t, col, key_col, mapping)
        for col, key_col, prefix in self.template_fills:
            t = cl.fill_null_template(t, col, key_col, prefix)
        return t

    def deduplicate(self, ds):
        """Keep-first per key ordered by condition cols DESC (D1 — ref
        _silver_handler.py:124-143; default order _silver_pipeline.py:44)."""
        cond = self.dedup_condition_cols

        def keep_first(g: pd.DataFrame) -> pd.DataFrame:
            if cond:
                g = g.sort_values(cond, ascending=False, kind="mergesort")
            return g.head(1)

        return ds.groupby(self.key_cols).map_groups(
            keep_first, batch_format="pandas"
        )

    def transform(self, ds):
        ds = ds.map_batches(self._clean_batch, batch_format="pyarrow")
        return self.deduplicate(ds)

    # --------------------------------------------------------------- run

    def transform_arrow(self, batch: pa.Table) -> pa.Table:
        """Driver-side variant for small batches / unit tests: same stages,
        same semantics, no Ray session required."""
        t = self._clean_batch(batch)
        if len(t) == 0:
            return t
        df = t.to_pandas()
        if self.dedup_condition_cols:
            df = df.sort_values(self.dedup_condition_cols, ascending=False,
                                kind="mergesort")
        df = df.groupby(self.key_cols, sort=False, as_index=False, dropna=False).head(1)
        df = df.sort_values(self.key_cols, kind="mergesort")
        return pa.Table.from_pandas(df, preserve_index=False).cast(self.schema)

    def run(self, source, target=None, mode: str = "overwrite"):
        """Transform and load (ref _silver_pipeline.py:79-111): `overwrite`
        writes a replace snapshot; `scd1` merges on the keys."""
        import ray.data

        if isinstance(source, pa.Table):
            source = ray.data.from_arrow(source)
        result = self.transform(source)
        if target is None:
            return result
        if mode == "overwrite":
            from raylake.ops.append import write_entries

            entries = write_entries(target, result)
            replaced = {e.path for e in target.live_entries()}
            return target.commit("overwrite", entries, replaced_paths=replaced,
                                 expected_parent=target.current_seq)
        if mode == "scd1":
            from raylake.ops.merge import merge_into

            return merge_into(target, result)
        if mode == "scd2":
            # distributed close-and-insert (MG2) through the lakehouse
            # MERGE; per-row start stamp by the reference's rule —
            # updated_at if available else ingest_timestamp
            # (ref _silver_handler.py:149-150)
            from raylake.ops.merge import merge_into

            names = target.schema.names
            start_col = "updated_at" if "updated_at" in names else "ingest_timestamp"
            tracked = [c for c in self.scd_tracked_cols
                       if c not in self.dedup_condition_cols]
            if not tracked:
                raise ValueError(
                    "scd2: every tracked column is a delivery-stamp column "
                    "(dedup_condition_cols); declare scd_tracked_cols "
                    "explicitly")
            return merge_into(target, result, mode="scd2",
                              scd2_start_col=start_col,
                              tracked_cols=tracked)
        raise ValueError(f"unknown mode: {mode}")
