"""Stateful tumbling event-time windows over the micro-batch stream
(SURVEY §2.10 depth — the `.withWatermark(...).groupBy(window(...))` shape
of the reference's dead Spark streaming path, ref:
src/elt/silver/_silver_handler.py:233-255, re-expressed on the lakehouse).

Semantics (standard watermark streaming):
- every row falls in the tumbling window `ts_us // window_us * window_us`;
- watermark = max event ts seen − allowed lateness;
- a window is FLUSHED (its aggregate appended to the results table) once
  `window_end <= watermark`; rows arriving for already-flushed windows are
  true stragglers and are side-output to a late audit stream persisted in
  the tick's own commit summary — atomic with state+output, so a crash
  between ticks never drops them (the batch repair path is a MERGE
  recompute over `late_table()` — never silent loss);
- open-window partial state is (key, window) → (count, sum): mergeable,
  bounded by #keys × (lateness/window + 1) windows.

Exactly-once without a separate checkpoint store: the serialized open state
rides IN the flush commit's snapshot summary, so state and output advance
atomically — a crash between ticks resumes from the snapshot log (the same
idea as MicroBatchWriter's offset-in-summary, extended to operator state;
Spark needs a side checkpointLocation for this, ref
_bronze_handler.py:84-90).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from raylake.core.metadata import ManifestEntry
from raylake.core.table import Table

RESULT_SCHEMA = pa.schema([
    ("key", pa.string()),
    ("window_start_us", pa.int64()),
    ("n", pa.int64()),
    ("sum_value", pa.float64()),
])

# Above this, a tick's late batch spills to a side parquet instead of
# riding the commit summary: every snapshot read re-parses table.json, so
# a pathological late storm embedded as base64 IPC would bloat EVERY
# subsequent metadata operation, not just this tick's.
LATE_SPILL_ROWS = 512


def stash_late(table: Table, summary: dict, base: str,
               late: pa.Table) -> None:
    """Persist a tick's late-audit rows atomically with the tick commit.
    Small batches embed in the summary as base64 Arrow IPC (schema-exact,
    JSON-safe); batches over LATE_SPILL_ROWS spill to a side parquet under
    data/late/ referenced as `<base>_path` (GC-protected by expire's
    reachability walk, like cdc_files)."""
    if len(late) > LATE_SPILL_ROWS:
        import os
        import uuid

        import pyarrow.parquet as pq

        os.makedirs(os.path.join(table.root, "data", "late"), exist_ok=True)
        rel = f"data/late/{base}-{uuid.uuid4().hex}.parquet"
        pq.write_table(late, os.path.join(table.root, rel),
                       compression="zstd")
        summary[f"{base}_path"] = rel
        summary[f"{base}_rows"] = len(late)
        return
    import base64
    import io

    buf = io.BytesIO()
    with pa.ipc.new_stream(buf, late.schema) as w:
        w.write_table(late)
    summary[f"{base}_ipc"] = base64.b64encode(buf.getvalue()).decode("ascii")


def read_late(table: Table, base: str) -> pa.Table | None:
    """Rebuild the full late-audit stream from the snapshot log (embedded
    IPC + spilled parquets, in commit order)."""
    import base64
    import os

    from raylake.core.io import read_file

    parts = []
    for snap in table.refresh().snapshots():
        b = snap.summary.get(f"{base}_ipc")
        if b:
            parts.append(pa.ipc.open_stream(base64.b64decode(b)).read_all())
        p = snap.summary.get(f"{base}_path")
        if p:
            parts.append(read_file(os.path.join(table.root, p)))
    return pa.concat_tables(parts) if parts else None


class WindowedStreamAggregator:
    """Tumbling by default; pass slide_us < window_us for HOPPING (sliding)
    windows — each row then contributes to ceil(window/slide) overlapping
    windows (window starts on multiples of slide). State/flush/late logic is
    shared: a window [s, s+window) flushes when s+window <= watermark, and a
    row is late only when even its LAST covering window is already flushed."""

    def __init__(
        self,
        root: str,
        window_us: int,
        allowed_lateness_us: int,
        key_col: str = "key",
        ts_col: str = "ts",
        value_col: str = "value",
        slide_us: int | None = None,
    ):
        self.window_us = window_us
        self.slide_us = slide_us if slide_us is not None else window_us
        if self.slide_us > window_us or window_us % self.slide_us:
            raise ValueError("slide_us must divide window_us")
        self.lateness_us = allowed_lateness_us
        self.key_col, self.ts_col, self.value_col = key_col, ts_col, value_col
        try:
            self.table = Table.load(root)
        except FileNotFoundError:
            self.table = Table.create(
                root, RESULT_SCHEMA, partition_column="key", num_buckets=4,
                sort_order=("key", "window_start_us"),
            )
        # resume: restore operator state from the last stream snapshot
        self.open: dict[tuple, list] = {}
        self.max_ts = -1
        self.last_offset = -1
        for snap in self.table.snapshots():
            st = snap.summary.get("wstream_state")
            if st is not None:
                self.open = {
                    (k, int(w)): [int(n), float(s)]
                    for k, w, n, s in st["open"]
                }
                self.max_ts = st["max_ts"]
                self.last_offset = st["offset"]

    # ------------------------------------------------------------------ tick

    def process_tick(self, offset: int, batch: pa.Table) -> bool:
        """Returns False when the offset was already committed (replay)."""
        if offset <= self.last_offset:
            return False
        wm = self.max_ts - self.lateness_us
        ts_us = pc.cast(batch[self.ts_col], pa.int64())
        # last (highest-start) window covering each ts; a row is a straggler
        # only when even THAT window is flushed (end <= current watermark)
        win0 = pc.multiply(pc.divide(ts_us, self.slide_us), self.slide_us)
        late_mask = pc.less_equal(pc.add(win0, self.window_us), wm)
        late = batch.filter(late_mask)
        live = batch.filter(pc.invert(late_mask))
        if len(live):
            lts = pc.cast(live[self.ts_col], pa.int64())
            if self.slide_us == self.window_us:
                grp = pa.table({
                    "k": live[self.key_col],
                    "w": pc.multiply(pc.divide(lts, self.window_us),
                                     self.window_us),
                    "v": live[self.value_col],
                })
            else:
                # hop: explode each row into its k covering window starts
                # (window divisible by slide -> always exactly k of them)
                import numpy as np

                k = self.window_us // self.slide_us
                t = lts.to_numpy(zero_copy_only=False)
                w0 = t // self.slide_us * self.slide_us
                starts = (w0[:, None]
                          - np.arange(k, dtype=np.int64) * self.slide_us)
                idx = np.repeat(np.arange(len(t)), k)
                grp = pa.table({
                    "k": live[self.key_col].take(pa.array(idx)),
                    "w": pa.array(starts.ravel(), pa.int64()),
                    "v": live[self.value_col].take(pa.array(idx)),
                })
            agg = pa.TableGroupBy(grp, ["k", "w"]).aggregate(
                [("v", "count"), ("v", "sum")])
            for k, w, n, s in zip(agg["k"].to_pylist(), agg["w"].to_pylist(),
                                  agg["v_count"].to_pylist(),
                                  agg["v_sum"].to_pylist()):
                cur = self.open.setdefault((k, int(w)), [0, 0.0])
                cur[0] += int(n)
                cur[1] += float(s)
            mx = pc.max(ts_us).as_py()
            self.max_ts = max(self.max_ts, int(mx))

        # flush windows closed by the ADVANCED watermark
        wm = self.max_ts - self.lateness_us
        closed = sorted(
            kw for kw in self.open if kw[1] + self.window_us <= wm
        )
        added: list[ManifestEntry] = []
        if closed:
            from raylake.core.hashing import partition_of

            out = pa.table({
                "key": pa.array([k for k, _ in closed]),
                "window_start_us": pa.array([w for _, w in closed], pa.int64()),
                "n": pa.array([self.open[kw][0] for kw in closed], pa.int64()),
                "sum_value": pa.array([self.open[kw][1] for kw in closed],
                                      pa.float64()),
            })
            parts = partition_of(out["key"], self.table.num_buckets)
            import numpy as np

            for p in np.unique(parts):
                added.append(self.table.write_file(
                    out.filter(pa.array(parts == p)), int(p)))
            for kw in closed:
                del self.open[kw]

        # state + output advance in ONE commit (exactly-once on replay)
        state = {
            "offset": offset,
            "max_ts": self.max_ts,
            "open": [[k, w, n, s] for (k, w), (n, s) in
                     sorted(self.open.items())],
        }
        summary = {"stream_offset": offset, "wstream_state": state}
        if len(late):
            # Persist this tick's stragglers IN the tick commit: state,
            # output and the late audit rows advance atomically, so a crash
            # between ticks never silently drops them (they are rare by
            # construction — only rows behind the watermark). late_table()
            # rebuilds from the snapshot log; the batch repair path MERGEs
            # them in. See stash_late for the embed-vs-spill policy.
            stash_late(self.table, summary, "wstream_late", late)
        self.table.commit("stream-window", added, summary=summary)
        self.last_offset = offset
        return True

    def run(self, ticks) -> int:
        n = 0
        for offset, batch in ticks:
            if self.process_tick(offset, batch):
                n += 1
        return n

    def final_flush(self) -> None:
        """End-of-stream: flush every remaining open window."""
        self.max_ts = max(self.max_ts, 2**62)
        self.process_tick(self.last_offset + 1,
                          RESULT_SCHEMA.empty_table()
                          .drop(["n", "sum_value"])
                          .rename_columns([self.key_col, self.ts_col])
                          .append_column(self.value_col,
                                         pa.array([], pa.float64())))

    def results(self) -> pa.Table:
        return self.table.refresh().scan_arrow(sort=True)

    def late_table(self) -> pa.Table | None:
        """All straggler rows, rebuilt from the snapshot log (restart-safe:
        each tick's late rows ride in that tick's commit summary as Arrow
        IPC, so schema and dtypes round-trip exactly)."""
        return read_late(self.table, "wstream_late")


SESSION_SCHEMA = pa.schema([
    ("key", pa.string()),
    ("session_start_us", pa.int64()),
    ("session_end_us", pa.int64()),
    ("n", pa.int64()),
    ("sum_value", pa.float64()),
])


class SessionStreamAggregator:
    """Stateful SESSION windows over the micro-batch stream — the streaming
    form of the batch `sessionize` query (split a key's event stream at
    > gap silence): the `.groupBy(session_window(...))` shape of Spark
    streaming, re-expressed on the lakehouse.

    Semantics: a session is a maximal run of a key's events where
    consecutive sorted timestamps differ ≤ gap. Open state per key is a
    set of disjoint intervals [min_ts, max_ts, n, sum]; each incoming
    tick's rows are pre-aggregated per key (vectorized gap-split within
    the tick), then INTERVAL-MERGED into the open set — so out-of-order
    arrival within the lateness bound converges to exactly the batch
    answer (two open intervals merge when a bridging row lands between
    them). A session flushes once the watermark (max ts seen − lateness)
    passes its end + gap: no future in-bound row can extend it. Rows
    behind an already-flushed horizon side-output to the late audit
    stream (IPC-in-summary, as in the tumbling aggregator).

    Exactly-once: open intervals + offset ride in each flush commit's
    snapshot summary; a crash-rebuilt aggregator resumes from the log.
    State is bounded by #keys × open intervals (≤ lateness/gap + 1)."""

    def __init__(self, root: str, gap_us: int, allowed_lateness_us: int,
                 key_col: str = "key", ts_col: str = "ts",
                 value_col: str = "value"):
        self.gap_us = gap_us
        self.lateness_us = allowed_lateness_us
        self.key_col, self.ts_col, self.value_col = key_col, ts_col, value_col
        try:
            self.table = Table.load(root)
        except FileNotFoundError:
            self.table = Table.create(
                root, SESSION_SCHEMA, partition_column="key", num_buckets=4,
                sort_order=("key", "session_start_us"),
            )
        # {key: [[min_ts, max_ts, n, sum], ...] sorted by min_ts}
        self.open: dict = {}
        self.max_ts = -1
        self.last_offset = -1
        self.flushed_horizon: dict = {}  # key -> last flushed session end
        for snap in self.table.snapshots():
            st = snap.summary.get("sstream_state")
            if st is not None:
                self.open = {k: [list(iv) for iv in ivs]
                             for k, ivs in st["open"]}
                self.max_ts = st["max_ts"]
                self.last_offset = st["offset"]
                self.flushed_horizon = dict(st["horizon"])

    def _merge_key(self, key: str, intervals: list) -> list:
        """Merge new [min,max,n,sum] intervals into the key's open set;
        returns rows that fall behind the flushed horizon (true late)."""
        horizon = self.flushed_horizon.get(key)
        late = []
        ivs = self.open.get(key, [])
        for iv in intervals:
            # A chain whose FIRST row lands within gap of a flushed session's
            # end would, in the batch answer, have merged the WHOLE chain into
            # that (already emitted) session — so the whole interval is late.
            if horizon is not None and iv[0] <= horizon + self.gap_us:
                late.append(iv)
                continue
            ivs.append(list(iv))
        ivs.sort(key=lambda x: x[0])
        merged: list = []
        for iv in ivs:
            if merged and iv[0] - merged[-1][1] <= self.gap_us:
                m = merged[-1]
                m[1] = max(m[1], iv[1])
                m[2] += iv[2]
                m[3] += iv[3]
            else:
                merged.append(iv)
        if merged:
            self.open[key] = merged
        return late

    def process_tick(self, offset: int, batch: pa.Table) -> bool:
        if offset <= self.last_offset:
            return False
        import numpy as np
        import pandas as pd

        late_parts = []
        if len(batch):
            df = pd.DataFrame({
                "k": batch[self.key_col].to_pandas(),
                "t": pc.cast(batch[self.ts_col], pa.int64()).to_pandas(),
                "v": batch[self.value_col].to_pandas(),
            }).sort_values(["k", "t"], kind="mergesort")
            # vectorized within-tick gap split per key
            newkey = df["k"].ne(df["k"].shift())
            gap = df["t"].diff().gt(self.gap_us) | newkey
            df["s"] = gap.cumsum()
            agg = df.groupby(["k", "s"], sort=True).agg(
                lo=("t", "min"), hi=("t", "max"),
                n=("t", "size"), sm=("v", "sum")).reset_index()
            for k, g in agg.groupby("k", sort=True):
                late_ivs = self._merge_key(
                    str(k), g[["lo", "hi", "n", "sm"]].values.tolist())
                for lo, hi, n, sm in late_ivs:
                    sel = df[(df["k"] == k) & (df["t"] >= lo)
                             & (df["t"] <= hi)]
                    late_parts.append(pa.table({
                        self.key_col: pa.array(sel["k"]),
                        self.ts_col: pa.array(sel["t"].astype("int64")),
                        self.value_col: pa.array(sel["v"]),
                    }))
            self.max_ts = max(self.max_ts, int(df["t"].max()))

        # flush sessions no in-bound row can extend
        wm = self.max_ts - self.lateness_us
        rows = []
        for k in sorted(self.open):
            keep = []
            for iv in self.open[k]:
                if iv[1] + self.gap_us < wm:
                    rows.append((k, *iv))
                    h = self.flushed_horizon.get(k)
                    self.flushed_horizon[k] = (
                        iv[1] if h is None else max(h, iv[1]))
                else:
                    keep.append(iv)
            if keep:
                self.open[k] = keep
            else:
                self.open.pop(k, None)

        added = []
        if rows:
            import numpy as np

            from raylake.core.hashing import partition_of

            out = pa.table({
                "key": pa.array([r[0] for r in rows]),
                "session_start_us": pa.array([r[1] for r in rows], pa.int64()),
                "session_end_us": pa.array([r[2] for r in rows], pa.int64()),
                "n": pa.array([int(r[3]) for r in rows], pa.int64()),
                "sum_value": pa.array([float(r[4]) for r in rows],
                                      pa.float64()),
            })
            parts = partition_of(out["key"], self.table.num_buckets)
            for p in np.unique(parts):
                added.append(self.table.write_file(
                    out.filter(pa.array(parts == p)), int(p)))

        state = {
            "offset": offset,
            "max_ts": self.max_ts,
            "open": sorted(
                (k, [list(iv) for iv in ivs])
                for k, ivs in self.open.items()),
            "horizon": sorted(self.flushed_horizon.items()),
        }
        summary = {"stream_offset": offset, "sstream_state": state}
        if late_parts:
            stash_late(self.table, summary, "wstream_late",
                       pa.concat_tables(late_parts))
        self.table.commit("stream-session", added, summary=summary)
        self.last_offset = offset
        return True

    def run(self, ticks) -> int:
        n = 0
        for offset, batch in ticks:
            if self.process_tick(offset, batch):
                n += 1
        return n

    def final_flush(self) -> None:
        self.max_ts = max(self.max_ts, 2**62)
        self.process_tick(
            self.last_offset + 1,
            pa.table({self.key_col: pa.array([], pa.string()),
                      self.ts_col: pa.array([], pa.int64()),
                      self.value_col: pa.array([], pa.float64())}))

    def results(self) -> pa.Table:
        return self.table.refresh().scan_arrow(sort=True)

    def late_table(self) -> pa.Table | None:
        return read_late(self.table, "wstream_late")


SSJOIN_SCHEMA = pa.schema([
    ("id_l", pa.int64()),
    ("id_r", pa.int64()),
    ("key", pa.string()),
    ("t_l_us", pa.int64()),
    ("t_r_us", pa.int64()),
])

_SIDE_SCHEMA = pa.schema([
    ("id", pa.int64()), ("key", pa.string()), ("t", pa.int64()),
])


class StreamStreamJoiner:
    """Event-time stream-stream INTERVAL join with watermark state
    eviction — the `l.withWatermark(..).join(r.withWatermark(..), key AND
    |tL - tR| <= tol)` shape of the reference's dead Spark structured-
    streaming path (ref: /root/reference/src/elt/silver/_silver_handler.py:
    233-255), re-expressed on the lakehouse. A pair (l, r) emits exactly
    once when keys match and |t_l - t_r| <= tolerance_us: per tick, new_L
    joins (buffer_R ∪ new_R) and new_R joins buffer_L — cross-tick pairs
    form exactly once because buffer×buffer was emitted by earlier ticks.
    A buffered row is evicted once the JOINT watermark (min of both sides'
    max event ts, minus allowed lateness) passes t + tolerance — no future
    ON-TIME other-side row can match it, so state is bounded by
    O(arrival_rate × (tolerance + lateness)), not the stream length.
    An arrival is LATE when t < watermark (= min(max_ts) - lateness,
    Spark semantics) — NOT watermark - tolerance: a row admitted at
    t in [wm - tol, wm) could match rows already evicted (evicted at
    t' < wm - tol) and that pair would be lost with no audit record.
    Keeping evict_threshold = late_threshold - tol guarantees every
    admitted row's full match window [t - tol, t + tol] is still
    buffered. State (both buffers + per-side max ts) + emitted pairs +
    the stream offset advance in ONE snapshot commit: exactly-once on
    replay with no side checkpoint store (state-in-snapshot, as
    WindowedStreamAggregator above; Spark needs a checkpointLocation).
    Rows behind the watermark on arrival may have lost matches, so they
    are side-output to the tick commit's late-audit IPC, never silently
    dropped.

    join_type="left_outer" adds Spark's left-outer semantics: a left row
    that reaches state EVICTION without ever having matched emits exactly
    once as (id_l, id_r=OUTER_SENTINEL, key, t_l_us, t_r_us=SENTINEL) —
    correct because eviction runs at wm - tol while admission runs at wm,
    so any right row admitted later has t_r ≥ wm and its match window
    [t_r - tol, t_r + tol] lies entirely above the evicted row's t_l
    (< wm - tol): no admitted right row can ever match an evicted left.
    The matched-id set is part of the per-tick snapshot state (bounded by
    the left buffer size, i.e. O(rate × (tolerance + lateness)));
    flush_outer() closes the stream by emitting the still-buffered
    unmatched lefts — replay-safe via a summary flag."""

    #: sentinel for the missing right side of an outer row (NULL would
    #: drift int64→float64 through pandas on the driver-gate path)
    OUTER_SENTINEL = -1

    def __init__(self, root: str, tolerance_us: int,
                 allowed_lateness_us: int, join_type: str = "inner"):
        if join_type not in ("inner", "left_outer"):
            raise ValueError(f"unsupported join_type {join_type!r}")
        self.join_type = join_type
        self.matched_l: set[int] = set()
        self.flushed = False
        self.tol = tolerance_us
        self.lateness_us = allowed_lateness_us
        try:
            self.table = Table.load(root)
        except FileNotFoundError:
            self.table = Table.create(
                root, SSJOIN_SCHEMA, partition_column="key", num_buckets=4,
                sort_order=("key", "id_l", "id_r"),
            )
        self.buf = {"l": _SIDE_SCHEMA.empty_table(),
                    "r": _SIDE_SCHEMA.empty_table()}
        self.max_ts = {"l": -1, "r": -1}
        self.last_offset = -1
        for snap in self.table.snapshots():
            st = snap.summary.get("ssjoin_state")
            if st is not None:
                self.buf = {
                    s: pa.table({"id": pa.array(v[0], pa.int64()),
                                 "key": pa.array(v[1], pa.string()),
                                 "t": pa.array(v[2], pa.int64())})
                    for s, v in st["buf"].items()
                }
                self.max_ts = {k: int(v) for k, v in st["max_ts"].items()}
                self.last_offset = st["offset"]
                self.matched_l = set(st.get("matched_l", ()))
                self.flushed = bool(st.get("flushed", False))

    def _pairs(self, l: pa.Table, r: pa.Table) -> pa.Table:
        if len(l) == 0 or len(r) == 0:
            return SSJOIN_SCHEMA.empty_table()
        ldf = l.to_pandas().rename(columns={"id": "id_l", "t": "t_l_us"})
        rdf = r.to_pandas().rename(columns={"id": "id_r", "t": "t_r_us"})
        m = ldf.merge(rdf, on="key")
        m = m[(m["t_l_us"] - m["t_r_us"]).abs() <= self.tol]
        return pa.Table.from_pandas(
            m[["id_l", "id_r", "key", "t_l_us", "t_r_us"]],
            preserve_index=False).cast(SSJOIN_SCHEMA)

    def _outer_rows(self, gone: pa.Table) -> pa.Table:
        """Outer-emit the never-matched rows of an evicted left slice."""
        if len(gone) == 0:
            return SSJOIN_SCHEMA.empty_table()
        um = pa.array([i not in self.matched_l
                       for i in gone["id"].to_pylist()])
        gone = gone.filter(um)
        sent = pa.array([self.OUTER_SENTINEL] * len(gone), pa.int64())
        return pa.table({
            "id_l": gone["id"], "id_r": sent, "key": gone["key"],
            "t_l_us": gone["t"], "t_r_us": sent,
        }).cast(SSJOIN_SCHEMA)

    def _write_rows(self, out: pa.Table) -> list:
        import numpy as np

        from raylake.core.hashing import partition_of

        added = []
        if len(out):
            parts = partition_of(out["key"], self.table.num_buckets)
            for p in np.unique(parts):
                added.append(self.table.write_file(
                    out.filter(pa.array(parts == p)), int(p)))
        return added

    def process_tick(self, offset: int, left: pa.Table,
                     right: pa.Table) -> bool:
        """Returns False when the offset was already committed (replay)."""
        if offset <= self.last_offset:
            return False
        if self.flushed:
            # flush_outer() closed the stream: admitting more left rows
            # would strand them (a later flush is a no-op on the flag), so
            # refuse loudly instead of silently dropping their outer emit.
            raise RuntimeError(
                "stream already closed by flush_outer(); cannot process "
                f"tick offset={offset}")
        # Late check at the WATERMARK itself; eviction (keep_from below)
        # runs tol lower, so an admitted row's matches are never evicted.
        horizon = min(self.max_ts.values()) - self.lateness_us
        live, late_parts = {}, []
        left = left.select(["id", "key", "t"]).cast(_SIDE_SCHEMA)
        right = right.select(["id", "key", "t"]).cast(_SIDE_SCHEMA)
        for side, b in (("l", left), ("r", right)):
            lm = pc.less(b["t"], horizon) if len(b) else None
            if lm is not None and pc.any(lm).as_py():
                late_parts.append(b.filter(lm).append_column(
                    "side", pa.array([side] * pc.sum(lm).as_py())))
                b = b.filter(pc.invert(lm))
            live[side] = b
        out = pa.concat_tables([
            self._pairs(live["l"],
                        pa.concat_tables([self.buf["r"], live["r"]])),
            self._pairs(self.buf["l"], live["r"]),
        ])
        if self.join_type == "left_outer" and len(out):
            self.matched_l.update(out["id_l"].to_pylist())
        for side in ("l", "r"):
            if len(live[side]):
                self.max_ts[side] = max(
                    self.max_ts[side], pc.max(live[side]["t"]).as_py())
                self.buf[side] = pa.concat_tables(
                    [self.buf[side], live[side]])
        keep_from = min(self.max_ts.values()) - self.lateness_us - self.tol
        if self.join_type == "left_outer" and len(self.buf["l"]):
            evict = pc.less(self.buf["l"]["t"], keep_from)
            if pc.any(evict).as_py():
                gone = self.buf["l"].filter(evict)
                out = pa.concat_tables([out, self._outer_rows(gone)])
                self.matched_l.difference_update(gone["id"].to_pylist())
        for side in ("l", "r"):
            self.buf[side] = self.buf[side].filter(
                pc.greater_equal(self.buf[side]["t"], keep_from))

        added = self._write_rows(out)
        state = {
            "offset": offset,
            "max_ts": self.max_ts,
            "buf": {s: [t["id"].to_pylist(), t["key"].to_pylist(),
                        t["t"].to_pylist()]
                    for s, t in self.buf.items()},
        }
        if self.join_type == "left_outer":
            state["matched_l"] = sorted(self.matched_l)
        summary = {"stream_offset": offset, "ssjoin_state": state}
        if late_parts:
            stash_late(self.table, summary, "ssjoin_late",
                       pa.concat_tables(late_parts))
        self.table.commit("stream-ssjoin", added, summary=summary)
        self.last_offset = offset
        return True

    def run(self, ticks) -> int:
        n = 0
        for offset, left, right in ticks:
            if self.process_tick(offset, left, right):
                n += 1
        return n

    def flush_outer(self) -> None:
        """Close the stream (left_outer only): outer-emit every still-
        buffered never-matched left row. Equivalent to both sides' event
        time advancing to +∞. Replay-safe: the flush rides its own commit
        with a `flushed` state flag, so a crashed-and-replayed flush is a
        no-op the second time."""
        if self.join_type != "left_outer" or self.flushed:
            return
        out = self._outer_rows(self.buf["l"])
        added = self._write_rows(out)
        state = {
            "offset": self.last_offset, "max_ts": self.max_ts,
            "buf": {s: [[], [], []] for s in ("l", "r")},
            "matched_l": [], "flushed": True,
        }
        self.table.commit(
            "stream-ssjoin-flush", added,
            summary={"stream_offset": self.last_offset,
                     "ssjoin_state": state})
        # In-memory state mutates only AFTER the commit (the process_tick
        # convention): a commit that raises leaves the buffers intact, so
        # a retried flush_outer() re-emits instead of silently dropping
        # the end-of-stream outer rows behind an already-set flag.
        self.buf = {"l": _SIDE_SCHEMA.empty_table(),
                    "r": _SIDE_SCHEMA.empty_table()}
        self.matched_l = set()
        self.flushed = True

    def results(self) -> pa.Table:
        return self.table.refresh().scan_arrow(sort=True)

    def late_table(self) -> pa.Table | None:
        return read_late(self.table, "ssjoin_late")


DEDUP_SCHEMA = pa.schema([
    ("key", pa.string()),
    ("t", pa.int64()),
    ("cents", pa.int64()),
])


class StreamDeduplicator:
    """Streaming DEDUPLICATION with watermark state eviction — the
    `.withWatermark(...).dropDuplicates([id])` shape of Spark structured
    streaming (the reference's dead streaming path delegates dedup to its
    batch silver MERGE, ref /root/reference/src/elt/silver/
    _silver_handler.py:124-143), re-expressed on the lakehouse.

    Semantics per tick (arrival-ordered micro-batches):
    - the watermark advances from the event-time column of ALL rows
      (pre-dedup); the LATE check for tick N uses the watermark computed
      through tick N-1 (Spark's batch-boundary watermark — rows in the
      same micro-batch as a large event-time jump are not retroactively
      late), while state EVICTION uses the post-tick watermark;
    - a row with ts < wm is TOO LATE: its key may already be evicted, so
      admitting it could double-emit — it side-outputs to the tick commit's
      late-audit IPC (never silent loss, never emitted);
    - of the remaining rows, the first occurrence of each key (in-tick,
      then against the seen-state) is EMITTED (appended to the result
      table); later occurrences drop silently — that is dedup working;
    - seen-state evicts keys whose ts < wm: a duplicate can only arrive
      within the lateness bound of its original, so the evicted key can
      never be legitimately re-admitted. State is bounded by
      O(arrival_rate × lateness), not the stream length.

    Exactly-once: the per-tick STATE DELTA (added keys, evicted keys,
    max_ts, offset) rides in each tick's snapshot summary, atomic with the
    emitted rows (a full-state-per-tick checkpoint would be quadratic when
    lateness disables eviction); every CHECKPOINT_EVERY ticks a full-state
    checkpoint is embedded, so a crash-rebuilt instance replays only the
    last checkpoint + its trailing deltas, and re-delivered ticks no-op on
    the offset check (state-in-snapshot, as the aggregators above)."""

    def __init__(self, root: str, allowed_lateness_us: int):
        self.lateness_us = allowed_lateness_us
        try:
            self.table = Table.load(root)
        except FileNotFoundError:
            self.table = Table.create(
                root, DEDUP_SCHEMA, partition_column="key", num_buckets=4,
                sort_order=("key", "t"),
            )
        self.seen: dict = {}  # key -> event ts (for eviction)
        self.max_ts = -1
        self.last_offset = -1
        self.ticks = 0
        # resume: start from the LAST full-state checkpoint (written every
        # CHECKPOINT_EVERY ticks), then apply only the deltas after it —
        # bounds replay to O(checkpoint + window of deltas) instead of the
        # whole stream history
        snaps = [s for s in self.table.snapshots()
                 if s.summary.get("dstream_delta") is not None]
        start = 0
        for i in range(len(snaps) - 1, -1, -1):
            if snaps[i].summary["dstream_delta"].get("full") is not None:
                start = i
                break
        prev_tick = None
        for snap in snaps[start:]:
            st = snap.summary["dstream_delta"]
            tick_no = st.get("tick_no", (prev_tick or 0) + 1)
            # GAP GUARD: snapshot expiry silently drops log entries; a
            # delta chain with a hole (or a first delta that is neither
            # tick 1 nor a checkpoint) would rebuild INCOMPLETE seen-state
            # and silently re-admit old keys — refuse instead (same
            # contract as Table.changes on expired ranges).
            if st.get("full") is None and tick_no != (
                    1 if prev_tick is None else prev_tick + 1):
                raise RuntimeError(
                    f"dedup state history has expired gaps (delta tick "
                    f"{tick_no} follows "
                    f"{'start' if prev_tick is None else prev_tick}); "
                    f"exactly-once resume is impossible — retain more "
                    f"snapshots or re-seed from a checkpoint")
            if st.get("full") is not None:
                self.seen = dict(st["full"])
            else:
                for k, t in st["added"]:
                    self.seen[k] = t
                for k in st["evicted"]:
                    self.seen.pop(k, None)
            self.max_ts = st["max_ts"]
            self.last_offset = st["offset"]
            self.ticks = tick_no
            prev_tick = tick_no

    CHECKPOINT_EVERY = 32

    def process_tick(self, offset: int, batch: pa.Table) -> bool:
        """`batch` columns: key (string), t (int64 event-time us), cents."""
        if offset <= self.last_offset:
            return False
        import numpy as np
        import pandas as pd

        late = None
        emitted = None
        added_pairs: list = []
        evicted_keys: list = []
        if len(batch):
            df = pd.DataFrame({
                "key": batch["key"].to_pandas(),
                "t": batch["t"].to_pandas(),
                "cents": batch["cents"].to_pandas(),
            })
            # late check against the watermark through the PREVIOUS tick
            # (Spark's batch-boundary watermark)
            wm_late = self.max_ts - self.lateness_us
            is_late = df["t"].lt(wm_late).to_numpy()
            late = df[is_late]
            ok = df[~is_late]
            # in-tick first occurrence (stable: arrival order within tick)
            ok = ok[~ok["key"].duplicated(keep="first")]
            # cross-tick: drop keys already seen
            fresh = ok[~ok["key"].isin(self.seen.keys())]
            for k, t in zip(fresh["key"], fresh["t"]):
                self.seen[k] = int(t)
                added_pairs.append((k, int(t)))
            emitted = fresh
            # advance the watermark, then evict state behind it
            self.max_ts = max(self.max_ts, int(df["t"].max()))
            wm_evict = self.max_ts - self.lateness_us
            evicted_keys = sorted(
                k for k, t in self.seen.items() if t < wm_evict)
            for k in evicted_keys:
                del self.seen[k]

        added = []
        if emitted is not None and len(emitted):
            import numpy as np

            from raylake.core.hashing import partition_of

            out = pa.table({
                "key": pa.array(emitted["key"], pa.string()),
                "t": pa.array(emitted["t"].astype("int64")),
                "cents": pa.array(emitted["cents"].astype("int64")),
            })
            parts = partition_of(out["key"], self.table.num_buckets)
            for p in np.unique(parts):
                added.append(self.table.write_file(
                    out.filter(pa.array(parts == p)), int(p)))

        self.ticks += 1
        delta = {
            "offset": offset,
            "max_ts": self.max_ts,
            "added": sorted(added_pairs),
            "evicted": evicted_keys,
            "tick_no": self.ticks,
        }
        if self.ticks % self.CHECKPOINT_EVERY == 0:
            # periodic full-state checkpoint (post-tick state): replaces
            # delta replay from stream start on resume
            delta["full"] = sorted(self.seen.items())
        summary = {"stream_offset": offset, "dstream_delta": delta}
        if late is not None and len(late):
            lt = pa.table({
                "key": pa.array(late["key"], pa.string()),
                "t": pa.array(late["t"].astype("int64")),
                "cents": pa.array(late["cents"].astype("int64")),
            })
            stash_late(self.table, summary, "dstream_late", lt)
        self.table.commit("stream-dedup", added, summary=summary)
        self.last_offset = offset
        return True

    def run(self, ticks) -> int:
        n = 0
        for offset, batch in ticks:
            if self.process_tick(offset, batch):
                n += 1
        return n

    def results(self) -> pa.Table:
        return self.table.refresh().scan_arrow(sort=True)

    def late_table(self) -> pa.Table | None:
        return read_late(self.table, "dstream_late")
