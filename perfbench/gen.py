"""Seeded input generation for the benchmark workloads.

Everything the program receives is built here from the benchmark seed, with
the benchmark's own rules (not raylake's fixture module), so a change to the
program cannot change its own inputs. Two text modes:

- ``prose``: pseudo-words drawn from a seeded vocabulary under a Zipf law.
  It compresses about 3.5x under zstd, like natural-language transcripts.
- ``digest``: the fixture convention, a sha256 hex digest repeated to the
  turn length. It compresses about 20x.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BASE_TS_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z
HOUR_US = 3_600_000_000
TOOLS = ["bash", "search", "browser", "python", "editor"]
KEYS = ["conv_id", "turn_idx"]

_ONSETS = ["", "b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "th", "st", "ch"]
_NUCLEI = ["a", "e", "i", "o", "u", "ea", "ou", "ai", "an", "en", "er", "in",
           "on", "or", "al"]


def conv_id(i: int) -> str:
    return f"conv-{i:08d}"


class Gen:
    """All random draws of one workload run come from this object's stream,
    so the same seed reproduces the same inputs in the same order."""

    def __init__(self, seed: int, text: str, max_text: int,
                 buckets: int = 1):
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.text = text
        self.max_text = max_text
        self.buckets = buckets
        self.salt = 0
        if text == "prose":
            self._init_vocab(6000, zipf_a=1.15)

    def _init_vocab(self, n_words: int, zipf_a: float) -> None:
        """The vocabulary and its word ranks are fixed (seed 0), like a
        language; the run's seed only changes which words are drawn."""
        vrng = np.random.default_rng(0)
        syl = [o + v for o in _ONSETS for v in _NUCLEI]
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < n_words:
            k = int(vrng.integers(1, 4))
            w = "".join(syl[j] for j in vrng.integers(0, len(syl), k))
            if w not in seen:
                seen.add(w)
                words.append(w)
        p = 1.0 / np.arange(1, n_words + 1) ** zipf_a
        edges = np.round(np.cumsum(p / p.sum()) * 65536).astype(np.int64)
        counts = np.diff(np.concatenate([[0], edges]))
        # 16-bit alias table: one uint16 draw picks a word with Zipf odds
        self._alias = np.repeat(np.arange(n_words), counts)[:65536]
        # each word and its trailing space as one row of a byte matrix
        width = max(len(w) for w in words) + 1
        self._wlen = np.array([len(w) + 1 for w in words])
        self._wmat = np.full((n_words, width), ord(" "), np.uint8)
        for i, w in enumerate(words):
            self._wmat[i, :len(w)] = np.frombuffer(w.encode(), np.uint8)
        self._mean_word = float(self._wlen[self._alias].mean())

    # ----------------------------------------------------------------- text

    def texts(self, conv: np.ndarray, turn: np.ndarray) -> pa.Array:
        n = len(conv)
        if self.text == "prose":
            lens = 50 + self.rng.integers(0, self.max_text - 49, n)
            total = int(lens.sum())
            cols = np.arange(self._wmat.shape[1])
            parts, have = [], 0
            while have < total:
                nw = min(1 << 21, int((total - have) / self._mean_word) + 64)
                ids = self._alias[self.rng.integers(0, 65536, nw,
                                                    dtype=np.uint16)]
                chunk = self._wmat[ids][cols < self._wlen[ids][:, None]]
                parts.append(chunk)
                have += len(chunk)
            blob = np.concatenate(parts)[:total].tobytes()
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            return pa.StringArray.from_buffers(
                n, pa.py_buffer(offs.tobytes()), pa.py_buffer(blob))
        out = []
        salt = f"{self.seed}:{self.salt}"
        for c, t in zip(conv, turn):
            h = hashlib.sha256(f"{c}:{t}:{salt}".encode()).hexdigest()
            m = 50 + int(h[:8], 16) % (self.max_text - 49)
            out.append((h * (m // 64 + 1))[:m])
        return pa.array(out, pa.string())

    # ----------------------------------------------------------------- rows

    def rows(self, conv: np.ndarray, turn: np.ndarray,
             ts: np.ndarray) -> pa.Table:
        """Transcript rows for (conv_id, turn_idx, ts) with drawn role/tool
        and fresh text."""
        n = len(conv)
        is_tool = self.rng.random(n) < 0.08
        role = np.where(is_tool, "tool",
                        np.where(turn % 2 == 0, "user", "assistant"))
        tool = np.where(is_tool,
                        np.array(TOOLS, dtype=object)[
                            self.rng.integers(0, len(TOOLS), n)], None)
        return pa.table({
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": self.texts(conv, turn),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        })

    def conversations(self, first: int, n_turns: int, max_turns: int,
                      ) -> pa.Table:
        """Conversations numbered from `first` holding about `n_turns` turns,
        with Zipf(1.3) lengths clipped to [2, max_turns]. The lengths are
        dealt to the conversations in a fixed order (drawn with seed 0); the
        run's seed shuffles them among the conversations of each table
        bucket. So every seed builds the same table shape: the same turns
        per bucket, hence the same files per bucket."""
        from raylake.core.hashing import partition_of

        srng = np.random.default_rng(0)
        sizes = []
        total = 0
        while total < n_turns:
            s = int(min(max(srng.zipf(1.3), 2), max_turns))
            s = min(s, max(2, n_turns - total))
            sizes.append(s)
            total += s
        sizes = np.array(sizes, dtype=np.int64)
        ids = np.array([conv_id(first + i) for i in range(len(sizes))],
                       dtype=object)
        bucket = partition_of(pa.array(ids, pa.string()), self.buckets)
        for b in np.unique(bucket):
            idx = np.flatnonzero(bucket == b)
            sizes[idx] = sizes[self.rng.permutation(idx)]
        conv = np.repeat(ids, sizes)
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        turn = (np.arange(len(conv)) - starts).astype(np.int32)
        start_us = self.rng.integers(0, 30 * 86400, len(sizes)) * 1_000_000
        gaps = self.rng.integers(1, 121, len(conv)) * 1_000_000
        csum = np.cumsum(gaps)
        ts = (BASE_TS_US + np.repeat(start_us, sizes)
              + csum - np.repeat(csum[np.cumsum(sizes) - sizes] -
                                 gaps[np.cumsum(sizes) - sizes], sizes))
        return self.rows(conv, turn, ts)

    # --------------------------------------------------------------- batches

    def late_batch(self, live: pa.Table, update_frac: float,
                   insert_frac: float) -> pa.Table:
        """Updates of `update_frac` of the live rows (new text, ts + 1 h)
        plus `insert_frac`·rows new turns appended to random conversations'
        tails (ts + 2 h after the conversation's last turn)."""
        self.salt += 1
        n = len(live)
        upd = np.sort(self.rng.choice(n, max(1, int(n * update_frac)),
                                      replace=False))
        u = live.take(pa.array(upd))
        up = self.rows(np.asarray(u["conv_id"].to_pylist(), dtype=object),
                       u["turn_idx"].to_numpy(),
                       u["ts"].cast(pa.int64()).to_numpy() + HOUR_US)
        tails = _tails(live)
        pick = self.rng.integers(0, len(tails),
                                 max(1, int(n * insert_frac)))
        pick.sort()
        # rank of each pick among equal picks → consecutive new turn numbers
        first = np.searchsorted(pick, pick, side="left")
        rank = np.arange(len(pick)) - first
        t = tails.take(pa.array(pick))
        ins = self.rows(
            np.asarray(t["conv_id"].to_pylist(), dtype=object),
            t["turn_idx_max"].to_numpy() + 1 + rank,
            t["ts_max"].cast(pa.int64()).to_numpy() + 2 * HOUR_US
            + rank * 1_000_000)
        return pa.concat_tables([up, ins])

    def tail_upsert(self, live: pa.Table, n_convs: int, per_conv: int,
                    new_per_conv: int) -> pa.Table:
        """Late turns for `n_convs` live conversations (stratified by
        length, see `by_length`): their last `per_conv` turns rewritten
        plus `new_per_conv` new turns each."""
        self.salt += 1
        t = self.by_length(live, n_convs)
        conv = np.asarray(t["conv_id"].to_pylist(), dtype=object)
        mx = t["turn_idx_max"].to_numpy().astype(np.int64)
        mts = t["ts_max"].cast(pa.int64()).to_numpy()
        k = np.arange(-per_conv + 1, new_per_conv + 1)
        turns = (mx[:, None] + k[None, :]).ravel()
        cv = np.repeat(conv, len(k))
        keep = turns >= 0
        cv, turns = cv[keep], turns[keep]
        ts = np.repeat(mts, len(k))[keep] + HOUR_US + turns * 1_000_000
        return self.rows(cv, turns, ts)

    def live_keys(self, live: pa.Table, n: int) -> pa.Table:
        """`n` live keys, stratified over the rows in their (seeded,
        reproducible) order."""
        idx = self._strata(len(live), n)
        return live.select(KEYS).take(pa.array(idx)).combine_chunks()

    def lookup_convs(self, live: pa.Table, n: int) -> list[str]:
        convs = self.by_length(live, n)["conv_id"].to_pylist()
        return [convs[i] for i in self.rng.permutation(len(convs))]

    def by_length(self, live: pa.Table, n: int) -> pa.Table:
        """`n` live conversations with their last turn and timestamp,
        uniform over conversations but stratified by length: every
        n-quantile of the length distribution gets one, so costs that
        grow with length do not hinge on how many long conversations one
        seed happens to draw. When there are at least `n` table buckets,
        each pick lies in another bucket (the next conversation in length
        order whose bucket is free), so an operation on them always spans
        `n` buckets, and so `n` rewrite tasks."""
        from raylake.core.hashing import partition_of

        t = live.group_by("conv_id", use_threads=False).aggregate(
            [("turn_idx", "count"), ("turn_idx", "max"), ("ts", "max")]
        ).sort_by([("turn_idx_count", "ascending"), ("conv_id", "ascending")])
        idx = self._strata(len(t), n)
        if n <= self.buckets:
            bucket = partition_of(t["conv_id"], self.buckets)
            used: set[int] = set()
            for k, i in enumerate(idx):
                while bucket[i] in used:
                    i = (i + 1) % len(t)
                used.add(int(bucket[i]))
                idx[k] = i
        return t.take(pa.array(idx))

    def _strata(self, k: int, n: int) -> np.ndarray:
        """One index in each of `n` equal strata of range(k), one shared
        random offset."""
        n = min(n, k)
        return ((np.arange(n) + self.rng.random()) * k / n).astype(np.int64)


# ------------------------------------------------------------------ models

def _tails(live: pa.Table) -> pa.Table:
    """Last turn number and timestamp per conversation, in first-seen
    order (single-threaded, so the order repeats)."""
    return live.group_by("conv_id", use_threads=False).aggregate(
        [("turn_idx", "max"), ("ts", "max")])


def anti_join(t: pa.Table, keys: pa.Table) -> pa.Table:
    """Rows of `t` whose (conv_id, turn_idx) is not in `keys`, in their
    original order (so later seeded draws from `t` stay reproducible)."""
    if len(keys) == 0:
        return t
    pos = t.select(KEYS).append_column(
        "__row", pa.array(np.arange(len(t), dtype=np.int64)))
    hit = pos.join(keys.select(KEYS), keys=KEYS, join_type="left semi",
                   use_threads=False)["__row"]
    keep = np.ones(len(t), dtype=bool)
    keep[hit.to_numpy()] = False
    return t.filter(pa.array(keep))


def sort_keys(t: pa.Table) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in KEYS])


def upsert_model(model: pa.Table, src: pa.Table) -> pa.Table:
    """Last-writer-wins reference: source rows replace target rows with the
    same key (source keys are unique here, so no tie-break is needed)."""
    return pa.concat_tables([anti_join(model, src), src])
