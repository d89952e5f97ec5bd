"""Deterministic, vectorized hashing + Z-order key interleaving.

Partition assignment must be stable across processes and Ray workers (the
fixture generator, the append writer, and MERGE planning all have to agree),
so we use `pandas.util.hash_array` (SipHash with a fixed key — deterministic
for a given pandas install) over object arrays, not Python's randomized
`hash()`.

Z-order (Morton) interleaving follows the standard magic-mask bit spreading
(public domain bit-twiddling; cf. the Iceberg Z-order spec the reference's
tables could use but never exercise — SURVEY §2.8 T6).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def stable_hash64(values) -> np.ndarray:
    """uint64 deterministic hash of a string array (pa.Array/ChunkedArray/np/list)."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        arr = values.to_pandas().to_numpy(dtype=object)
    else:
        arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=True).astype(np.uint64)


def is_string_type(t: pa.DataType) -> bool:
    """True for the string column types hash32 bounds (`<col>_h32`) and
    the curve's hash dimension apply to."""
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def hash32_rows(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row `stable_hash64 >> 32` of a string column, each distinct
    value hashed once: every chunk is dictionary-encoded, its dictionary
    (distinct values, so pandas' own factorize pass is skipped — the
    hashes are the same) is hashed and gathered by the indices. Null rows
    hold an arbitrary value; callers mask them with the column's validity.
    CPU on a 1-CPU host, one chunk: 1.6 ms for 50k rows of 60 keys and
    0.09 ms for 100 rows of 5 (`stable_hash64`: 5.6 and 0.27 ms)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = [np.zeros(0, np.uint64)]
    for ch in chunks:
        enc = pc.dictionary_encode(ch)
        if len(enc.dictionary) == 0:  # empty or all-null chunk
            out.append(np.zeros(len(ch), np.uint64))
            continue
        h = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False),
                               categorize=False).astype(np.uint64)
        idx = pc.fill_null(enc.indices, 0).to_numpy(zero_copy_only=False)
        out.append((h >> np.uint64(32))[idx])
    return np.concatenate(out)


SPLITMIX_GOLDEN = 0x9E3779B97F4A7C15
SPLITMIX_C1 = 0xBF58476D1CE4E5B9
SPLITMIX_C2 = 0x94D049BB133111EB
U64_MOD = 1 << 64


def mix64(ids) -> np.ndarray:
    """Vectorized splitmix64 finalizer over an int64 column → uint64.

    The production hash for sampling / sketches: pure numpy (wrapping uint64
    arithmetic, no per-row Python), deterministic across processes, and —
    unlike SipHash — EXACTLY reproducible in ANSI SQL via HUGEINT mod-2^64
    arithmetic (`sql_mix64_cte` emits the DuckDB transcription), so queries
    built on it stay fully oracle-backed."""
    if isinstance(ids, (pa.Array, pa.ChunkedArray)):
        ids = ids.to_numpy(zero_copy_only=False)
    z = np.asarray(ids).astype(np.uint64) + np.uint64(SPLITMIX_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(SPLITMIX_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(SPLITMIX_C2)
    return z ^ (z >> np.uint64(31))


def _sql_wrapmul(expr: str, c: int) -> str:
    """(expr * c) mod 2^64 in DuckDB without INT128 overflow: split c into
    32-bit halves (u64 × u64 products can exceed HUGEINT's 2^127-1)."""
    clo, chi = c & 0xFFFFFFFF, c >> 32
    return (f"((({expr})::HUGEINT * {clo} + ((({expr})::HUGEINT * {chi}) "
            f"% 4294967296) * 4294967296) % {U64_MOD})::UBIGINT")


def sql_mix64_cte(source_sql: str, col: str, carry: tuple = (),
                  alias: str = "mx") -> str:
    """DuckDB CTE chain computing mix64(col) bit-for-bit (xor/shift on
    UBIGINT, wrap-around multiplies via split-half HUGEINT arithmetic; the
    `+n % n` guard matches numpy's two's-complement wrap for negative
    inputs). `source_sql` is a relation exposing `col` and the `carry`
    columns; the final relation `alias` has columns (*carry, h). Splice
    after WITH."""
    n, g = U64_MOD, SPLITMIX_GOLDEN
    pre = "".join(f"{c}, " for c in carry)
    return f"""
{alias}_0 AS (SELECT {pre}((({col}::HUGEINT + {g}) % {n} + {n}) % {n})::UBIGINT
              AS z FROM ({source_sql})),
{alias}_1 AS (SELECT {pre}{_sql_wrapmul("xor(z, z >> 30)", SPLITMIX_C1)}
              AS z FROM {alias}_0),
{alias}_2 AS (SELECT {pre}{_sql_wrapmul("xor(z, z >> 27)", SPLITMIX_C2)}
              AS z FROM {alias}_1),
{alias} AS (SELECT {pre}xor(z, z >> 31) AS h FROM {alias}_2)"""


def partition_of(values, num_buckets: int) -> np.ndarray:
    """bucket = stable_hash64(conv_id) % P  (int32)."""
    return (stable_hash64(values) % np.uint64(num_buckets)).astype(np.int32)


def _spread_bits32(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each uint64 so they occupy even bit positions."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton_interleave(a32: np.ndarray, b32: np.ndarray) -> np.ndarray:
    """Interleave two 32-bit values into one uint64 Z-order key (a gets odd bits)."""
    return (_spread_bits32(a32) << np.uint64(1)) | _spread_bits32(b32)


def hilbert_key(a32: np.ndarray, b32: np.ndarray, order: int = 16) -> np.ndarray:
    """Hilbert curve index of (a, b) at 2^order × 2^order resolution —
    vectorized loop over levels (standard rot/reflect walk; public-domain
    algorithm, cf. Hamilton's compact Hilbert indices). Better locality than
    Morton at the cost of ~order× more vector ops; both are offered because
    the clustering payoff is data-dependent (SURVEY §2.8 T6)."""
    x = (a32.astype(np.uint64) >> np.uint64(32 - order)).astype(np.uint64)
    y = (b32.astype(np.uint64) >> np.uint64(32 - order)).astype(np.uint64)
    rx = np.zeros_like(x)
    ry = np.zeros_like(y)
    d = np.zeros_like(x)
    s = np.uint64(1) << np.uint64(order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.uint64)
        ry = ((y & s) > 0).astype(np.uint64)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # rotate quadrant
        swap = ry == 0
        flip = swap & (rx == 1)
        xf, yf = x.copy(), y.copy()
        x = np.where(swap, yf, x)
        y = np.where(swap, xf, y)
        x = np.where(flip, (s - np.uint64(1)) - x, x)
        y = np.where(flip, (s - np.uint64(1)) - y, y)
        s >>= np.uint64(1)
    return d


def zorder_key(conv_id_values, ts_us: np.ndarray) -> np.ndarray:
    """Z-order key by (conv_id, ts): interleave hash32(conv_id) with ts seconds.

    ts is reduced to whole seconds (32 bits covers 1970..2106); conv hash uses
    the top 32 bits of the stable 64-bit hash. Files cut from a z-sorted stream
    get tight (conv_id, ts) min/max ranges in the manifest → scan pruning.
    """
    h32 = (stable_hash64(conv_id_values) >> np.uint64(32)).astype(np.uint64)
    secs = (ts_us.astype(np.int64) // 1_000_000).astype(np.uint64) & np.uint64(0xFFFFFFFF)
    return morton_interleave(h32, secs)
