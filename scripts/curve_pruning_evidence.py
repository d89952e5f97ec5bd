"""Hilbert-vs-Morton pruning evidence for `zorder(cluster_by=...)`
(VERDICT r03 #7): measure files_read / files_total per curve per lookup
shape on two column pairs, record the table in BASELINE.md.

Lookup shapes:
- point: key equality (prune_point — hash-space `<key>_h32` stats);
- time-range: a 1-day ts window (prune on raw ts min/max stats);
- point+range: both predicates (the z-order design target).

Two clustered pairs:
- (conv_id, ts) on the transcript fixture (the default keys);
- (user_id, ts) on an events-derived table via generic cluster_by.

The transcript pair is measured again after a copy-on-write MERGE of 5%
of its turns (new text), on the same lookups: the "zorder → merge" rows
show whether the merge kept the layout the lookups prune on.

Run: python scripts/curve_pruning_evidence.py  (~2 min, needs /dev/shm)
"""
import json
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRATCH = "/dev/shm/raylake_curve_evidence"


def measure(table, keys, ts_windows, key_col):
    files_total = len(table.live_entries())
    point = np.mean([len(table.prune_point(k)) for k in keys])
    rng = np.mean([len(table.prune(**{"ts": w})) for w in ts_windows])
    both = np.mean([
        len(table.prune(entries=table.prune_point(k), **{"ts": w}))
        for k, w in zip(keys, ts_windows)
    ])
    return {
        "files_total": files_total,
        "point_files_read": round(float(point), 2),
        "range_files_read": round(float(rng), 2),
        "point_range_files_read": round(float(both), 2),
    }


def merge_share(table, full, share, rng, target_file_bytes):
    """MERGE new text into `share` of the turns of `full`; returns the
    write mode the merge chose."""
    from raylake.ops import merge_into

    src = full.take(pa.array(np.sort(rng.choice(
        len(full), int(len(full) * share), replace=False))))
    src = src.set_column(src.schema.get_field_index("text"), "text",
                         pc.binary_join_element_wise("upd-", src["text"], ""))
    snap = merge_into(table, src, target_file_bytes=target_file_bytes)
    table.refresh()
    return snap.summary["write_mode"]


def bench_pair(pair_name, build_fn, key_col, cluster_by,
               target_file_bytes=256 * 1024, merge=None):
    from raylake.ops import zorder

    out = {}
    for curve in ("z", "hilbert"):
        root = f"{SCRATCH}/{pair_name}-{curve}"
        shutil.rmtree(root, ignore_errors=True)
        t = build_fn(root)
        zorder(t, target_file_bytes=target_file_bytes, curve=curve,
               cluster_by=cluster_by, concurrency=8)
        t.refresh()
        # sorted, so the keys, windows and merge source drawn from it are
        # the same at every commit, whatever order Ray wrote the files in
        full = t.scan_arrow(sort=True)
        rng = np.random.default_rng(17)
        keyvals = full[key_col].to_pylist()
        keys = [keyvals[i] for i in rng.choice(len(keyvals), 16,
                                               replace=False)]
        ts = pc.cast(full["ts"], pa.int64()).to_numpy()
        day = 86_400_000_000
        windows = []
        for i in rng.choice(len(ts), 16, replace=False):
            lo = int(ts[i]) // day * day
            windows.append((lo, lo + day))
        out[curve] = measure(t, keys, windows, key_col)
        if merge:
            mode = merge_share(t, full, merge, rng, target_file_bytes)
            out[f"{curve} -> merge {merge:.0%} ({mode})"] = measure(
                t, keys, windows, key_col)
    return out


def build_transcripts(root):
    from raylake.fixtures.transcripts import write_transcript_table_ray

    return write_transcript_table_ray(root, n_turns=400_000,
                                      rows_per_file=2048, num_buckets=8)


def build_events(root):
    import ray.data

    from raylake.core.table import Table
    from raylake.ops.append import append

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "ts", "event_type",
                                        "value"])

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.string()),
            "ts": b["ts"],
            "event_type": b["event_type"],
            "value": b["value"],
        })

    schema = pa.schema([("user_id", pa.string()),
                        ("ts", pa.timestamp("us")),
                        ("event_type", pa.string()),
                        ("value", pa.float64())])
    t = Table.create(root, schema, partition_column="user_id",
                     num_buckets=8, sort_order=("user_id", "ts"))
    append(t, ds.map_batches(proj, batch_format="pyarrow"),
           batch_size=16 * 1024)
    return t.refresh()


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get(
            "RAY_GRAFT_CPUS", "16")), include_dashboard=False,
            logging_level="ERROR")
    results = {
        "transcripts(conv_id,ts)": bench_pair(
            "tx", build_transcripts, "conv_id", None, merge=0.05),
        "events(user_id,ts)": bench_pair(
            "ev", build_events, "user_id", ("user_id", "ts"),
            target_file_bytes=32 * 1024),
    }
    print(json.dumps(results, indent=2))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
