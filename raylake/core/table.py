"""The Table abstraction: snapshot-pinned scans + optimistic atomic commits.

Plays the role Iceberg plays for the reference (every Spark write is a commit;
Trino reads run concurrently under snapshot isolation — ref: README.md:196-207,
src/elt/bronze/_bronze_handler.py:50-56) but implemented from scratch:

- **Commit** = write immutable snapshot + manifest JSON files, then swap
  `metadata/table.json` by atomic rename while holding an exclusive lock file.
- **Optimistic concurrency**: a committer records the parent snapshot it based
  its work on. If the table advanced meanwhile, the commit *rebases* when its
  replaced-file set is still fully live (disjoint maintenance ops both land),
  else raises `CommitConflictError` (intersecting ops: loser retries) —
  manifest-level conflict detection, SURVEY §2.8 T4.
- **Readers** pin a snapshot: a scan resolves the file list from immutable
  metadata once; concurrent commits never disturb it (T1/T2).

Scans return `ray.data.Dataset` via `ray.data.read_parquet(file_list)` so all
downstream processing is streaming Ray Data; `scan_arrow()` is a driver-side
pyarrow path for tests/oracles on small data only.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Any, Iterable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raylake.core import metadata as md
from raylake.core.io import read_file
from raylake.core.metadata import ManifestEntry, Snapshot
from raylake.core.schema import schema_from_json, schema_to_json


_TIME_US_PER = {"day": 86_400_000_000, "hour": 3_600_000_000}


def time_partition_ids(values, transform: str) -> np.ndarray:
    """Calendar-ordinal partition ids for a timestamp column: days/hours/
    months since 1970-01-01 (Iceberg transform-result parity). Accepts a
    pyarrow timestamp/int64 array or any int64-us sequence."""
    if not isinstance(values, (pa.ChunkedArray, pa.Array)):
        values = pa.array(values)  # datetimes → timestamp, ints → int64
    if values.null_count:
        raise ValueError("null values in the time partition column")
    if pa.types.is_timestamp(values.type) and values.type.unit != "us":
        values = pc.cast(values, pa.timestamp("us"))
    us = pc.cast(values, pa.int64()).to_numpy(zero_copy_only=False)
    us = us.astype(np.int64, copy=False)
    if len(us) and us.min() < 0:
        raise ValueError(
            "pre-epoch timestamps unsupported by time partitioning")
    if transform in _TIME_US_PER:
        return np.floor_divide(us, _TIME_US_PER[transform])
    if transform == "month":
        return (us.astype("datetime64[us]").astype("datetime64[M]")
                .astype(np.int64))
    raise ValueError(f"unknown time transform: {transform!r}")


class CheckConstraintError(ValueError):
    """A data-file write contained rows violating a CHECK constraint."""


class CommitConflictError(RuntimeError):
    """Two maintenance ops touched intersecting file sets; caller must retry."""


class _CommitLock:
    """Exclusive advisory lock via O_CREAT|O_EXCL; stale locks broken after TTL.

    Single-filesystem CAS guard. On a real multi-node deployment the rename +
    lock pair is replaced by a conditional put on the catalog object — the
    commit protocol above it is unchanged.
    """

    def __init__(self, root: str, timeout_s: float = 30.0, stale_s: float = 300.0):
        self.path = os.path.join(root, "metadata", "_commit.lock")
        self.timeout_s = timeout_s
        # stale_s must exceed the worst-case hold time (large manifest
        # rewrites, GC sweeps); holders also touch() to refresh it.
        self.stale_s = stale_s
        self._fd: int | None = None
        self._token = f"{os.getpid()}:{uuid.uuid4().hex}"

    def __enter__(self):
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(self._fd, self._token.encode())
                os.fsync(self._fd)
                return self
            except FileExistsError:
                try:
                    if time.time() - os.path.getmtime(self.path) > self.stale_s:
                        # Break only the EXACT lock instance we observed as
                        # stale: re-read the token, then unlink only if it is
                        # unchanged (a new holder writes a fresh token).
                        with open(self.path, "rb") as f:
                            stale_token = f.read()
                        if (time.time() - os.path.getmtime(self.path)
                                > self.stale_s):
                            with open(self.path, "rb") as f:
                                if f.read() == stale_token:
                                    os.unlink(self.path)
                        continue
                except FileNotFoundError:
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(f"commit lock busy: {self.path}")
                time.sleep(0.01)

    def touch(self):
        """Refresh the lock mtime so long holds aren't stale-broken."""
        try:
            os.utime(self.path)
        except FileNotFoundError:
            pass

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
        try:
            # Unlink only our own lock — after a stale break the path may
            # belong to a successor holder.
            with open(self.path, "rb") as f:
                if f.read().decode(errors="replace") == self._token:
                    os.unlink(self.path)
        except FileNotFoundError:
            pass


class Table:
    def __init__(self, root: str, meta: dict):
        self.root = root
        self.meta = meta
        # {opened, total} of the most recent manifest-filtered plan read
        self.last_manifest_prune: dict | None = None

    # ------------------------------------------------------------- lifecycle

    @staticmethod
    def create(
        root: str,
        schema: pa.Schema,
        partition_column: str | None = "conv_id",
        num_buckets: int = 16,
        sort_order: Sequence[str] = ("conv_id", "turn_idx"),
        stats_columns: Sequence[str] | None = None,
        name: str | None = None,
        properties: dict | None = None,
        partition_transform: str | None = None,
    ) -> "Table":
        """`partition_transform`: None/"hash" → hash(column) % num_buckets
        (the key-bucketed layout every MERGE/maintenance path assumes);
        "day" | "hour" | "month" → TIME partitioning of a timestamp column
        (Iceberg's day()/hour()/month() transforms; the reference's bronze
        partitionBy(ingest_year, ingest_month) shape, ref
        src/elt/bronze/_bronze_handler.py:50-56). Time-partitioned tables
        are the append-only bronze layout: append/scan/compact/zorder/
        expire/deletes all work per time partition and range scans prune
        whole partitions by id; MERGE and repartition require a hash spec
        (silver's layout) and refuse with a clear error."""
        os.makedirs(os.path.join(root, "metadata"), exist_ok=True)
        os.makedirs(os.path.join(root, "data"), exist_ok=True)
        if partition_transform in (None, "hash"):
            spec = {"kind": "hash", "column": partition_column,
                    "num_buckets": int(num_buckets)}
        elif partition_transform in ("day", "hour", "month"):
            if partition_column is None:
                raise ValueError("time partition_transform needs a column")
            spec = {"kind": "time", "column": partition_column,
                    "transform": partition_transform, "num_buckets": 0}
        else:
            raise ValueError(
                f"unknown partition_transform: {partition_transform!r} "
                f"(hash|day|hour|month)")
        if stats_columns is None:
            cols = list(sort_order)
            if partition_column and partition_column not in cols:
                cols.insert(0, partition_column)
            if "ts" in schema.names and "ts" not in cols:
                cols.append("ts")
            stats_columns = cols
        meta = {
            "format_version": 1,
            "uuid": uuid.uuid4().hex,
            "name": name or os.path.basename(root.rstrip("/")),
            "schema": schema_to_json(schema),
            "partition_spec": spec,
            "partition_spec_log": [
                {"num_buckets": spec["num_buckets"], "since_seq": 0}
            ],
            "sort_order": list(sort_order),
            "stats_columns": list(stats_columns),
            "current_snapshot": 0,
            "last_sequence": 0,
            "snapshot_log": [],
            "properties": properties or {},
        }
        md.atomic_write_json(os.path.join(root, "metadata", "table.json"), meta)
        return Table(root, meta)

    @staticmethod
    def load(root: str) -> "Table":
        return Table(root, md.read_json(os.path.join(root, "metadata", "table.json")))

    def refresh(self) -> "Table":
        self.meta = md.read_json(os.path.join(self.root, "metadata", "table.json"))
        # drop memoized merge-on-read state (rewrite.read_task_inputs):
        # stale cached "no deletes" across a refresh would resurrect rows
        if hasattr(self, "_mor_state"):
            del self._mor_state
        return self

    # ------------------------------------------------------------ properties

    @property
    def schema(self) -> pa.Schema:
        return schema_from_json(self.meta["schema"])

    @property
    def partition_column(self) -> str | None:
        return self.meta["partition_spec"]["column"]

    @property
    def num_buckets(self) -> int:
        return self.meta["partition_spec"]["num_buckets"]

    @property
    def partition_kind(self) -> str:
        return self.meta["partition_spec"].get("kind", "hash")

    @property
    def partition_transform(self) -> str | None:
        """"day"/"hour"/"month" for time specs, None for hash specs."""
        return self.meta["partition_spec"].get("transform")

    def partition_ids(self, values) -> "np.ndarray":
        """Partition id per value of the partition column — THE routing
        point every write path shares. Hash spec: stable_hash % buckets.
        Time spec: calendar-unit ordinal of the timestamp (days/hours/
        months since epoch), so ids are range-prunable."""
        from raylake.core.hashing import partition_of

        if self.partition_kind == "hash":
            return partition_of(values, self.num_buckets)
        return time_partition_ids(values, self.partition_transform)

    @property
    def partition_spec_log(self) -> list[dict]:
        """Spec history: [{num_buckets, since_seq}] — snapshots committed at
        seq >= since_seq carry files bucketed under that spec. Tables created
        before spec evolution existed get a synthetic single-entry log."""
        log = self.meta.get("partition_spec_log")
        if not log:
            return [{"num_buckets": self.num_buckets, "since_seq": 0}]
        return log

    def num_buckets_at(self, seq: int | None = None) -> int:
        """The bucket count whose partition ids the files of snapshot `seq`
        carry (repartition_table flips spec + rewrites data in ONE commit, so
        each snapshot is internally single-spec)."""
        seq = self.resolve_ref(seq)
        nb = self.partition_spec_log[0]["num_buckets"]
        for e in self.partition_spec_log:
            if e["since_seq"] <= seq:
                nb = e["num_buckets"]
        return nb

    @property
    def sort_order(self) -> list[str]:
        return list(self.meta["sort_order"])

    @property
    def stats_columns(self) -> list[str]:
        return list(self.meta["stats_columns"])

    @property
    def current_seq(self) -> int:
        return self.meta["current_snapshot"]

    # -------------------------------------------------------------- metadata

    def snapshot(self, seq: int | str | None = None) -> Snapshot | None:
        seq = self.resolve_ref(seq)
        if seq == 0:
            return None
        return Snapshot.from_json(
            md.read_json(os.path.join(self.root, "metadata", f"snap-{seq}.json"))
        )

    # ---------------------------------------------------------- refs (WAP)

    def resolve_ref(self, ref: int | str | None) -> int:
        """None → main head; str → named branch/tag head; int passthrough."""
        if ref is None:
            return self.current_seq
        if isinstance(ref, str):
            refs = self.meta.get("refs", {})
            if ref not in refs:
                raise KeyError(f"no such ref: {ref}")
            return refs[ref]["seq"]
        return ref

    def create_tag(self, name: str, snapshot: int | None = None) -> None:
        """Immutable named pointer (Iceberg tag): survives expire_snapshots
        retention policies — pin a training-data release."""
        self._set_ref(name, "tag", snapshot)

    def create_branch(self, name: str, snapshot: int | None = None) -> None:
        """Movable named pointer (Iceberg branch): commit to it with
        commit(..., branch=name); publish via fast_forward (WAP)."""
        self._set_ref(name, "branch", snapshot)

    def _set_ref(self, name: str, kind: str, snapshot: int | None) -> None:
        with _CommitLock(self.root):
            self.refresh()
            refs = self.meta.setdefault("refs", {})
            if name in refs:
                raise ValueError(f"ref exists: {name}")
            seq = self.current_seq if snapshot is None else snapshot
            if seq != 0:
                try:
                    self.snapshot(seq)
                except FileNotFoundError:
                    raise ValueError(f"no such snapshot: {seq}") from None
            refs[name] = {"type": kind, "seq": seq}
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta)

    def drop_ref(self, name: str) -> None:
        with _CommitLock(self.root):
            self.refresh()
            self.meta.get("refs", {}).pop(name, None)
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta)

    def rollback(self, seq: int) -> int:
        """Iceberg `rollback_to_snapshot`: move main back to a RETAINED
        snapshot (bad-data escape hatch). Later snapshots stay readable
        until expiry; new commits parent off the rolled-back snapshot and
        sequence numbers never reuse (last_sequence keeps growing)."""
        with _CommitLock(self.root):
            self.refresh()
            entry = next((e for e in self.meta["snapshot_log"]
                          if e["seq"] == seq), None)
            if entry is None:
                raise ValueError(f"snapshot {seq} is not retained")
            if "branch" in entry:
                raise ValueError(
                    f"snapshot {seq} is an unpublished branch commit; "
                    f"fast_forward the branch instead")
            self.meta["current_snapshot"] = seq
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta)
            return seq

    def fast_forward(self, branch: str) -> int:
        """Publish a branch (write-audit-publish): move main to the branch
        head. Requires main to be an ANCESTOR of the head — a diverged main
        (concurrent commit since the branch fork) refuses, the WAP conflict."""
        with _CommitLock(self.root):
            self.refresh()
            refs = self.meta.get("refs", {})
            if branch not in refs or refs[branch]["type"] != "branch":
                raise KeyError(f"no such branch: {branch}")
            head = refs[branch]["seq"]
            chain = []
            s = head
            while s != 0 and s != self.current_seq:
                chain.append(s)
                try:
                    s = self.snapshot(s).parent
                except FileNotFoundError:
                    # ancestor expired → the fork predates retained main
                    # history, i.e. main moved on: treat as divergence
                    s = -1
                    break
            if s != self.current_seq:
                raise CommitConflictError(
                    f"main (seq {self.current_seq}) is not an ancestor of "
                    f"branch {branch!r} head (seq {head}); rebase the branch")
            self.meta["current_snapshot"] = head
            # the published chain becomes main history: clear the branch
            # marker so snapshot_as_of resolves to these snapshots
            published = set(chain)
            for e in self.meta["snapshot_log"]:
                if e["seq"] in published:
                    e.pop("branch", None)
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta)
            return head

    def snapshot_as_of(self, ts_ms: int) -> int | None:
        """`FOR TIMESTAMP AS OF` (ref create_iceberg_table_by_trino.sql:43):
        the latest MAIN-history snapshot committed at or before ts_ms, or
        None. Unpublished branch commits (WAP audit data) are excluded —
        fast_forward publishes them into main history."""
        best = None
        for e in self.meta["snapshot_log"]:
            if e["ts_ms"] <= ts_ms and "branch" not in e:
                best = e["seq"]
        return best

    def snapshots(self) -> list[Snapshot]:
        return [
            s
            for e in self.meta["snapshot_log"]
            if (s := self.snapshot(e["seq"])) is not None
        ]

    @staticmethod
    def _manifest_meta(snap) -> list:
        """Per-manifest envelopes aligned with snap.manifests; all-None when
        the snapshot predates envelopes or the list is misaligned."""
        mm = snap.manifest_meta
        if not mm or len(mm) != len(snap.manifests):
            return [None] * len(snap.manifests)
        return mm

    def live_entries(
        self,
        snapshot: int | None = None,
        manifest_filter=None,
    ) -> list[ManifestEntry]:
        """All live entries of a snapshot; with `manifest_filter` (a
        predicate over a manifest_envelope dict) only entries of manifests
        whose envelope passes — manifests WITHOUT an envelope always open
        (conservative). Callers passing a filter receive a SUBSET and must
        entry-prune it themselves (prune / prune_point do). Each filtered
        call records {opened, total} in `self.last_manifest_prune` — the
        plan-time observability hook for the two-level metadata tree."""
        snap = self.snapshot(snapshot)
        if snap is None:
            return []
        out: list[ManifestEntry] = []
        opened = 0
        for m, env in zip(snap.manifests, self._manifest_meta(snap)):
            if (manifest_filter is not None and env is not None
                    and not manifest_filter(env)):
                continue
            opened += 1
            out.extend(md.read_manifest(self.root, m))
        if manifest_filter is not None:
            self.last_manifest_prune = {
                "opened": opened, "total": len(snap.manifests)}
        return out

    def added_entries(self, after_seq: int, until_seq: int | None = None) -> list[ManifestEntry]:
        """Incremental/CDC scan support: files added in (after_seq, until_seq].

        Replaces the reference's data-column high-watermark reads
        (ref: src/elt/silver/_silver_handler.py:31-41) — the snapshot log
        already records what each commit added (SURVEY §2.8 T8). Manifests
        whose envelope seq_added range falls entirely outside the window
        are skipped unopened — an incremental tail read over a long-lived
        table touches only the manifests of the new commits."""
        def mf(env: dict) -> bool:
            s = env.get("seq")
            if not s or s[0] is None:
                return True
            if s[1] <= after_seq:
                return False
            return until_seq is None or s[0] <= until_seq

        return [
            e
            for e in self.live_entries(until_seq, manifest_filter=mf)
            if e.seq_added > after_seq
            and (until_seq is None or e.seq_added <= until_seq)
        ]

    def changes(self, after_seq: int, until_seq: int | None = None) -> pa.Table:
        """Delta-CDF-style change feed over main history: one row per
        logical row change in (after_seq, until_seq], stamped with
        `_change_type` (insert | update_preimage | update_postimage |
        delete) and `_commit_seq`.

        Reconstructable commits:
        - append → inserts (the commit's added files read as-committed; no
          later merge-on-read deletes applied — they have their own seq);
        - merge run with `merge_into(..., cdc=True)` → its recorded change
          parquets (summary `cdc_files`);
        - delete-mor → delete rows carrying the delete KEY columns, other
          columns null (the equality delete never read the rows it killed);
        - delete-pos → full delete preimages, read back by position from
          the snapshot's still-reachable target files;
        - compact / zorder / repartition / apply-deletes /
          rewrite-manifests → physical/metadata only, skipped (delete
          purges materialize events already emitted).
        Any other commit (overwrite, update, merge without cdc=True) raises
        ValueError, and so does a range containing EXPIRED snapshots — a
        silent gap would make the feed lie.

        Replaces the reference's high-watermark incremental reads
        (ref /root/reference/src/elt/silver/_silver_handler.py:31-41) with
        the update/delete visibility a watermark column cannot express;
        public semantics: Delta Lake Change Data Feed / Iceberg
        create_changelog_view."""
        import numpy as np

        from raylake.functions.cleaning import apply_renames, normalize_schema

        until = self.current_seq if until_seq is None else until_seq
        base = self.schema
        names = base.names
        renames = self.meta.get("column_renames") or {}
        # GAP GUARD: seqs are allocated per commit, and every commit stays in
        # the snapshot log until expiry — a seq in range that is absent from
        # the log was expired, and silently skipping it would make the feed
        # lie (the failure mode the docstring forbids). Branch commits
        # interleave main's seq space and never feed main's CDC, so seqs
        # tombstoned by expire as branch-only (expired_branch_seqs) are not
        # holes in MAIN history.
        logged = {e["seq"] for e in self.meta["snapshot_log"]}
        logged |= set(self.meta.get("expired_branch_seqs", []))
        missing = sorted(set(range(after_seq + 1, until + 1)) - logged)
        if missing:
            raise ValueError(
                f"changes({after_seq}, {until}): snapshots {missing} were "
                f"expired from the log; the feed over this range is gone — "
                f"narrow the range or retain more history")
        parts: list[pa.Table] = []

        def stamp(t: pa.Table, seq: int, ctype: str | None = None) -> pa.Table:
            if ctype is not None:
                t = t.append_column(
                    "_change_type", pa.array([ctype] * len(t), pa.string()))
            return t.append_column(
                "_commit_seq", pa.array(np.full(len(t), seq, np.int64)))

        for e in self.meta["snapshot_log"]:
            seq = e["seq"]
            if seq <= after_seq or seq > until or "branch" in e:
                continue
            snap = self.snapshot(seq)
            if snap is None:
                raise ValueError(
                    f"changes({after_seq}, {until}): snapshot {seq} expired")
            cdc = snap.summary.get("cdc_files")
            if cdc is not None and not cdc:
                continue  # cdc-enabled commit with zero logical changes
            if cdc:
                tabs = []
                for f in cdc:
                    raw = apply_renames(
                        read_file(os.path.join(self.root, f["path"])),
                        renames)
                    # normalize the data columns to the CURRENT schema
                    # (change files carry their write-time schema), keep
                    # the change-type marker
                    data = normalize_schema(raw.drop(["_change_type"]), base)
                    tabs.append(data.append_column(
                        "_change_type", raw["_change_type"]))
                parts.append(stamp(
                    pa.concat_tables(tabs).select(
                        names + ["_change_type"]), seq))
            elif snap.operation in ("append", "add_files"):
                # add_files is logically an insert: the adopted entries are
                # stamped seq_added == seq like any append, and scan_arrow
                # reads their absolute paths untouched
                ents = [fe for m in snap.manifests
                        for fe in md.read_manifest(self.root, m)
                        if fe.seq_added == seq]
                if ents:
                    t = self.scan_arrow(snapshot=seq, entries=ents,
                                        apply_deletes=False)
                    parts.append(stamp(t.select(names), seq, "insert"))
            elif snap.operation == "delete-mor":
                for d in snap.delete_files:
                    if d.get("seq") != seq or d.get("kind") == "pos":
                        continue
                    kt = apply_renames(
                        read_file(os.path.join(self.root, d["path"])),
                        renames)
                    cols = {}
                    for f in base:
                        cols[f.name] = (kt[f.name].cast(f.type)
                                        if f.name in kt.column_names
                                        else pa.nulls(len(kt), f.type))
                    parts.append(stamp(pa.table(cols), seq, "delete"))
            elif snap.operation == "delete-pos":
                from raylake.core.deletes import take_positions_preimage

                for d in snap.delete_files:
                    if d.get("seq") != seq or d.get("kind") != "pos":
                        continue
                    pos = read_file(os.path.join(self.root, d["path"]))
                    t = take_positions_preimage(self, pos)
                    parts.append(stamp(t.select(names), seq, "delete"))
            elif snap.operation in ("compact", "zorder", "repartition",
                                    "apply-deletes", "rewrite-manifests"):
                # physical-only rewrites (rewrite-manifests is not even
                # that — pure metadata): no logical row change (the delete
                # EVENTS were already emitted by their own commits)
                continue
            else:
                raise ValueError(
                    f"changes({after_seq}, {until}): commit {seq} is "
                    f"{snap.operation!r}, which records no change log — "
                    f"run merges with cdc=True or exclude this range")
        if not parts:
            ext = base.append(pa.field("_change_type", pa.string()))
            ext = ext.append(pa.field("_commit_seq", pa.int64()))
            return ext.empty_table()
        return pa.concat_tables(parts)

    def snapshots_table(self) -> pa.Table:
        """Metadata table mirroring Iceberg's `SELECT * FROM tbl.snapshots`
        (ref: notebooks/iceberg_curd/create_iceberg_table_by_trino.sql:19-40)."""
        snaps = self.snapshots()
        import json as _json

        return pa.table({
            "seq": pa.array([s.seq for s in snaps], pa.int64()),
            "parent": pa.array([s.parent for s in snaps], pa.int64()),
            "ts_ms": pa.array([s.ts_ms for s in snaps], pa.int64()),
            "operation": pa.array([s.operation for s in snaps], pa.string()),
            "added_files": pa.array(
                [s.summary.get("added_files", 0) for s in snaps], pa.int64()
            ),
            "added_rows": pa.array(
                [s.summary.get("added_rows", 0) for s in snaps], pa.int64()
            ),
            "removed_files": pa.array(
                [s.summary.get("removed_files", 0) for s in snaps], pa.int64()
            ),
            "summary_json": pa.array(
                [_json.dumps(s.summary, sort_keys=True) for s in snaps],
                pa.string(),
            ),
        })

    def refs_table(self) -> pa.Table:
        """Metadata table mirroring Iceberg's `tbl.refs`: one row per named
        branch/tag with its head snapshot (plus an implicit `main` row for
        the current head, like Iceberg's main branch)."""
        rows = [("main", "branch", self.current_seq)]
        rows += [(n, r["type"], r["seq"])
                 for n, r in sorted(self.meta.get("refs", {}).items())]
        return pa.table({
            "name": pa.array([r[0] for r in rows], pa.string()),
            "type": pa.array([r[1] for r in rows], pa.string()),
            "seq": pa.array([r[2] for r in rows], pa.int64()),
        })

    def files_table(self, snapshot: int | None = None) -> pa.Table:
        """Metadata table mirroring Iceberg's `tbl.files`: one row per live
        data file with size/rows/partition/stats."""
        import json as _json

        ents = self.live_entries(snapshot)
        return pa.table({
            "path": pa.array([e.path for e in ents], pa.string()),
            "partition": pa.array([e.partition for e in ents], pa.int32()),
            "rows": pa.array([e.rows for e in ents], pa.int64()),
            "bytes": pa.array([e.bytes for e in ents], pa.int64()),
            "seq_added": pa.array([e.seq_added for e in ents], pa.int64()),
            "stats_json": pa.array(
                [_json.dumps(e.stats, sort_keys=True) for e in ents], pa.string()
            ),
        })

    def partitions_table(self, snapshot: int | None = None,
                         stats_for: Sequence[str] = ()) -> pa.Table:
        """Metadata table mirroring Iceberg's `tbl.partitions`: one row per
        live partition with file/row/byte totals, plus min/max for each
        requested stats column folded across the partition's files — all
        O(metadata), no data read. Min/max are exact (every row of the
        partition is covered by some file's stats) unless a file has no
        recorded stat for the column, in which case that column's min/max
        is null for the partition (an honest unknown, like Iceberg's
        null `lower_bound`). Timestamps are epoch-microsecond int64 (the
        manifest stat encoding). Ref inspection surface:
        /root/reference/src/elt/silver/_silver_pipeline.py:84-87 count
        probes; Iceberg `SELECT * FROM tbl.partitions`."""
        agg: dict[int, list] = {}
        for e in self.live_entries(snapshot):
            row = agg.setdefault(e.partition, [0, 0, 0,
                                               {c: [None, None, True]
                                                for c in stats_for}])
            row[0] += 1
            row[1] += e.rows
            row[2] += e.bytes
            for c in stats_for:
                s, cell = e.stats.get(c), row[3][c]
                if s is None or s[0] is None:
                    cell[2] = False  # a file with unknown stats → null
                    continue
                cell[0] = s[0] if cell[0] is None else min(cell[0], s[0])
                cell[1] = s[1] if cell[1] is None else max(cell[1], s[1])
        parts = sorted(agg)
        cols = {
            "partition": pa.array(parts, pa.int32()),
            "n_files": pa.array([agg[p][0] for p in parts], pa.int64()),
            "n_rows": pa.array([agg[p][1] for p in parts], pa.int64()),
            "n_bytes": pa.array([agg[p][2] for p in parts], pa.int64()),
        }
        for c in stats_for:
            cols[f"min_{c}"] = pa.array(
                [agg[p][3][c][0] if agg[p][3][c][2] else None for p in parts])
            cols[f"max_{c}"] = pa.array(
                [agg[p][3][c][1] if agg[p][3][c][2] else None for p in parts])
        return pa.table(cols)

    def row_count(self, snapshot: int | None = None) -> int:
        """O(metadata) count — no data scan (vs the reference's .count() probes
        that re-execute the whole Spark plan, ref: _silver_pipeline.py:84-87).
        With merge-on-read delete files present this is an UPPER BOUND (the
        physical row count); apply_deletes restores exactness. When every
        manifest carries an envelope the count folds from envelope row
        sums without opening a single manifest file — O(#manifests)
        metadata, not O(#entries)."""
        snap = self.snapshot(snapshot)
        if snap is None:
            return 0
        metas = self._manifest_meta(snap)
        if all(env is not None for env in metas):
            return sum(env["rows"] for env in metas)
        return sum(e.rows for e in self.live_entries(snapshot))

    # ------------------------------------------------------------------ scan

    def prune(
        self,
        entries: Iterable[ManifestEntry] | None = None,
        partitions: set[int] | None = None,
        snapshot: int | None = None,
        **col_ranges: tuple[Any, Any],
    ) -> list[ManifestEntry]:
        """Manifest min/max pruning: keep entries overlapping every (lo, hi).
        On time-partitioned tables a range on the partition column also
        prunes by partition id (metadata-only, works even without stats).
        When `entries` is None the snapshot's per-manifest envelopes prune
        at MANIFEST granularity first, so whole manifest files are never
        opened when their partition range / stats union provably excludes
        the predicate (the 100×-metadata-scale plan path)."""
        plo = phi = None
        if (self.partition_kind == "time" and partitions is None
                and self.partition_column in col_ranges):
            lo, hi = col_ranges[self.partition_column]
            tr = self.partition_transform
            plo = (int(time_partition_ids([lo], tr)[0])
                   if lo is not None else None)
            phi = (int(time_partition_ids([hi], tr)[0])
                   if hi is not None else None)
        if entries is None:
            import bisect as _bisect

            psorted = sorted(partitions) if partitions else None

            def mf(env: dict) -> bool:
                p = env.get("p") or [None, None]
                if p[0] is not None:
                    if psorted is not None:
                        # any wanted partition inside [p0, p1]?
                        i = _bisect.bisect_left(psorted, p[0])
                        if not (i < len(psorted) and psorted[i] <= p[1]):
                            return False
                    # the entry-level time check exempts partition == -1,
                    # so a manifest containing any -1 entry (p0 == -1)
                    # must always open
                    if p[0] >= 0:
                        if plo is not None and p[1] < plo:
                            return False
                        if phi is not None and p[0] > phi:
                            return False
                return all(md.env_overlaps(env, c, lo, hi)
                           for c, (lo, hi) in col_ranges.items())

            entries = self.live_entries(snapshot, manifest_filter=mf)
        if plo is not None or phi is not None:
            entries = [
                e for e in entries
                if e.partition == -1
                or ((plo is None or e.partition >= plo)
                    and (phi is None or e.partition <= phi))
            ]
        out = []
        for e in entries:
            if partitions is not None and e.partition not in partitions:
                continue
            if all(e.overlaps(c, lo, hi) for c, (lo, hi) in col_ranges.items()):
                out.append(e)
        return out

    def prune_point(
        self, conv_value: str, entries: list[ManifestEntry] | None = None,
        snapshot: int | None = None,
    ) -> list[ManifestEntry]:
        """Files that can contain rows of one partition-key value, using
        (a) hash-bucket partition pruning, (b) string min/max stats, and
        (c) hash-space `conv_h32` stats recorded by Z-order rewrites —
        hashing destroys lexicographic locality, so z-clustered files carry
        bounds in hash space instead."""
        from raylake.core.hashing import partition_of, stable_hash64

        col = self.partition_column
        key_col = col or "conv_id"
        h32 = int(stable_hash64([conv_value])[0]) >> 32
        p: int | None = None
        if col is not None and self.partition_kind == "hash":
            # bucket under the spec ACTIVE AT the scanned snapshot — after a
            # partition-spec evolution, time travel to older snapshots must
            # hash with the old bucket count. (Time-partitioned tables can't
            # derive a partition from a key value — stats/bloom still prune.)
            p = int(partition_of([conv_value], self.num_buckets_at(snapshot))[0])
        if entries is None:
            def mf(env: dict) -> bool:
                ep = env.get("p") or [None, None]
                if p is not None and ep[0] is not None:
                    # entry level keeps partitions (p, -1): a manifest whose
                    # range excludes BOTH may skip unopened
                    if not (ep[0] <= p <= ep[1]) and ep[0] > -1:
                        return False
                if not md.env_overlaps(env, key_col, conv_value, conv_value):
                    return False
                if key_col == "conv_id" and not md.env_overlaps(
                        env, "conv_h32", h32, h32):
                    return False
                return md.env_overlaps(env, f"{key_col}_h32", h32, h32)

            entries = self.live_entries(snapshot, manifest_filter=mf)
        if p is not None:
            entries = [e for e in entries if e.partition in (p, -1)]
        out = [
            e
            for e in entries
            if e.overlaps(key_col, conv_value, conv_value)
            # legacy stat name from default (conv_id, ts) zorder rewrites —
            # those bounds are conv_id-hash space, so they only apply when
            # the lookup key IS conv_id (else they'd false-prune files on
            # tables partitioned by another column)
            and (key_col != "conv_id" or e.overlaps("conv_h32", h32, h32))
            # generic cluster_by=(key, ...) rewrites record the same
            # hash-space bounds under "<col>_h32" (ops/zorder.py _dim_u32)
            and e.overlaps(f"{key_col}_h32", h32, h32)
        ]
        bkey = f"{col or 'conv_id'}__bloom"
        if any(bkey in e.stats for e in out):
            from raylake.core.bloom import bloom_might_contain

            out = [e for e in out
                   if bkey not in e.stats  # no bloom → cannot exclude
                   or bloom_might_contain(e.stats[bkey], conv_value)]
        return out

    def _paths(self, entries: Iterable[ManifestEntry]) -> list[str]:
        return [os.path.join(self.root, e.path) for e in entries]

    # --------------------------------------------------- merge-on-read deletes

    def delete_by_keys(self, keys: pa.Table, summary: dict | None = None):
        """Merge-on-read EQUALITY delete (Iceberg v2 shape): write one small
        parquet of key tuples + one metadata commit — O(|keys|), never a
        data rewrite. The fast-delete path for 100 TB tables where
        mode="delete" MERGE would rewrite large files to drop a few rows.
        Scans/rewrites apply it by the sequence rule (see core/deletes.py);
        `ops.deletes.apply_deletes` purges physically."""
        key_cols = list(keys.column_names)
        missing = [c for c in key_cols if c not in self.schema.names]
        if missing or not key_cols:
            # an unvalidated key column would make EVERY later scan raise
            # inside the delete filter — the table becomes unreadable
            raise ValueError(
                f"delete key columns {missing or key_cols} not in schema "
                f"{self.schema.names}")
        if len(keys) == 0:
            raise ValueError("empty delete key set")
        return self.commit(
            "delete-mor", [],
            added_deletes=[self.write_delete_file(keys)],
            expected_parent=self.current_seq,
            summary={"deleted_keys": len(keys), **(summary or {})},
        )

    def write_delete_file(self, keys: pa.Table) -> dict:
        """Write one equality-delete parquet of key tuples (every column of
        `keys` is a key column) and return its `added_deletes` record. The
        caller commits it; until then it is an orphan for the GC."""
        os.makedirs(os.path.join(self.root, "data", "deletes"), exist_ok=True)
        rel = f"data/deletes/delete-{uuid.uuid4().hex}.parquet"
        if keys.schema.metadata:
            keys = keys.replace_schema_metadata(None)
        pq.write_table(keys, os.path.join(self.root, rel), compression="zstd")
        return {"path": rel, "rows": len(keys),
                "key_cols": list(keys.column_names)}

    def delete_by_positions(self, pos: pa.Table, summary: dict | None = None):
        """Merge-on-read POSITION delete (Iceberg v2's second delete shape):
        `pos` has columns (file_path, pos) naming exact row ordinals inside
        specific live data files. One small parquet + one metadata commit —
        the natural output of a scan that located bad rows (file/row
        provenance), where an equality delete would need key columns the
        table may not have. Positions bind to the file VERSION: rewrites
        apply them while reading and the commit prunes replaced targets."""
        if set(pos.column_names) != {"file_path", "pos"}:
            raise ValueError(
                f"position deletes need columns ('file_path','pos'), got "
                f"{pos.column_names}")
        if len(pos) == 0:
            raise ValueError("empty position delete set")
        if pc.any(pc.is_null(pos["file_path"])).as_py() or pc.any(
                pc.is_null(pos["pos"])).as_py():
            raise ValueError("null file_path/pos in position delete set")
        live = {e.path: e.rows for e in self.live_entries()}
        targets = sorted(set(pos["file_path"].to_pylist()))
        bad = [t for t in targets if t not in live]
        if bad:
            raise ValueError(f"position delete targets not live: {bad[:3]}")
        pdf = pos.to_pandas()
        over = pdf[pdf["pos"] >= pdf["file_path"].map(live)]
        if len(over) or (pdf["pos"] < 0).any():
            raise ValueError("position out of range for target file")
        os.makedirs(os.path.join(self.root, "data", "deletes"), exist_ok=True)
        rel = f"data/deletes/posdelete-{uuid.uuid4().hex}.parquet"
        if pos.schema.metadata:
            pos = pos.replace_schema_metadata(None)
        pq.write_table(pos.sort_by([("file_path", "ascending"),
                                    ("pos", "ascending")]),
                       os.path.join(self.root, rel), compression="zstd")
        return self.commit(
            "delete-pos", [],
            added_deletes=[{"path": rel, "rows": len(pos), "kind": "pos",
                            "targets": targets}],
            expected_parent=self.current_seq,
            summary={"deleted_positions": len(pos), **(summary or {})},
        )

    def delete_files_meta(self, snapshot: int | None = None) -> list[dict]:
        snap = self.snapshot(snapshot)
        return list(snap.delete_files) if snap else []

    def _all_retained_delete_cols(self) -> dict[str, str]:
        """column -> delete-file path, across EVERY retained snapshot (the
        log) — schema evolution must not break time-travel/ref scans that
        still apply an old delete file."""
        out: dict[str, str] = {}
        for e in self.meta["snapshot_log"]:
            try:
                snap = self.snapshot(e["seq"])
            except FileNotFoundError:
                continue  # concurrently expired
            if snap:
                for d in snap.delete_files:
                    if d.get("kind") == "pos":
                        continue  # positions reference no key columns
                    for c in d["key_cols"]:
                        out.setdefault(c, d["path"])
        return out

    def _load_delete_keys(self, snapshot: int | None = None):
        """[(seq, key_cols, KeySet)] — driver-side, bounded; each delete
        file's key set is prepared once here for every file it filters."""
        from raylake.core.deletes import KeySet

        return [(seq, cols, KeySet(keys))
                for seq, cols, keys in self._load_delete_tables(snapshot)]

    def _load_delete_tables(self, snapshot: int | None = None):
        """[(seq, key_cols, raw key table)] of the snapshot's equality
        deletes, bounded by the scan cap (position deletes count too)."""
        from raylake.core.deletes import MAX_SCAN_DELETE_KEYS

        metas = self.delete_files_meta(snapshot)
        total = sum(d["rows"] for d in metas)
        if total > MAX_SCAN_DELETE_KEYS:
            raise RuntimeError(
                f"{total} merge-on-read delete keys exceed the scan bound "
                f"({MAX_SCAN_DELETE_KEYS}); run ops.deletes.apply_deletes "
                f"to purge them physically")
        return [
            (d["seq"], d["key_cols"],
             read_file(os.path.join(self.root, d["path"])))
            for d in metas if d.get("kind") != "pos"
        ]

    def _load_pos_deletes(self, snapshot: int | None = None) -> dict:
        """{target data-file path: sorted int64 positions}, merged across
        every position-delete file in the snapshot. Driver-side, bounded by
        the same scan cap as equality keys (_load_delete_keys enforces the
        combined total)."""
        import numpy as np

        import pandas as pd

        frames = [
            read_file(os.path.join(self.root, d["path"])).to_pandas()
            for d in self.delete_files_meta(snapshot)
            if d.get("kind") == "pos"
        ]
        if not frames:
            return {}
        df = pd.concat(frames, ignore_index=True)
        return {p: np.unique(g.to_numpy().astype(np.int64))
                for p, g in df.groupby("file_path")["pos"]}

    @staticmethod
    def _applicable_seq(seq_added: int, loaded) -> tuple:
        """Indices of delete files applying to a data file added at
        `seq_added`: committed AFTER the file's rows were added
        (seq_added < delete seq; legacy seq_added=-1 counts as oldest)."""
        return tuple(i for i, (seq, _, _) in enumerate(loaded)
                     if seq_added < seq)

    def _applicable(self, entry: ManifestEntry, loaded) -> tuple:
        return self._applicable_seq(entry.seq_added, loaded)

    # ------------------------------------------------------------------ scans

    def scan(
        self,
        snapshot: int | None = None,
        columns: list[str] | None = None,
        entries: list[ManifestEntry] | None = None,
        apply_deletes: bool = True,
        **read_kwargs,
    ):
        """Snapshot-pinned streaming scan → ray.data.Dataset."""
        import ray.data

        if entries is None:
            entries = self.live_entries(snapshot)
        if apply_deletes and self.delete_files_meta(snapshot):
            return self._scan_with_deletes(snapshot, columns, entries,
                                           **read_kwargs)
        paths = self._paths(entries)
        if not paths:
            return ray.data.from_arrow(self.schema.empty_table())
        # The data/p=<bucket>/ layout must NOT be hive-inferred into a
        # phantom "p" column — partition identity lives in the manifest,
        # never in the data schema. partitioning=None enforces that for
        # full-schema scans; with an explicit column list the phantom is
        # excluded anyway (and Ray's parquet datasource has an
        # UnboundLocalError bug when columns + partitioning=None combine).
        needs_norm = self._needs_normalize(entries)
        read_columns = columns
        if needs_norm:
            # pre-evolution files lack the new columns — pyarrow errors on a
            # column selection naming them, so select via the normalize step
            # instead (compaction migrates files and restores read pruning)
            read_columns = None
        if read_columns is None:
            read_kwargs.setdefault("partitioning", None)
        ds = ray.data.read_parquet(paths, columns=read_columns, **read_kwargs)
        if needs_norm:
            from raylake.functions.cleaning import apply_renames, normalize_schema

            schema = self.schema
            if columns is not None:
                schema = pa.schema([schema.field(c) for c in columns])
            renames = self.meta.get("column_renames") or {}
            ds = ds.map_batches(
                lambda t: normalize_schema(apply_renames(t, renames), schema),
                batch_format="pyarrow",
            )
        return ds

    def _scan_with_deletes(self, snapshot, columns, entries, **read_kwargs):
        """Split files into groups by which delete files apply (the Iceberg
        sequence rule), filter each group in map_batches against the
        broadcast key tables, union the streams. Files targeted by POSITION
        deletes are read file-at-a-time in tasks (positions index the file's
        own row order, so the reader must know which file a batch came
        from) with the position map broadcast once."""
        import ray
        import ray.data

        from raylake.core.deletes import filter_deleted

        loaded = self._load_delete_keys(snapshot)
        posmap = self._load_pos_deletes(snapshot)
        pos_entries = [e for e in entries if e.path in posmap]
        entries = [e for e in entries if e.path not in posmap]
        groups: dict[tuple, list] = {}
        for e in entries:
            groups.setdefault(self._applicable(e, loaded), []).append(e)

        parts = []
        for app, ents in sorted(groups.items()):
            if not app:
                parts.append(self.scan(snapshot=snapshot, columns=columns,
                                       entries=ents, apply_deletes=False,
                                       **read_kwargs))
                continue
            keyset = sorted(set().union(*[set(loaded[i][1]) for i in app]))
            need = (sorted(set(columns) | set(keyset))
                    if columns is not None else None)
            ds = self.scan(snapshot=snapshot, columns=need, entries=ents,
                           apply_deletes=False, **read_kwargs)
            dels_ref = ray.put([loaded[i][2] for i in app])
            project = columns

            def fn(t: pa.Table, dels_ref=dels_ref, project=project) -> pa.Table:
                return filter_deleted(t, ray.get(dels_ref), project)

            parts.append(ds.map_batches(fn, batch_format="pyarrow"))

        if pos_entries:
            pos_ref = ray.put(posmap)
            dels_ref = ray.put(loaded)
            root = self.root
            keyset = sorted(set().union(
                set(), *[set(kc) for _, kc, _ in loaded]))
            need = (sorted(set(columns) | set(keyset))
                    if columns is not None else None)
            renames = self.meta.get("column_renames") or {}
            need_schema = (pa.schema([self.schema.field(c) for c in need])
                           if need is not None else self.schema)
            project = columns

            def read_pos(batch: pa.Table) -> pa.Table:
                from raylake.functions.cleaning import (
                    apply_renames,
                    normalize_schema,
                )

                pm = ray.get(pos_ref)
                dl = ray.get(dels_ref)
                tabs = []
                for p, sa in zip(batch["path"].to_pylist(),
                                 batch["seq_added"].to_pylist()):
                    try:
                        t = read_file(os.path.join(root, p), columns=need)
                    except (pa.ArrowInvalid, KeyError):
                        # pre-evolution file lacking a selected column
                        t = read_file(os.path.join(root, p))
                    if t.schema != need_schema:  # pre-evolution layout
                        t = normalize_schema(apply_renames(t, renames),
                                             need_schema)
                    from raylake.core.deletes import apply_positions

                    t = apply_positions(t, pm[p])
                    app = Table._applicable_seq(sa, dl)
                    if app:
                        t = filter_deleted(t, [dl[i][2] for i in app])
                    if project is not None:
                        t = t.select(project)
                    tabs.append(t)
                return pa.concat_tables(tabs)

            items = pa.table({
                "path": pa.array([e.path for e in pos_entries]),
                "seq_added": pa.array([e.seq_added for e in pos_entries],
                                      pa.int64()),
            })
            parts.append(
                ray.data.from_arrow(items)
                .repartition(len(pos_entries))  # one read task per file
                .map_batches(read_pos, batch_format="pyarrow"))

        if not parts:
            return ray.data.from_arrow(self.schema.empty_table())
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    def scan_arrow(
        self,
        snapshot: int | None = None,
        columns: list[str] | None = None,
        entries: list[ManifestEntry] | None = None,
        sort: bool = False,
        apply_deletes: bool = True,
    ) -> pa.Table:
        """Driver-side scan (tests / duckdb oracles / small results ONLY)."""
        if entries is None:
            entries = self.live_entries(snapshot)
        if apply_deletes and self.delete_files_meta(snapshot):
            from raylake.core.deletes import filter_deleted

            loaded = self._load_delete_keys(snapshot)
            posmap = self._load_pos_deletes(snapshot)
            parts = []
            for e in entries:
                app = self._applicable(e, loaded)
                keyset = sorted(set().union(
                    *[set(loaded[i][1]) for i in app])) if app else []
                need = (sorted(set(columns) | set(keyset))
                        if columns is not None else None)
                t = self.scan_arrow(snapshot=snapshot, columns=need,
                                    entries=[e], apply_deletes=False)
                pos = posmap.get(e.path)
                if pos is not None:
                    from raylake.core.deletes import apply_positions

                    t = apply_positions(t, pos)
                if app:
                    t = filter_deleted(t, [loaded[i][2] for i in app])
                # Project unconditionally: entries WITHOUT applicable deletes
                # were read with the sorted key-superset column order, so a
                # mixed-applicability concat would raise ArrowInvalid (and an
                # all-clean scan would silently return sorted column order).
                if columns is not None:
                    t = t.select(columns)
                parts.append(t)
            t = (pa.concat_tables(parts) if parts
                 else self.schema.empty_table())
            if sort and len(t):
                t = t.sort_by([(c, "ascending") for c in self.sort_order
                               if c in t.column_names])
            return t
        paths = self._paths(entries)
        if not paths:
            t = self.schema.empty_table()
        else:
            if self._needs_normalize(entries):
                from raylake.functions.cleaning import (
                    apply_renames,
                    normalize_schema,
                )

                schema = self.schema
                if columns is not None:
                    schema = pa.schema([schema.field(c) for c in columns])
                renames = self.meta.get("column_renames") or {}
                tabs = [
                    normalize_schema(apply_renames(read_file(p), renames),
                                     schema)
                    for p in paths
                ]
            else:
                tabs = [read_file(p, columns=columns) for p in paths]
            t = pa.concat_tables(tabs)
        if sort and len(t):
            t = t.sort_by([(c, "ascending") for c in self.sort_order if c in t.column_names])
        return t

    # ------------------------------------------------------- schema evolution

    def add_column(self, name: str, dtype: pa.DataType) -> None:
        """Metadata-only schema evolution (Iceberg-style): existing data
        files are untouched; scans pad the new column with typed nulls until
        compaction naturally rewrites files into the current schema. The
        snapshot seq at the time of the change is recorded so scans know
        which files predate it."""
        from raylake.core.schema import type_to_str

        with _CommitLock(self.root):
            self.refresh()
            if name in self.schema.names:
                raise ValueError(f"column exists: {name}")
            self.meta["schema"].append([name, type_to_str(dtype)])
            self.meta["schema_last_updated_seq"] = self.current_seq
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    def set_sort_order(self, cols: Sequence[str]) -> None:
        """Sort-order EVOLUTION (Iceberg `replaceSortOrder` parity):
        metadata-only — existing files keep their old clustering (their
        stats stay valid); appends, compaction and merge rewrites adopt the
        new order, so a follow-up compact() re-clusters physically.

        MERGE keys are NOT derived from the new order: the first evolution
        freezes the original sort_order[:2] into `identifier_fields`
        (Iceberg's identifier-field separation), because upsert identity
        must never silently change with a clustering hint."""
        cols = list(cols)
        if not cols:
            raise ValueError("sort order cannot be empty")
        unknown = [c for c in cols if c not in self.schema.names]
        if unknown:
            raise ValueError(f"sort columns not in schema: {unknown}")
        with _CommitLock(self.root):
            self.refresh()
            if "identifier_fields" not in self.meta:
                self.meta["identifier_fields"] = self.meta["sort_order"][:2]
            log = self.meta.setdefault("sort_order_log", [
                {"order": self.meta["sort_order"], "since_seq": 0}
            ])
            log.append({"order": cols, "since_seq": self.current_seq})
            self.meta["sort_order"] = cols
            # stats for the new leading columns make pruning work on files
            # written from now on (older files prune conservatively)
            for c in cols:
                if c not in self.meta["stats_columns"]:
                    self.meta["stats_columns"].append(c)
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    @property
    def identifier_fields(self) -> list[str]:
        """Upsert-identity columns (MERGE keys). Defaults to the CREATION
        sort order's first two columns; pinned explicitly the first time
        the sort order evolves."""
        return list(self.meta.get("identifier_fields")
                    or self.meta["sort_order"][:2])

    def rename_column(self, old: str, new: str) -> None:
        """Metadata-only rename (Iceberg-style). Files written before the
        rename still carry the OLD physical name; normalize_schema cannot
        map them (it matches by name), so renames of columns with live data
        are restricted to names recorded in `column_renames` — scans and
        rewrites consult the alias map before padding nulls."""
        with _CommitLock(self.root):
            self.refresh()
            names = [f[0] for f in self.meta["schema"]]
            if old not in names:
                raise ValueError(f"no such column: {old}")
            if new in names:
                raise ValueError(f"column exists: {new}")
            for protected in (self.partition_column, *self.sort_order,
                              *self.identifier_fields):
                if old == protected:
                    raise ValueError(
                        f"cannot rename {old!r}: partition/sort key")
            dcols = self._all_retained_delete_cols()
            if old in dcols:
                raise ValueError(
                    f"cannot rename {old!r}: a merge-on-read delete file in "
                    f"a retained snapshot keys on it ({dcols[old]}); purge "
                    f"with ops.deletes.apply_deletes and expire the old "
                    f"snapshots first")
            self.meta["schema"][names.index(old)][0] = new
            renames = self.meta.setdefault("column_renames", {})
            # every HISTORICAL physical name must map to the current name
            # (files from any point in an a→b→c chain resolve in one hop)
            for k, v in list(renames.items()):
                if v == old:
                    renames[k] = new
            renames[old] = new
            self.meta["schema_last_updated_seq"] = self.current_seq
            self.meta["sort_order"] = [
                new if c == old else c for c in self.meta["sort_order"]]
            self.meta["stats_columns"] = [
                new if c == old else c for c in self.meta["stats_columns"]]
            for c in self.meta.get("properties", {}).get(
                    "constraints", {}).values():
                if c["column"] == old:
                    c["column"] = new
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    def drop_column(self, name: str) -> None:
        """Metadata-only drop: scans project it away; compaction physically
        removes it from rewritten files."""
        with _CommitLock(self.root):
            self.refresh()
            names = [f[0] for f in self.meta["schema"]]
            if name not in names:
                raise ValueError(f"no such column: {name}")
            for protected in (self.partition_column, *self.sort_order,
                              *self.identifier_fields):
                if name == protected:
                    raise ValueError(f"cannot drop {name!r}: partition/sort key")
            dcols = self._all_retained_delete_cols()
            if name in dcols:
                raise ValueError(
                    f"cannot drop {name!r}: a merge-on-read delete file in "
                    f"a retained snapshot keys on it ({dcols[name]}); purge "
                    f"with ops.deletes.apply_deletes and expire the old "
                    f"snapshots first")
            holders = [n for n, c in self.meta.get("properties", {}).get(
                "constraints", {}).items() if c["column"] == name]
            if holders:
                raise ValueError(
                    f"cannot drop {name!r}: referenced by CHECK "
                    f"constraint(s) {holders}; drop_check_constraint first")
            del self.meta["schema"][names.index(name)]
            self.meta["schema_last_updated_seq"] = self.current_seq
            self.meta["stats_columns"] = [
                c for c in self.meta["stats_columns"] if c != name]
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    def _needs_normalize(self, entries: Iterable[ManifestEntry]) -> bool:
        changed_at = self.meta.get("schema_last_updated_seq")
        if changed_at is None:
            return False
        return any(e.seq_added <= changed_at for e in entries)

    # ---------------------------------------------------------------- commit

    def new_data_path(self, partition: int) -> str:
        """Root-relative path for a fresh data file in `partition`."""
        d = f"data/p={partition:05d}" if partition >= 0 else "data/unpartitioned"
        os.makedirs(os.path.join(self.root, d), exist_ok=True)
        return f"{d}/{uuid.uuid4().hex}.parquet"

    def commit(
        self,
        operation: str,
        added: list[ManifestEntry],
        replaced_paths: set[str] | frozenset[str] = frozenset(),
        expected_parent: int | None = None,
        summary: dict | None = None,
        meta_updates: dict | None = None,
        added_deletes: list[dict] | None = None,
        removed_delete_paths: set[str] | frozenset[str] = frozenset(),
        branch: str | None = None,
        manifests_override: list[list["md.ManifestEntry"]] | None = None,
        read_paths: set[str] | frozenset[str] = frozenset(),
    ) -> Snapshot:
        """Atomically commit a new snapshot: live' = live - replaced + added.

        `expected_parent`: the snapshot seq this work was planned against. If
        the table advanced, we rebase iff every replaced path is still live in
        the current snapshot (no intersecting concurrent rewrite); otherwise
        CommitConflictError. Pure appends (replaced empty) always rebase.

        `read_paths`: the data files a merge-on-read MERGE matched its keys
        against. Its equality delete reaches every older row of those keys,
        not only the rows it read, so it rebases only where a copy-on-write
        replace of `read_paths` would, and only if no data file landed since
        the plan in a partition of `read_paths`: the delete would reach
        rows the plan never saw.

        `meta_updates`: table-metadata keys swapped in the SAME table.json
        write as the snapshot pointer — used by partition-spec evolution so
        the data rewrite and the spec flip are one atomic transition (a torn
        pair would mis-bucket every point lookup).

        `manifests_override`: METADATA-ONLY restructure (ops.rewrite_manifests
        — Iceberg rewriteManifests): the new snapshot's manifest list is
        written from these entry groups instead of carrying the parent's
        forward. The entry multiset must be IDENTICAL to the parent's live
        set (validated field-for-field — seq_added preservation is what
        keeps incremental scans and append-CDC truthful), no data/delete
        change may ride along, and a concurrent commit conflicts instead
        of rebasing (re-planning is a metadata read — cheap)."""
        replaced = set(replaced_paths)
        with _CommitLock(self.root) as lk:
            self.refresh()
            if branch is not None:
                refs = self.meta.get("refs", {})
                if branch not in refs or refs[branch]["type"] != "branch":
                    raise KeyError(f"no such branch: {branch}")
                cur = refs[branch]["seq"]
            else:
                cur = self.current_seq
            # Iceberg validateDataFilesExist: a position delete is planned
            # against specific file VERSIONS; if a rewrite replaced any
            # target while this commit waited, rebasing would append an
            # entry pointing at dead paths — scans would ignore it and the
            # deleted rows silently survive in the successor files.
            if (expected_parent is not None and cur != expected_parent
                    and added_deletes):
                live_now = {e.path for e in self.live_entries(cur)}
                for d in added_deletes:
                    if d.get("kind") != "pos":
                        continue
                    gone = [t for t in d["targets"] if t not in live_now]
                    if gone:
                        raise CommitConflictError(
                            f"position-delete targets rewritten since plan "
                            f"(parent {expected_parent}, current {cur}): "
                            f"{gone[:3]}")
            planned = replaced | set(read_paths)
            if expected_parent is not None and cur != expected_parent and planned:
                live_now = {e.path: e for e in self.live_entries(cur)}
                if not planned <= live_now.keys():
                    raise CommitConflictError(
                        f"replaced files no longer live (parent {expected_parent}, "
                        f"current {cur}): {sorted(planned - live_now.keys())[:5]}"
                    )
                # Iceberg validateNoNewDeleteFiles: a merge-on-read delete
                # committed after this rewrite was planned may not have been
                # applied by tasks that ran before it landed — and the
                # rewritten files' NEW sequence would exempt them from it,
                # resurrecting deleted rows. Losing rewrite retries.
                cur_snap = self.snapshot(cur)
                new_dels = [d for d in (cur_snap.delete_files if cur_snap else [])
                            if d["seq"] > expected_parent]
                if new_dels:
                    raise CommitConflictError(
                        f"delete files committed after plan (parent "
                        f"{expected_parent}): "
                        f"{[d['path'] for d in new_dels][:3]}"
                    )
                parts = {live_now[p].partition for p in read_paths}
                fresh = [e.path for e in live_now.values()
                         if e.seq_added > expected_parent
                         and e.partition in parts]
                if fresh:
                    raise CommitConflictError(
                        f"data files added after plan (parent "
                        f"{expected_parent}) to partitions "
                        f"{sorted(parts)[:5]} this commit deletes from: "
                        f"{fresh[:3]}")
            if (meta_updates and "partition_spec" in meta_updates
                    and expected_parent is not None and cur != expected_parent):
                # A spec flip may NEVER rebase: files committed concurrently
                # were bucketed under the OLD spec, and flipping the spec
                # around them silently mis-routes every point lookup and
                # merge plan that touches their keys. Loser re-plans.
                raise CommitConflictError(
                    f"partition-spec change planned at seq {expected_parent} "
                    f"but the table advanced to {cur}; re-plan the "
                    f"repartition")
            if manifests_override is not None:
                if (added or replaced or added_deletes or
                        removed_delete_paths or meta_updates):
                    raise ValueError(
                        "manifests_override is metadata-only: no data, "
                        "delete or meta change may ride the same commit")
                if expected_parent is not None and cur != expected_parent:
                    raise CommitConflictError(
                        f"manifest rewrite planned at seq {expected_parent} "
                        f"but the table advanced to {cur}; re-plan")
                lk.touch()  # validation reads every parent manifest
                want = {e.path: e.to_json() for e in self.live_entries(cur)}
                got = {e.path: e.to_json()
                       for chunk in manifests_override for e in chunk}
                n_over = sum(len(c) for c in manifests_override)
                # The path-keyed dicts collapse duplicates, so an equal
                # dict does NOT prove an equal multiset: a caller that
                # chunks with overlapping slices would pass `want == got`
                # yet write an entry into two manifests (every scan then
                # reads that file twice). The length check closes it.
                if want != got or n_over != len(want):
                    raise ValueError(
                        "manifests_override must contain exactly the "
                        "parent's live entries, unchanged and exactly "
                        "once (including seq_added/stats)")
            new_seq = self.meta["last_sequence"] + 1
            for e in added:
                e.seq_added = new_seq

            # Carry forward parent manifests, rewriting only those that
            # reference replaced files (keeps the metadata tree shallow).
            # Alongside each manifest path the snapshot records its
            # ENVELOPE (md.manifest_envelope) so later plans can skip
            # whole manifests without opening them; pure appends skip
            # reading the parent's manifests entirely — an append commit
            # is O(#manifests), not O(#entries), at any metadata scale.
            manifests: list[str] = []
            metas: list = []
            removed_rows = removed_files = 0
            parent_snap = self.snapshot(cur)
            if manifests_override is not None:
                for chunk in manifests_override:
                    if chunk:
                        lk.touch()  # keep a long rewrite from going stale
                        manifests.append(md.write_manifest(self.root, chunk))
                        metas.append(md.manifest_envelope(chunk))
            elif parent_snap is not None:
                parent_metas = self._manifest_meta(parent_snap)
                for m, env in zip(parent_snap.manifests, parent_metas):
                    if not replaced:
                        manifests.append(m)
                        metas.append(env)
                        continue
                    lk.touch()  # keep a long manifest rewrite from going stale
                    entries = md.read_manifest(self.root, m)
                    if any(e.path in replaced for e in entries):
                        kept = [e for e in entries if e.path not in replaced]
                        dropped = [e for e in entries if e.path in replaced]
                        removed_rows += sum(e.rows for e in dropped)
                        removed_files += len(dropped)
                        if kept:
                            manifests.append(md.write_manifest(self.root, kept))
                            metas.append(md.manifest_envelope(kept))
                    else:
                        manifests.append(m)
                        # already parsed: backfill a legacy manifest's
                        # envelope for free while we hold the entries
                        metas.append(env if env is not None
                                     else md.manifest_envelope(entries))
            if added:
                manifests.append(md.write_manifest(self.root, added))
                metas.append(md.manifest_envelope(added))

            # merge-on-read delete files: carry parent's forward, minus
            # explicitly purged, plus newly added (stamped with this seq).
            # POSITION deletes (kind="pos") target specific file VERSIONS:
            # when a rewrite replaces a target, its positions are meaningless
            # against the successor (rewrites apply them while reading), so
            # prune replaced paths from target lists and drop entries that
            # have no surviving target — their parquets become GC orphans.
            delete_files = []
            for d in (parent_snap.delete_files if parent_snap else []):
                if d["path"] in removed_delete_paths:
                    continue
                if d.get("kind") == "pos" and replaced:
                    targets = [t for t in d["targets"] if t not in replaced]
                    if not targets:
                        continue
                    d = {**d, "targets": targets}
                delete_files.append(d)
            for d in added_deletes or []:
                delete_files.append({**d, "seq": new_seq})

            snap = Snapshot(
                seq=new_seq,
                parent=cur,
                ts_ms=int(time.time() * 1000),
                operation=operation,
                manifests=manifests,
                summary={
                    "added_files": len(added),
                    "added_rows": sum(e.rows for e in added),
                    "added_bytes": sum(e.bytes for e in added),
                    "removed_files": removed_files,
                    "removed_rows": removed_rows,
                    **(summary or {}),
                },
                delete_files=delete_files,
                manifest_meta=metas,
            )
            md.atomic_write_json(
                os.path.join(self.root, "metadata", f"snap-{new_seq}.json"),
                snap.to_json(),
            )
            if branch is not None:
                self.meta["refs"][branch]["seq"] = new_seq
            else:
                self.meta["current_snapshot"] = new_seq
            self.meta["last_sequence"] = new_seq
            log_entry = {"seq": new_seq, "ts_ms": snap.ts_ms,
                         "file": f"metadata/snap-{new_seq}.json"}
            if branch is not None:
                # marked so main-history readers (snapshot_as_of) never
                # resolve to an unpublished branch commit; fast_forward
                # clears the marker when the chain is published
                log_entry["branch"] = branch
            self.meta["snapshot_log"].append(log_entry)
            if meta_updates:
                for k, v in meta_updates.items():
                    self.meta[k] = v
                log = self.meta.get("partition_spec_log")
                if "partition_spec_log" in meta_updates and log:
                    # the new spec takes effect AT this commit — stamp the
                    # actual seq (a rebase over an interleaved append would
                    # otherwise leave a stale planned-time guess)
                    log[-1]["since_seq"] = new_seq
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )
            return snap

    # ----------------------------------------------------------------- write

    # ------------------------------------------------------ CHECK constraints

    _CHECK_OPS = ("not_null", ">=", "<=", ">", "<", "in")

    @property
    def check_constraints(self) -> dict:
        return self.meta.get("properties", {}).get("constraints", {})

    def add_check_constraint(self, name: str, column: str, op: str,
                             value=None, validate: bool = True) -> None:
        """Delta-style CHECK constraint (`ALTER TABLE ADD CONSTRAINT`):
        declarative row predicate enforced at EVERY data-file write —
        append, compaction, merge, repartition all funnel through
        write_file, so enforcement is distributed for free (each task
        validates its own file; no central gate). SQL three-valued
        semantics: only rows where the predicate is FALSE violate; nulls
        pass comparison ops (use op="not_null" to forbid them).
        `validate=True` scans existing live rows first, mirroring Delta's
        add-constraint full-table validation (at cluster scale run the
        equivalent as a distributed filter-count before adding)."""
        with _CommitLock(self.root):
            self.refresh()
            names = [f[0] for f in self.meta["schema"]]
            if column not in names:
                raise ValueError(f"no such column: {column}")
            if op not in self._CHECK_OPS:
                raise ValueError(f"op must be one of {self._CHECK_OPS}")
            cons = self.meta.setdefault("properties", {}).setdefault(
                "constraints", {})
            if name in cons:
                raise ValueError(f"constraint exists: {name}")
            probe = {"column": column, "op": op, "value": value}
            if validate and self.live_entries():
                data = self.scan_arrow(columns=[column])
                bad = self._constraint_violations(data, {name: probe})
                if bad:
                    raise CheckConstraintError(
                        f"existing rows violate {name}: {bad[0]}")
            cons[name] = probe
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    def drop_check_constraint(self, name: str) -> None:
        with _CommitLock(self.root):
            self.refresh()
            cons = self.meta.get("properties", {}).get("constraints", {})
            if name not in cons:
                raise ValueError(f"no such constraint: {name}")
            del cons[name]
            md.atomic_write_json(
                os.path.join(self.root, "metadata", "table.json"), self.meta
            )

    def _constraint_violations(self, table: pa.Table,
                               constraints: dict | None = None) -> list[str]:
        """Violation messages for rows of `table` (vectorized kernels)."""
        msgs = []
        for name, c in (constraints or self.check_constraints).items():
            if c["column"] not in table.column_names:
                continue  # projection without the column: nothing to check
            col = table[c["column"]]
            if c["op"] == "not_null":
                n_bad = col.null_count
            else:
                kern = {">=": pc.greater_equal, "<=": pc.less_equal,
                        ">": pc.greater, "<": pc.less}.get(c["op"])
                ok = (kern(col, c["value"]) if kern
                      else pc.is_in(col, value_set=pa.array(c["value"])))
                # SQL semantics: null predicate result is not a violation
                n_bad = pc.sum(
                    pc.invert(pc.fill_null(ok, True))).as_py() or 0
            if n_bad:
                msgs.append(f"{name}: {n_bad} row(s) fail "
                            f"{c['column']} {c['op']} {c['value']!r}")
        return msgs

    def write_file(self, table: pa.Table, partition: int) -> ManifestEntry:
        """Write one immutable Parquet data file + stats → ManifestEntry."""
        violations = self._constraint_violations(table)
        if violations:
            raise CheckConstraintError("; ".join(violations))
        rel = self.new_data_path(partition)
        abspath = os.path.join(self.root, rel)
        # Strip schema metadata (pandas round-trips attach a b'pandas' blob
        # that makes pa.Schema unhashable — Ray Data then logs "Failed to
        # hash the schemas" on every block unify and skips its dedup fast
        # path; it also breaks read_task_inputs' schema-equality fast path).
        if table.schema.metadata:
            table = table.replace_schema_metadata(None)
        # Codec is a TABLE PROPERTY (Iceberg `write.parquet.compression-codec`
        # parity). zstd stays the default: measured on the 3M-turn
        # maintenance pipeline, lz4 saves only ~4% wall (encode is a minor
        # share of rewrite time) while files grow 1.72× — at 100 TB the
        # extra storage/scan bytes dominate on real disks/networks (tmpfs
        # benches hide the read cost).
        codec = self.meta.get("properties", {}).get("write.compression", "zstd")
        # Footer min/max only for the columns something prunes on: the
        # manifest stats and key bounds below come from the table itself,
        # and default statistics store the min/max of every long `text`
        # value in each page header and column chunk (−17% stored bytes on
        # 32-row files without them).
        stat_cols = [c for c in dict.fromkeys([*self.stats_columns,
                                               *self.identifier_fields])
                     if c in table.column_names]
        pq.write_table(table, abspath, compression=codec,
                       write_statistics=stat_cols or False)
        stats = md.column_stats(table, self.stats_columns)
        # Exact composite identifier-key bounds ("__key_lo"/"__key_hi",
        # aligned with identifier_fields — the same pair ops.merge
        # table_keys plans on). Independent per-column min/max make a file
        # spanning several keys look like a RECTANGLE: a boundary file
        # holding (conv_A tail + conv_B + conv_C) reads as covering
        # (conv_A, turn_min_of_anyone)..(conv_C, turn_max_of_anyone), which
        # glues every merge chain it touches — measured: one boundary file
        # welded a 10^6-turn hot conversation into a single unsplittable
        # merge task (2× wall vs uniform). The true lexicographic bounds
        # are order-free and cheap: min k0, then min k1 among rows at that
        # k0 (ditto max) — sound for sorted AND z-ordered files.
        idf = self.identifier_fields
        if (len(idf) >= 2 and idf[0] in table.column_names
                and idf[1] in table.column_names and len(table)):
            c0 = table[idf[0]].combine_chunks()
            c1 = table[idf[1]].combine_chunks()
            lo0, hi0 = pc.min(c0), pc.max(c0)
            lo1 = pc.min(c1.filter(pc.equal(c0, lo0)))
            hi1 = pc.max(c1.filter(pc.equal(c0, hi0)))
            stats["__key_lo"] = [md._stat_value(lo0), md._stat_value(lo1)]
            stats["__key_hi"] = [md._stat_value(hi0), md._stat_value(hi1)]
        # opt-in per-file bloom filters (`write.bloom_columns` property):
        # point-lookup pruning for columns min/max can't help (core/bloom.py)
        for c in self.meta.get("properties", {}).get("write.bloom_columns",
                                                     []):
            if c in table.column_names and len(table):
                from raylake.core.bloom import STAT_SUFFIX, bloom_build

                stats[f"{c}{STAT_SUFFIX}"] = bloom_build(
                    table[c].combine_chunks())
        return ManifestEntry(
            path=rel,
            partition=partition,
            rows=len(table),
            bytes=os.path.getsize(abspath),
            stats=stats,
        )
