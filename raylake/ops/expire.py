"""Snapshot expiry + reachability-based orphan-file GC (SURVEY §2.8 T7).

Counterpart of Iceberg's `expire_snapshots` / `remove_orphan_files` — which
the reference's tables depend on for space reclamation but never run.

Expiry drops snapshot-log entries (keep_last / older_than, always keeping the
current snapshot, ref heads, and branch lineages), then computes the
REACHABLE set = union of all data files and manifests referenced by the
retained snapshots. Anything on disk that is not reachable and older than
`grace_period_s` (protects in-flight writes of a concurrent committer) is
deleted. Time travel to retained snapshots keeps working — tests assert both
directions.
"""

from __future__ import annotations

import os
import time

from raylake.core import metadata as md
from raylake.core.table import Table, _CommitLock


def _protected_seqs(table: Table) -> set[int]:
    """Ref heads + every commit on a LIVE branch's lineage (branch commits
    are marked in the snapshot log): fast_forward's ancestry walk reads each
    snap file on the chain, so expiring an intermediate branch snapshot
    would break publish. Tag heads need only themselves (a scan reads just
    the head's manifests)."""
    refs = table.meta.get("refs", {})
    live_branches = {name for name, r in refs.items()
                     if r.get("type") == "branch"}
    protected = {r["seq"] for r in refs.values()}
    for e in table.meta["snapshot_log"]:
        if e.get("branch") in live_branches:
            protected.add(e["seq"])
    return protected


def expire_snapshots(
    table: Table,
    keep_last: int | None = None,
    older_than_ms: int | None = None,
    grace_period_s: float = 300.0,
    dry_run: bool = False,
) -> dict:
    """Returns a report: expired snapshot seqs, deleted files, freed bytes.

    Safety protocol (three independent guards):
    - LOG TRUNCATION + REACHABILITY + sweep-candidate ENUMERATION happen
      under the commit lock, so no commit can land between keep-set
      computation and the decision of what is an orphan.
    - The UNLINK LOOP runs AFTER the lock is released: once enumerated, an
      unreachable path can never become reachable again (commits only add
      fresh uuid-named files; replaced files were reachable in the kept
      snapshots), so deleting it lock-free is safe — and concurrent
      committers aren't starved by a long sweep against their 30 s lock
      timeout.
    - `grace_period_s` (default 5 min, deliberately non-zero) protects
      files writers create BEFORE taking the commit lock: data files are
      written lock-free and only become reachable at commit time, so a
      young unreachable file may be an in-flight write, not an orphan.
      The mtime check happens at unlink time. Pass 0.0 only in tests on
      quiesced tables.
    """
    with _CommitLock(table.root) as lk:
        table.refresh()
        log = table.meta["snapshot_log"]
        # named refs pin snapshots regardless of retention policy — a
        # tagged training-data release must outlive keep_last, and branch
        # lineages must stay walkable for fast_forward
        protected = _protected_seqs(table)
        # keep_last counts MAIN-history snapshots only: unpublished branch
        # commits (marked entries) must not consume the user's retention
        # window for main
        main_seqs = [e["seq"] for e in log if "branch" not in e]
        recent_main = set(main_seqs[-keep_last:]) if keep_last is not None else set()
        keep: list[dict] = []
        for entry in log:
            is_current = entry["seq"] == table.current_seq
            is_ref = entry["seq"] in protected
            recent = entry["seq"] in recent_main
            young = older_than_ms is not None and entry["ts_ms"] >= older_than_ms
            if (is_current or is_ref or recent or young
                    or (keep_last is None and older_than_ms is None)):
                keep.append(entry)
        expired = [e for e in log if e not in keep]
        if not dry_run and expired:
            table.meta["snapshot_log"] = keep
            # tombstone expired BRANCH-only seqs: branch commits interleave
            # main's seq space, so changes()'s gap guard would otherwise
            # read a dropped branch seq as a hole in MAIN history and fail
            # a fully-intact main range forever (expired MAIN seqs must
            # still trip the guard — that gap is real)
            branch_seqs = [e["seq"] for e in expired if "branch" in e]
            if branch_seqs:
                table.meta["expired_branch_seqs"] = sorted(
                    set(table.meta.get("expired_branch_seqs", []))
                    | set(branch_seqs))
            md.atomic_write_json(
                os.path.join(table.root, "metadata", "table.json"), table.meta
            )

        # reachability over retained snapshots (still under the lock)
        reachable_data: set[str] = set()
        reachable_meta: set[str] = {"metadata/table.json"}
        for entry in keep:
            lk.touch()  # long reachability walks must not be stale-broken
            reachable_meta.add(entry["file"])
            snap = table.snapshot(entry["seq"])
            for m in snap.manifests:
                if m in reachable_meta:
                    # manifests are immutable and shared across snapshots
                    # via commit carry-forward — walk each ONCE, not once
                    # per retaining snapshot (O(manifests), not
                    # O(snapshots × manifests), at metadata scale)
                    continue
                reachable_meta.add(m)
                for fe in md.read_manifest(table.root, m):
                    reachable_data.add(fe.path)
            for d in snap.delete_files:  # merge-on-read delete parquets
                reachable_data.add(d["path"])
            for f in snap.summary.get("cdc_files", []):  # change-feed files
                reachable_data.add(f["path"])
            for k, v in snap.summary.items():  # spilled late-audit parquets
                if k.endswith("_late_path"):
                    reachable_data.add(v)

        # protect the lineage of IN-FLIGHT jobs: files ledgered by a rewrite
        # task that has not committed yet are on disk but unreachable —
        # deleting them would break a resumable job mid-flight (grace
        # periods alone can't cover long-paused jobs)
        jobs_root = os.path.join(table.root, "metadata", "jobs")
        if os.path.isdir(jobs_root):
            from raylake.state.ledger import Ledger, written_files

            for job_id in os.listdir(jobs_root):
                done = Ledger(table.root, job_id).completed().values()
                reachable_data.update(f["path"] for f in written_files(done))

        # enumerate sweep candidates UNDER the lock (the decision point)
        on_disk_data = []
        data_root = os.path.join(table.root, "data")
        for dirpath, _, files in os.walk(data_root):
            lk.touch()
            for fn in files:
                rel = os.path.relpath(os.path.join(dirpath, fn), table.root)
                if rel not in reachable_data:
                    on_disk_data.append(rel)
        meta_root = os.path.join(table.root, "metadata")
        orphan_meta = []
        for fn in os.listdir(meta_root):
            rel = f"metadata/{fn}"
            if fn.startswith(("manifest-", "snap-")) and rel not in reachable_meta:
                orphan_meta.append(rel)

    # unlink OUTSIDE the lock (see protocol above)
    deleted, freed = [], 0
    now = time.time()

    def sweep(relpaths):
        nonlocal freed
        for rel in relpaths:
            p = os.path.join(table.root, rel)
            try:
                if now - os.path.getmtime(p) < grace_period_s:
                    continue
                sz = os.path.getsize(p)
                if not dry_run:
                    os.unlink(p)
                deleted.append(rel)
                freed += sz
            except FileNotFoundError:
                continue

    sweep(on_disk_data)
    sweep(orphan_meta)

    return {
        "expired_snapshots": [e["seq"] for e in expired],
        "retained_snapshots": [e["seq"] for e in keep],
        "deleted_files": deleted,
        "freed_bytes": freed,
        "dry_run": dry_run,
    }
