"""Spans recorded by the benchmark around calls into raylake's layers.

A span is (id, name, start, end, parent, counts). Spans live in memory and
are written once, when the run ends. With tracing off, `Tracer.span` returns
a shared no-op context and `install_wrappers` is never called, so the
untraced run measures the program as shipped.

The wrappers replace a few driver-side functions for the traced run only:
`Table.commit`, `Table.live_entries`, `Table.prune_point` and the plan
functions of compact, zorder, merge and apply_deletes. Rewrite tasks run in
Ray worker processes, so their time is read from the snapshot summary the
commit writes (`task_wall_s`), never from spans.
"""

from __future__ import annotations

import contextlib
import time

_NULL = contextlib.nullcontext()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, sid, name, start, parent, counts):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = counts

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "counts": self.counts}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0  # time spent inside span bookkeeping

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return self._span(name, counts)

    @contextlib.contextmanager
    def _span(self, name, counts):
        t0 = time.perf_counter()
        sp = Span(len(self.spans), name, 0.0,
                  self._stack[-1] if self._stack else None, counts)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        self.overhead_s += sp.start - t0
        try:
            yield sp
        finally:
            t1 = time.perf_counter()
            sp.end = t1
            self._stack.pop()
            self.overhead_s += time.perf_counter() - t1

    def add(self, **counts) -> None:
        """Attach counts to the innermost open span."""
        if self.enabled and self._stack:
            sp = self.spans[self._stack[-1]]
            for k, v in counts.items():
                sp.counts[k] = sp.counts.get(k, 0) + v

    # ------------------------------------------------------------- analysis

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for c in sorted(kids.get(s.id, []), key=lambda c: c.start):
                if cur_hi is None or c.start > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = c.start, c.end
                else:
                    cur_hi = max(cur_hi, c.end)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = (s.end - s.start) - covered
        return out

    def descendants(self, sid: int) -> list[Span]:
        out, frontier = [], {sid}
        for s in self.spans[sid + 1:]:  # children start after parents
            if s.parent in frontier:
                out.append(s)
                frontier.add(s.id)
        return out


def install_wrappers(tracer: Tracer) -> list:
    """Wrap raylake's driver-side layer boundaries; returns undo records."""
    from importlib import import_module

    from raylake.core.table import CommitConflictError, Table

    # raylake.ops re-exports functions under its module names (ops.compact
    # is the function), so the modules are fetched by import path
    compact_mod, deletes_mod, merge_mod, zorder_mod = (
        import_module(f"raylake.ops.{m}")
        for m in ("compact", "deletes", "merge", "zorder"))

    undo = []

    def patch(owner, attr, wrapper_factory):
        orig = getattr(owner, attr)
        undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper_factory(orig))

    def commit_w(orig):
        def commit(self, operation, added, *a, **kw):
            with tracer.span("core.table.commit", commits=1,
                             added_files=len(added)):
                try:
                    return orig(self, operation, added, *a, **kw)
                except CommitConflictError:
                    tracer.add(conflicts=1)
                    raise
        return commit

    def live_entries_w(orig):
        def live_entries(self, snapshot=None, manifest_filter=None):
            with tracer.span("core.metadata.live_entries") as sp:
                out = orig(self, snapshot, manifest_filter)
            # counted outside the span; the extra snapshot read is overhead
            t0 = time.perf_counter()
            snap = self.snapshot(snapshot)
            sp.counts.update(calls=1, entries=len(out),
                             manifests=len(snap.manifests) if snap else 0)
            tracer.overhead_s += time.perf_counter() - t0
            return out
        return live_entries

    def prune_point_w(orig):
        def prune_point(self, conv_value, entries=None, snapshot=None):
            with tracer.span("core.table.prune_point") as sp:
                out = orig(self, conv_value, entries, snapshot)
                sp.counts.update(calls=1, files_read=len(out))
                return out
        return prune_point

    def plan_w(name, count_tasks):
        def factory(orig):
            def plan(*a, **kw):
                with tracer.span(name) as sp:
                    out = orig(*a, **kw)
                    tasks = count_tasks(out)
                    sp.counts.update(
                        calls=1, tasks=len(tasks),
                        input_files=sum(len(t.input_paths) for t in tasks))
                    return out
            return plan
        return factory

    patch(Table, "commit", commit_w)
    patch(Table, "live_entries", live_entries_w)
    patch(Table, "prune_point", prune_point_w)
    patch(compact_mod, "plan_compaction",
          plan_w("ops.compact.plan_compaction", lambda r: r))
    patch(zorder_mod, "plan_zorder",
          plan_w("ops.zorder.plan_zorder", lambda r: r))
    patch(merge_mod, "_plan_merge_tasks",
          plan_w("ops.merge.plan_merge", lambda r: r))
    patch(deletes_mod, "plan_apply_deletes",
          plan_w("ops.deletes.plan_apply_deletes", lambda r: r[0]))
    return undo


def uninstall_wrappers(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
