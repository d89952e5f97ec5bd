"""UPDATE ... WHERE — copy-on-write row updates of only the affected files.

Delta/Iceberg `UPDATE t SET col = expr WHERE pred` parity: plan candidate
files from manifest metadata (optionally pruned by column min/max ranges
when the predicate implies them), evaluate the vectorized predicate inside
each rewrite task, and REWRITE ONLY FILES WITH AT LEAST ONE MATCH — a file
whose rows all miss reports `skipped` and keeps its identity (no write
amplification, same shape as apply_deletes' no-op fast path). Everything
rides the shared resumable-rewrite machinery (ledger checkpoints, single
atomic replace-commit, conflict rebase rules, branch scoping), merge-on-read
deletes are applied while rewriting (Iceberg's rule — the output file's new
sequence would otherwise exempt it), and the updated files pass back through
the write_file CHECK-constraint gate.

Not allowed: assignments to partition / sort-order / identifier columns —
changing those would silently mis-route rows or break file-level sort
invariants; route key-changing rewrites through merge_into instead.

Reference semantics: the SCD1 overwrite family
(/root/reference/src/elt/silver/_silver_handler.py:144-155) updates changed
attribute columns in place; this is the predicate-targeted form.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import pyarrow as pa
import pyarrow.compute as pc

from raylake.core.table import Table
from raylake.ops.rewrite import (
    DEFAULT_TARGET_FILE_BYTES,
    RewriteTask,
    group_files,
    read_task_inputs,
    run_rewrite_job,
    skipped,
    task_result,
)


def plan_update(table: Table, max_task_bytes: int,
                prune: Mapping[str, tuple] | None = None,
                branch: str | None = None) -> list[RewriteTask]:
    """Candidate files (manifest-pruned when `prune` col-ranges are given),
    binned per partition into ≤max_task_bytes tasks."""
    snapshot = table.resolve_ref(branch) if branch else None
    return group_files(table.prune(snapshot=snapshot, **dict(prune or {})),
                       "u", max_task_bytes)


def _update_task(table: Table, task: dict, params: dict) -> dict:
    data = read_task_inputs(table, task, params.get("branch"))
    pred = params["predicate"](data)
    # Normalize without pa.array(<iterable>): iterating an EMPTY result
    # (every row of the task's inputs masked by MOR deletes) would infer
    # null type and make fill_null(False) raise ArrowInvalid.
    if isinstance(pred, pa.ChunkedArray):
        pred = pred.combine_chunks()
    elif not isinstance(pred, pa.Array):
        pred = pa.array(pred, pa.bool_())
    mask = pc.fill_null(pc.cast(pred, pa.bool_()), False)
    n_hits = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
    if n_hits == 0 and len(data) == task["input_rows"]:
        return skipped()
    cols = {}
    for name, expr in params["set_exprs"].items():
        new = expr(data) if callable(expr) else pa.array(
            [expr] * len(data), data.schema.field(name).type)
        if not isinstance(new, (pa.Array, pa.ChunkedArray)):
            new = pa.array(new, data.schema.field(name).type)
        cols[name] = pc.if_else(mask, pc.cast(new, data[name].type),
                                data[name])
    updated = pa.table(
        {f.name: cols.get(f.name, data[f.name]) for f in data.schema})
    out = task_result(table, task, params, updated)
    if params.get("cdc"):
        # change-data-feed capture: the task holds both row versions —
        # record them so Table.changes can reconstruct this commit. A task
        # that rewrote files with ZERO predicate hits (possible when MOR
        # deletes forced the rewrite) still reports the key with an empty
        # list, so the commit is marked cdc-complete rather than feed-
        # breaking.
        from raylake.ops.merge import _write_cdc_file

        out["cdc_files"] = _write_cdc_file(table, [
            (data.filter(mask), "update_preimage"),
            (updated.filter(mask), "update_postimage"),
        ]) if n_hits else []
    return out


def update_where(
    table: Table,
    predicate: Callable[[pa.Table], "pa.Array"],
    set_exprs: Mapping[str, "Callable[[pa.Table], pa.Array] | Any"],
    prune: Mapping[str, tuple] | None = None,
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    job_id: str | None = None,
    concurrency: int | None = None,
    max_tasks: int | None = None,
    branch: str | None = None,
    cdc: bool = False,
):
    """UPDATE table SET {col: expr} WHERE predicate(batch).

    `predicate`: vectorized batch → boolean mask. `set_exprs`: per-column
    either a constant or a vectorized batch → array callable; evaluated
    against the PRE-update row values (standard SQL UPDATE semantics —
    all assignments see the old row). Returns the committed Snapshot, or
    None when every task skipped (nothing matched) or the job is
    incomplete (resume with the same job_id).

    `cdc=True`: tasks record update pre/post images as change parquets in
    the commit summary, making the commit reconstructable by
    `Table.changes` (same contract as merge_into(cdc=True))."""
    protected = {table.partition_column, *table.sort_order,
                 *table.identifier_fields}
    bad = sorted(set(set_exprs) & protected - {None})
    if bad:
        raise ValueError(
            f"cannot UPDATE partition/sort/identifier column(s) {bad}; "
            f"use merge_into for key-changing rewrites")
    unknown = sorted(set(set_exprs) - {f.name for f in table.schema})
    if unknown:
        raise ValueError(f"no such column(s): {unknown}")
    return run_rewrite_job(
        table,
        "update",
        lambda: (plan_update(table, target_file_bytes * 4, prune, branch), {}),
        _update_task,
        job_id=job_id,
        params={
            "predicate": predicate,
            "set_exprs": dict(set_exprs),
            "target_file_bytes": target_file_bytes,
            "branch": branch,
            "cdc": cdc,
        },
        concurrency=concurrency,
        max_tasks=max_tasks,
        branch=branch,
    )
