"""Per-partition checkpoint ledger — resumable maintenance jobs with lineage.

Generalizes the only checkpointing the reference has (streaming
`checkpointLocation`, ref: src/elt/bronze/_bronze_handler.py:83) into batch
maintenance: every rewrite task atomically records
`(job_id, task_id, input_files → output_files, rows, bytes, wall_s, cpu_s)`
BEFORE the job's final commit. A re-run of the same job_id skips completed
tasks and assembles the commit from the ledger (SURVEY §4
"checkpoint/resume").

One JSON file per task (atomic tmp+rename) — no shared-file append races
between concurrent actor tasks.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from raylake.core.metadata import atomic_write_json, read_json


#: the lists in a task's ledger record of the files the task wrote, each
#: item a dict with the file's "path": data files (manifest entries),
#: merge-on-read equality-delete files and change-feed files. Until the
#: job commits, only the ledger reaches them.
WRITTEN_FILES = ("entries", "deletes", "cdc_files")


def written_files(records, *kinds: str) -> list[dict]:
    """The items of the `kinds` lists (default: all of WRITTEN_FILES)
    across ledger records, in record order."""
    return [f for rec in records for k in kinds or WRITTEN_FILES
            for f in rec.get(k, [])]


class Ledger:
    def __init__(self, table_root: str, job_id: str):
        self.job_id = job_id
        self.dir = os.path.join(table_root, "metadata", "jobs", job_id)
        os.makedirs(self.dir, exist_ok=True)

    def meta_path(self) -> str:
        return os.path.join(self.dir, "_job.json")

    def write_meta(self, meta: dict) -> None:
        atomic_write_json(self.meta_path(), meta)

    def read_meta(self) -> dict | None:
        try:
            return read_json(self.meta_path())
        except FileNotFoundError:
            return None

    def record(self, task_id: str, rec: dict) -> None:
        rec = {"job_id": self.job_id, "task_id": task_id, "ts": time.time(), **rec}
        atomic_write_json(os.path.join(self.dir, f"task-{task_id}.json"), rec)

    def completed(self) -> dict[str, dict]:
        out = {}
        for fn in os.listdir(self.dir):
            if fn.startswith("task-") and fn.endswith(".json"):
                try:
                    rec = read_json(os.path.join(self.dir, fn))
                    out[rec["task_id"]] = rec
                except (json.JSONDecodeError, KeyError):
                    continue  # torn write from a killed task → task re-runs
        return out

    def clear(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
