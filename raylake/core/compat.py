"""Environment compatibility shims (applied once at `import raylake`).

`ensure_fsspec_http_importable` — Ray Data's path resolution probes
`from fsspec.implementations.http import HTTPFileSystem` on EVERY
file-based read (`read_source`, the catalog queries' source reads;
ray/data/datasource/path_util.py:153,
`_is_http_filesystem`) and treats `ModuleNotFoundError` as "no http fs".
When aiohttp is not installed that import always fails, and a FAILED
import is evicted from `sys.modules` — so two threads building Datasets
concurrently (e.g. parallel DAG jobs, pipelines/dag.py) race the import
machinery: the loser observes the winner's partially-initialized module
and gets a plain `ImportError: cannot import name 'HTTPFileSystem'`,
which Ray does NOT catch, intermittently killing an unrelated local-file
read. Caching a stub module that exposes an HTTPFileSystem class makes
the probe succeed deterministically and thread-safely; the stub class is
never instantiated (Ray only uses it in `isinstance` checks, which are
always False for real filesystems) and raises if anyone tries.
"""

from __future__ import annotations

import sys
import types


def ensure_fsspec_http_importable() -> None:
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return  # real module imports fine: nothing to shim
    except ImportError:
        pass
    try:
        import fsspec.implementations
    except ImportError:
        return  # no fsspec at all: Ray's ModuleNotFoundError path is safe

    class HTTPFileSystem:  # noqa: N801 — must match the probed name
        def __init__(self, *a, **k):
            raise ImportError(
                "fsspec HTTP filesystem unavailable (aiohttp not "
                "installed); this stub only exists to make Ray Data's "
                "isinstance probe thread-safe")

    mod = types.ModuleType("fsspec.implementations.http")
    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
    fsspec.implementations.http = mod
