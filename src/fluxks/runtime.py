"""Artifact and process-pool helpers that every command shares.

A leaf module: it imports only the standard library and ``_version``, so the
commands that never step (``audit``, ``gn-test``) load no solver through it.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ._version import __version__


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN/inf rejected."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def tool_stamp() -> dict:
    """The ``tool`` entry every artifact carries: name and version."""
    return {"name": "fluxks", "version": __version__}


def write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def available_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def imap_in_pool(fn, items: list, workers: int):
    """Yield ``fn(x)`` for each of ``items``, in that order, as each result
    arrives from a pool of ``workers`` processes.

    With one worker or at most one item it runs in this process.  ``fn`` must
    be a module-level function and ``items`` picklable, so that the pool
    works under any start method.
    """
    if workers == 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # a fork-started pool forks all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        yield from pool.map(fn, items)


def map_in_pool(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, computed as :func:`imap_in_pool` does."""
    return list(imap_in_pool(fn, items, workers))
