"""File, JSON, artifact and process-pool helpers that every command shares.

A leaf module: it imports only the standard library, ``_version`` and
``errors``, so the commands that never step (``audit``, ``gn-test``,
``report``) load no solver through it.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ._version import __version__
from .errors import ConfigError


def load_json(path: str | Path, what: str):
    """The JSON value in file ``path``; ``what`` names the file in errors."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {p}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise ConfigError(f"{what} {p} is not valid JSON: {exc}") from exc


def _reject_constant(name: str):
    # Python's json reads NaN and Infinity, which JSON does not define
    raise ValueError(f"{name} is not a JSON number")


def is_kind(val, kind: type) -> bool:
    # a JSON boolean is no number, and a number kind admits a JSON integer
    if isinstance(val, bool):
        return kind is bool
    return isinstance(val, (int, float) if kind is float else kind)


def make_out_dir(path: Path) -> Path:
    """Create directory ``path`` and its parents; :class:`ConfigError` if it
    cannot be created (a file is in the way, or no permission)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN/inf rejected."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def tool_stamp() -> dict:
    """The ``tool`` entry every artifact carries: name and version."""
    return {"name": "fluxks", "version": __version__}


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it; a failed
    write removes the temp file and raises :class:`ConfigError` naming ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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
