"""Regime-lattice parameter sweeps with resumable, deterministic artifacts.

A sweep runs one simulation per ``(n, theta, p_fraction)`` lattice point and
writes one JSON file per point, keyed by a content hash of the point
parameters.  Artifact rules:

* point files are written atomically (temp file + ``os.replace``), so an
  interrupted sweep never leaves a truncated JSON behind;
* resuming skips any point whose file already exists and matches; a second
  ``run_sweep`` over a finished directory performs zero simulations;
* point files, ``sweep.json`` and ``regime_map.csv`` are byte-identical
  across repeats and across ``parallelism`` settings.  Wall-clock times go
  to a ``timings.json`` sidecar which is exempt from that guarantee.

Each 1d point runs on ``[0, 1]``, 2d on the unit square, and ``n >= 3`` on
the radial ball of radius 1.  Initial density is a modest cosine bump
``1 + amplitude * prod_a cos(pi x_a)`` (radial: ``1 + amplitude * cos(pi r)``)
with ``v0 = u0 ** theta``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from ._version import __version__
from .errors import ConfigError
from .grid import MIN_CELLS_PER_AXIS, unit_grid
from .model import INITIAL_FAMILIES, InitialSettings, ModelParams, build_initial_data
from .monitors import classify
from .regimes import RegimeSpec, audit, critical_exponent, relative_p
from .stepper import DEFAULT_RECORD_EVERY, StepControls, simulate

SWEEP_VERSION = 4

REGIME_MAP_COLUMNS = (
    "n",
    "theta",
    "p_fraction",
    "p",
    "p_critical",
    "subcritical",
    "status",
    "classification",
    "expected",
    "mismatch",
    "point_id",
)


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


def map_in_pool(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, in that order, on a pool of ``workers`` processes.

    With one worker or at most one item it runs in this process.  ``fn`` must
    be a module-level function and ``items`` picklable, so that the pool
    works under any start method.
    """
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SweepSpec:
    """Lattice definition plus the shared per-point run settings.

    With ``p_mode="relative"`` (the default, and the scientifically useful
    axis) each entry of ``p_values`` is an affine fraction of the admissible
    flux-exponent interval (see :func:`fluxks.regimes.relative_p`); entries
    >= 1 give supercritical exploratory points.  With ``p_mode="absolute"``
    the entries are flux exponents directly (must exceed 1).
    """

    n_values: tuple[int, ...]
    theta_values: tuple[float, ...]
    p_values: tuple[float, ...]
    p_mode: str = "relative"
    chi: float = 1.0
    eps: float = 1e-3
    family: str = InitialSettings.family
    amplitude: float = 0.1
    t_end: float = 5.0
    dt_max: float = StepControls.dt_max
    dt_min: float = StepControls.dt_min
    cfl_safety: float = StepControls.cfl_safety
    blowup_linf_threshold: float = StepControls.blowup_linf_threshold
    cells_1d: int = 256
    cells_2d: int = 128
    cells_radial: int = 256
    record_every: int = DEFAULT_RECORD_EVERY
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_values", "theta_values", "p_values"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigError(f"sweep {name} must be nonempty")
            object.__setattr__(self, name, tuple(vals))
        if any(int(n) != n or n < 1 for n in self.n_values):
            raise ConfigError(f"n_values must be integers >= 1, got {self.n_values}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.p_mode not in ("relative", "absolute"):
            raise ConfigError(f"p_mode must be 'relative' or 'absolute', got {self.p_mode!r}")
        # the comparisons are written so that NaN fails them
        if not all(th > 0.0 for th in self.theta_values):
            raise ConfigError(f"theta_values must be positive, got {self.theta_values}")
        p_floor = 0.0 if self.p_mode == "relative" else 1.0
        if not all(v > p_floor for v in self.p_values):
            raise ConfigError(
                f"{self.p_mode} p_values must exceed {p_floor}, got {self.p_values}"
            )
        if not self.chi >= 0.0:
            raise ConfigError(f"chi must be >= 0, got {self.chi}")
        if not (0.0 <= self.eps < 1.0):
            raise ConfigError(f"eps must lie in [0, 1), got {self.eps}")
        if self.family not in INITIAL_FAMILIES:
            raise ConfigError(
                f"unknown initial family {self.family!r}; choose from {INITIAL_FAMILIES}"
            )
        if not (0.0 <= self.amplitude < 1.0):
            # amplitude < 1 keeps the unit-base initial density strictly positive
            raise ConfigError(f"amplitude must lie in [0, 1), got {self.amplitude}")
        try:
            _pick(StepControls, vars(self))
        except ValueError as exc:
            raise ConfigError(f"sweep controls: {exc}") from exc
        for name in ("cells_1d", "cells_2d", "cells_radial"):
            if getattr(self, name) < MIN_CELLS_PER_AXIS:
                raise ConfigError(f"sweep {name} must be >= {MIN_CELLS_PER_AXIS}")
        if self.record_every < 1:
            raise ConfigError("sweep record_every must be >= 1")
        # NaN fails the range checks above; an infinity passes some of them
        for f in fields(self):
            val = getattr(self, f.name)
            vals = val if isinstance(val, tuple) else (val,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in vals):
                raise ConfigError(f"sweep {f.name} must be finite, got {val}")
        # a radial point grid's cell weights leave the float range at large n
        for n in self.n_values:
            try:
                unit_grid(n, _point_cells(self, n))
            except ValueError as exc:
                raise ConfigError(f"sweep point grid: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


# the SweepSpec fields that span the lattice; every other field is a run
# setting that each point carries, and so enters its id
_LATTICE_FIELDS = frozenset(
    {"n_values", "theta_values", "p_values", "p_mode", "cells_1d", "cells_2d", "cells_radial"}
)


def _pick(cls, values: dict):
    """``cls`` built from the entries of ``values`` that its fields name."""
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _point_cells(spec: SweepSpec, n: int) -> int:
    if n == 1:
        return spec.cells_1d
    if n == 2:
        return spec.cells_2d
    return spec.cells_radial


def sweep_points(spec: SweepSpec) -> list[dict]:
    """Expanded lattice, sorted by ``(n, theta, p)``, with content ids."""
    shared = {k: v for k, v in asdict(spec).items() if k not in _LATTICE_FIELDS}
    points = []
    for n in spec.n_values:
        for theta in spec.theta_values:
            for val in spec.p_values:
                if n * theta <= 1.0:
                    raise ConfigError(
                        f"lattice point n={n}, theta={theta} has no critical "
                        "exponent (n * theta <= 1)"
                    )
                p_c = critical_exponent(n, theta)
                if spec.p_mode == "relative":
                    p = relative_p(n, theta, val)
                    frac = float(val)
                else:
                    p = float(val)
                    frac = (p - 1.0) / (p_c - 1.0)
                point = {
                    **shared,
                    "n": n,
                    "theta": float(theta),
                    "p_fraction": frac,
                    "p": p,
                    "cells": _point_cells(spec, n),
                    "version": SWEEP_VERSION,
                }
                point["point_id"] = point_id(point)
                points.append(point)
    points.sort(key=lambda pt: (pt["n"], pt["theta"], pt["p"]))
    return points


def point_id(point: dict) -> str:
    payload = {k: v for k, v in point.items() if k != "point_id"}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def run_point(point: dict) -> dict:
    """Simulate one lattice point and summarize it (no file output here)."""
    grid = unit_grid(point["n"], point["cells"])
    initial = build_initial_data(
        grid,
        family=point["family"],
        base=1.0,
        amplitude=point["amplitude"],
        v0_kind="u0_pow_theta",
        theta=point["theta"],
    )
    regime = audit(RegimeSpec(n=point["n"], theta=point["theta"], p=point["p"]))
    result = simulate(
        initial,
        _pick(ModelParams, point),
        _pick(StepControls, point),
        record_every=point["record_every"],
        keep_states="ends",
    )
    verdict = classify(result.records, result.status)

    recs = result.records
    mass0 = recs[0].mass
    mass_end = recs[-1].mass
    expected = "Bounded" if regime.subcritical else "exploratory"
    mismatch = bool(regime.subcritical and verdict.classification != "Bounded")
    return {
        "point": {k: v for k, v in point.items() if k != "point_id"},
        "point_id": point["point_id"],
        "audit": {
            "p_critical": regime.p_critical,
            "subcritical": regime.subcritical,
            "critical_boundary": regime.critical_boundary,
            "route": regime.route,
            "feasible": regime.feasible,
        },
        "run": {
            "status": result.status.value,
            "message": result.message,
            "n_steps": result.n_steps,
            "t_final": recs[-1].t,
            "n_records": len(recs),
            "mass_initial": mass0,
            "mass_final": mass_end,
            "mass_drift_rel": abs(mass_end - mass0) / abs(mass0),
            "u_linf_final": recs[-1].u_linf,
            "u_linf_max": max(r.u_linf for r in recs),
            "F2_max": max(r.F2 for r in recs),
            "gradv_l2_max": max(r.gradv_l2 for r in recs),
            "clamped_mass": result.clamped_mass_cumulative,
        },
        # the verdict's terminal status is run.status
        **{k: v for k, v in verdict.to_dict().items() if k != "terminal_status"},
        "expected": expected,
        "mismatch": mismatch,
        "version": SWEEP_VERSION,
    }


def _run_point_timed(point: dict) -> tuple[dict, float]:
    t0 = time.perf_counter()
    res = run_point(point)
    return res, time.perf_counter() - t0


def _load_existing(out_dir: Path, pid: str) -> dict | None:
    """The completed result of point ``pid`` in ``out_dir``, else ``None``.

    A completed point file parses, names ``pid`` and carries this
    ``SWEEP_VERSION``; a missing, truncated or stale file does not count.
    """
    try:
        data = json.loads((out_dir / f"{pid}.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    return data if data.get("point_id") == pid and data.get("version") == SWEEP_VERSION else None


@dataclass(frozen=True)
class SweepResult:
    out_dir: Path
    results: list[dict]
    n_run: int
    n_skipped: int
    n_mismatch: int
    manifest_path: Path
    regime_map_path: Path
    timings_path: Path
    # wall seconds per freshly-run point id; informational only, excluded
    # from the byte-identical artifact guarantee
    timings: dict[str, float]


def regime_map_csv(results: list[dict]) -> str:
    """Regime map as CSV text, one row per point, sorted by ``(n, theta, p)``."""
    rows = sorted(
        results, key=lambda r: (r["point"]["n"], r["point"]["theta"], r["point"]["p"])
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REGIME_MAP_COLUMNS)
    for res in rows:
        pt = res["point"]
        writer.writerow(
            [
                str(pt["n"]),
                repr(float(pt["theta"])),
                repr(float(pt["p_fraction"])),
                repr(float(pt["p"])),
                repr(float(res["audit"]["p_critical"])),
                str(bool(res["audit"]["subcritical"])).lower(),
                res["run"]["status"],
                res["classification"],
                res["expected"],
                str(bool(res["mismatch"])).lower(),
                res["point_id"],
            ]
        )
    return buf.getvalue()


def run_sweep(
    spec: SweepSpec,
    out_dir: str | Path,
    parallelism: int = 1,
    resume: bool = True,
) -> SweepResult:
    """Run the lattice, writing per-point JSON plus manifest and regime map.

    ``parallelism > 1`` distributes points over a process pool; outputs are
    byte-identical either way.  With ``resume`` (default) points whose files
    already exist and validate are not re-simulated.
    """
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = sweep_points(spec)

    by_id: dict[str, dict] = {}
    todo: list[dict] = []
    n_skipped = 0
    for point in points:
        if resume:
            existing = _load_existing(out, point["point_id"])
            if existing is not None:
                by_id[point["point_id"]] = existing
                n_skipped += 1
                continue
        todo.append(point)

    timings: dict[str, float] = {}
    total0 = time.perf_counter()
    fresh = map_in_pool(_run_point_timed, todo, parallelism)
    for res, elapsed in fresh:
        pid = res["point_id"]
        by_id[pid] = res
        timings[pid] = elapsed
        write_atomic(out / f"{pid}.json", canonical_json(res) + "\n")

    results = [by_id[pt["point_id"]] for pt in points]
    n_mismatch = sum(1 for r in results if r["mismatch"])

    manifest = {
        "version": SWEEP_VERSION,
        "tool": tool_stamp(),
        "seed": spec.seed,
        "spec": spec.to_dict(),
        "points": [
            {
                "point_id": pt["point_id"],
                "n": pt["n"],
                "theta": pt["theta"],
                "p_fraction": pt["p_fraction"],
                "p": pt["p"],
            }
            for pt in points
        ],
    }
    manifest_path = out / "sweep.json"
    write_atomic(manifest_path, canonical_json(manifest) + "\n")

    regime_map_path = out / "regime_map.csv"
    write_atomic(regime_map_path, regime_map_csv(results))

    timings_path = out / "timings.json"
    write_atomic(
        timings_path,
        json.dumps(
            {
                "total_seconds": time.perf_counter() - total0,
                "parallelism": parallelism,
                "points": timings,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )

    return SweepResult(
        out_dir=out,
        results=results,
        n_run=len(fresh),
        n_skipped=n_skipped,
        n_mismatch=n_mismatch,
        manifest_path=manifest_path,
        regime_map_path=regime_map_path,
        timings_path=timings_path,
        timings=timings,
    )


def regime_map_summary(results: list[dict]) -> str:
    """Plain-text regime map: one line per point plus a flag count."""
    rows = sorted(
        results, key=lambda r: (r["point"]["n"], r["point"]["theta"], r["point"]["p"])
    )
    lines = []
    n_flags = 0
    for res in rows:
        pt = res["point"]
        tag = ""
        if res["expected"] == "exploratory":
            tag = "  [exploratory]"
        elif res["mismatch"]:
            tag = "  [FLAG: subcritical point not Bounded]"
            n_flags += 1
        lines.append(
            f"n={pt['n']} theta={pt['theta']:g} p={pt['p']:.6g} "
            f"(f={pt['p_fraction']:.4g}, p_c={res['audit']['p_critical']:.6g}) "
            f"-> {res['classification']} [{res['run']['status']}]{tag}"
        )
    lines.append(
        f"{len(rows)} points, {n_flags} flagged"
        + (" (subcritical points not classified Bounded)" if n_flags else "")
    )
    return "\n".join(lines) + "\n"
