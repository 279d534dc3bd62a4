"""Regime-lattice parameter sweeps with resumable, deterministic artifacts.

A sweep runs one simulation per ``(n, theta, p_fraction)`` lattice point and
writes one JSON file per point, keyed by a content hash of the point
parameters, into a sweep directory; :mod:`fluxks.sweepdir` defines its files
and their resume and byte-identity rules.

A sweep config (:func:`parse_sweep_config`) is a flat JSON object whose keys
are the fields of :class:`SweepSpec`.  Each point runs the
:class:`~fluxks.config.RunConfig` that :func:`point_config` builds through
the run-config parser, so a point a run config would reject fails the spec,
before any point runs.  Each 1d point runs on ``[0, 1]``, 2d on the unit
square, and ``n >= 3`` on the radial ball of radius 1.  Initial density is a
modest cosine bump ``1 + amplitude * prod_a cos(pi x_a)`` (radial:
``1 + amplitude * cos(pi r)``), or another ``family``, with ``v0 = u0 ** theta``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

try:
    import resource
except ImportError:  # POSIX only
    resource = None

from .errors import ConfigError
from .config import RunConfig, parse_config_dict, read_fields
from .functionals import sample
from .grid import MIN_CELLS_PER_AXIS, unit_grid_section
from .model import InitialSettings, ModelParams
from .monitors import classify
from .regimes import RegimeSpec, audit, critical_exponent, relative_p
from .runtime import canonical_json, imap_in_pool, load_json, make_out_dir, write_atomic
from .stepper import DEFAULT_RECORD_EVERY, StepControls
from .sweepdir import SWEEP_VERSION, load_point, run_summary, write_manifest, write_point, write_regime_map


@dataclass(frozen=True)
class SweepSpec:
    """Lattice definition plus the shared per-point run settings.

    With ``p_mode="relative"`` (the default, and the scientifically useful
    axis) each entry of ``p_values`` is an affine fraction of the admissible
    flux-exponent interval (see :func:`fluxks.regimes.relative_p`); entries
    >= 1 give supercritical exploratory points.  With ``p_mode="absolute"``
    the entries are flux exponents directly (must exceed 1).  Every point's
    settings must pass the run-config checks (:func:`point_config`).
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
    blowup_linf_threshold: float = StepControls.blowup_linf_threshold
    cells_1d: int = 256
    cells_2d: int = 128
    cells_radial: int = 256
    record_every: int = DEFAULT_RECORD_EVERY

    def __post_init__(self) -> None:
        for name in ("n_values", "theta_values", "p_values"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigError(f"sweep {name} must be nonempty")
            # a set compares numbers, so 2 and 2.0 repeat one lattice point
            if len(set(vals)) != len(vals):
                raise ConfigError(f"sweep {name} must not repeat a value, got {vals}")
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
        if not (0.0 <= self.amplitude < 1.0):
            # amplitude < 1 keeps the unit-base initial density strictly positive
            raise ConfigError(f"amplitude must lie in [0, 1), got {self.amplitude}")
        # a cells field no lattice dimension uses is still a setting of the sweep
        for name in ("cells_1d", "cells_2d", "cells_radial"):
            if not getattr(self, name) >= MIN_CELLS_PER_AXIS:
                raise ConfigError(f"sweep {name} must be >= {MIN_CELLS_PER_AXIS}")
        # NaN fails the range checks above or the run-config checks below; an
        # infinity passes some of them.  Either would fail to hash as a point id
        for f in fields(self):
            val = getattr(self, f.name)
            vals = val if isinstance(val, tuple) else (val,)
            if any(isinstance(x, float) and math.isinf(x) for x in vals):
                raise ConfigError(f"sweep {f.name} must be finite, got {val}")
        for point in _lattice(self):
            point_config(point)

    def to_dict(self) -> dict:
        return asdict(self)


# the SweepSpec fields that span the lattice; every other field is a run
# setting that each point carries, and so enters its id
_LATTICE_FIELDS = frozenset(
    {"n_values", "theta_values", "p_values", "p_mode", "cells_1d", "cells_2d", "cells_radial"}
)


def _lattice(spec: SweepSpec) -> list[dict]:
    # the points of the lattice, without their ids
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
                    "cells": {1: spec.cells_1d, 2: spec.cells_2d}.get(n, spec.cells_radial),
                    "version": SWEEP_VERSION,
                }
                points.append(point)
    return points


def sweep_points(spec: SweepSpec) -> list[dict]:
    """Expanded lattice, sorted by ``(n, theta, p)``, with content ids."""
    points = [dict(pt, point_id=point_id(pt)) for pt in _lattice(spec)]
    return sorted(points, key=lambda pt: (pt["n"], pt["theta"], pt["p"]))


def point_id(point: dict) -> str:
    payload = {k: v for k, v in point.items() if k != "point_id"}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def point_config(point: dict) -> RunConfig:
    """The run config of one lattice point: its settings on the unit domain,
    with a unit-base initial density and ``v0 = u0 ** theta``.

    Raises:
        ConfigError: the run-config checks reject a setting; the message
            starts ``sweep `` and names the point.
    """
    try:
        return parse_config_dict({
            "grid": unit_grid_section(point["n"], point["cells"]),
            "model": {f.name: point[f.name] for f in fields(ModelParams)},
            "initial": {"family": point["family"], "base": 1.0,
                        "amplitude": point["amplitude"], "v0": "u0_pow_theta"},
            "controls": {f.name: point[f.name] for f in fields(StepControls)},
            "record_every": point["record_every"],
        })
    except ConfigError as exc:
        pt = f"n={point['n']} theta={point['theta']:g} p={point['p']:.6g}"
        raise ConfigError(f"sweep {exc} (point {pt})") from exc


def run_point(point: dict) -> dict:
    """Simulate one lattice point, recording :func:`~fluxks.functionals.sample`
    only, and summarize it (no file output here)."""
    regime = audit(RegimeSpec(n=point["n"], theta=point["theta"], p=point["p"]))
    result = point_config(point).run(keep_states="ends", record=sample)
    verdict = classify(result.records, result.status)

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
        "run": run_summary(result),
        **verdict.to_dict(),
        "expected": expected,
        "mismatch": mismatch,
        "version": SWEEP_VERSION,
    }


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def _run_point_timed(point: dict) -> tuple[dict, float, int]:
    # wall seconds and minor page faults of the point, in the process that ran it
    faults0, t0 = _minor_faults(), time.perf_counter()
    res = run_point(point)
    return res, time.perf_counter() - t0, _minor_faults() - faults0


@dataclass(frozen=True)
class SweepResult:
    results: list[dict]
    n_run: int
    n_skipped: int
    n_mismatch: int
    regime_map_path: Path
    timings_path: Path


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
    out = make_out_dir(Path(out_dir))
    points = sweep_points(spec)

    by_id: dict[str, dict] = {}
    todo: list[dict] = []
    n_skipped = 0
    for point in points:
        if resume:
            existing = load_point(out, point["point_id"])
            if existing is not None:
                by_id[point["point_id"]] = existing
                n_skipped += 1
                continue
        todo.append(point)

    write_manifest(out, spec.to_dict(), points)

    timings: dict[str, float] = {}
    faults: dict[str, int] = {}
    total0 = time.perf_counter()
    for res, elapsed, n_faults in imap_in_pool(_run_point_timed, todo, parallelism):
        pid = res["point_id"]
        by_id[pid] = res
        timings[pid], faults[pid] = elapsed, n_faults
        write_point(out, res)

    results = [by_id[pt["point_id"]] for pt in points]
    n_mismatch = sum(1 for r in results if r["mismatch"])
    regime_map_path = write_regime_map(out, results)

    timings_path = out / "timings.json"
    write_atomic(
        timings_path,
        json.dumps(
            {
                "total_seconds": time.perf_counter() - total0,
                "parallelism": parallelism,
                "points": timings,
                # where the platform counts them (resource)
                **({"minor_faults": faults} if resource else {}),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )

    return SweepResult(
        results=results,
        n_run=len(todo),
        n_skipped=n_skipped,
        n_mismatch=n_mismatch,
        regime_map_path=regime_map_path,
        timings_path=timings_path,
    )


def parse_sweep_config_dict(data: dict) -> SweepSpec:
    """Validate a sweep config object; every violation raises :class:`ConfigError`.

    Numbers keep their JSON type: the point ids hash them as given.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"sweep config root must be an object, got {type(data).__name__}")
    return SweepSpec(**read_fields(SweepSpec, data, "sweep"))


def parse_sweep_config(path: str | Path) -> SweepSpec:
    """Parse a JSON sweep config file; errors as in :func:`~fluxks.config.parse_config`."""
    return parse_sweep_config_dict(load_json(path, "sweep config"))
