"""The sweep directory: its files, the completed-point rule and the regime map.

``fluxks sweep`` writes a sweep directory and ``fluxks report`` reads one;
this module is the one place that knows their format and the run block
that ``run.json`` shares with a point file.  A leaf module: it imports only
the standard library, ``errors`` and ``runtime``, so ``report`` loads no
solver.  A sweep directory holds the manifest ``sweep.json`` (the spec and
one ``{point_id, n, theta, p_fraction, p}`` entry per lattice point), one
``<point_id>.json`` result per completed point, the regime map
``regime_map.csv`` and a ``timings.json`` sidecar.  Artifact rules:

* ``sweep.json`` is written before any point runs, and each point file as
  its result arrives, atomically (temp file + ``os.replace``); so an
  interrupted sweep keeps every point it finished, never a truncated JSON;
* resuming skips any point whose file already exists and matches: an
  interrupted sweep runs only its remaining points, and a second
  ``run_sweep`` over a finished directory performs zero simulations;
* point files, ``sweep.json`` and ``regime_map.csv`` are byte-identical
  across repeats and across ``parallelism`` settings.  Wall-clock times and
  minor page faults per point (where the platform counts them) go to a
  ``timings.json`` sidecar which is exempt from that guarantee.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import ConfigError
from .runtime import canonical_json, is_kind, load_json, tool_stamp, write_atomic

SWEEP_VERSION = 10
# a point file as sweep.run_point writes it, each leaf with its JSON kind: every
# top-level key, the run block of run_summary, and what a reader takes of the rest
POINT_TREE = {
    "point": {"n": int, "theta": float, "p_fraction": float, "p": float},
    "point_id": str,
    "audit": {"p_critical": float, "subcritical": bool},
    "run": {
        "status": str, "message": str, "n_steps": int, "t_final": float, "n_records": int,
        "mass_initial": float, "mass_final": float, "mass_drift_rel": float,
        "u_linf_final": float, "F2_max": float, "gradv_l2_max": float, "clamped_mass": float,
    },
    "classification": str, "sup_u_linf": float, "growth_rate_estimate": float,
    "reason": str, "stats": dict, "expected": str, "mismatch": bool, "version": int,
}

REGIME_MAP_COLUMNS = (
    "n", "theta", "p_fraction", "p", "p_critical", "subcritical", "status",
    "classification", "expected", "mismatch", "point_id",
)


def write_manifest(out_dir: Path, spec: dict, points: list[dict]) -> None:
    """Write ``sweep.json`` for the sweep ``spec`` over ``points`` (with ids);
    it depends on no result, so ``report`` can read a sweep mid-flight."""
    manifest = {
        "version": SWEEP_VERSION,
        "tool": tool_stamp(),
        "spec": spec,
        "points": [
            {k: pt[k] for k in ("point_id", "n", "theta", "p_fraction", "p")} for pt in points
        ],
    }
    write_atomic(out_dir / "sweep.json", canonical_json(manifest) + "\n")


def run_summary(result) -> dict:
    """The run block of a :class:`~fluxks.stepper.SimResult`; it reads only
    the record fields that a :class:`~fluxks.functionals.Sample` holds too."""
    recs = result.records
    mass0, mass_end = recs[0].mass, recs[-1].mass
    return {
        "status": result.status.value,
        "message": result.message,
        "n_steps": result.n_steps,
        "t_final": recs[-1].t,
        "n_records": len(recs),
        "mass_initial": mass0,
        "mass_final": mass_end,
        "mass_drift_rel": abs(mass_end - mass0) / abs(mass0),
        "u_linf_final": recs[-1].u_linf,
        "F2_max": max(r.F2 for r in recs),
        "gradv_l2_max": max(r.gradv_l2 for r in recs),
        "clamped_mass": result.final_state.clamped_mass_cumulative,
    }


def write_point(out_dir: Path, result: dict) -> None:
    write_atomic(out_dir / f"{result['point_id']}.json", canonical_json(result) + "\n")


def _fits(val, tree) -> bool:
    # val holds every key of tree, each of the kind that tree names
    if isinstance(tree, dict):
        return isinstance(val, dict) and all(k in val and _fits(val[k], tree[k]) for k in tree)
    return is_kind(val, tree)


def load_point(out_dir: Path, pid: str) -> dict | None:
    """The completed result of point ``pid`` in ``out_dir``, else ``None``.

    A completed point file parses, names ``pid``, carries this
    ``SWEEP_VERSION`` and holds the whole ``POINT_TREE``, each leaf of its
    JSON kind; a missing, truncated, stale, partial or mistyped file does not
    count.
    """
    try:
        data = load_json(out_dir / f"{pid}.json", "point file")
    except ConfigError:  # missing, unreadable, or not JSON (NaN included)
        return None
    if _fits(data, POINT_TREE) and data["point_id"] == pid and data["version"] == SWEEP_VERSION:
        return data
    return None


def read_sweep(sweep_dir: str | Path) -> tuple[list[dict], int]:
    """The completed point results of ``sweep_dir`` in manifest order, and
    the number of its points not yet completed.

    Raises:
        ConfigError: no manifest, a manifest that is not an object whose
            points each carry a ``point_id``, or no completed point.
    """
    sweep_dir = Path(sweep_dir)
    manifest_path = sweep_dir / "sweep.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no sweep manifest at {manifest_path}")
    manifest = load_json(manifest_path, "sweep manifest")
    entries = manifest.get("points", []) if isinstance(manifest, dict) else None
    if not (
        isinstance(entries, list)
        and all(isinstance(e, dict) and isinstance(e.get("point_id"), str) for e in entries)
    ):
        raise ConfigError(
            f"sweep manifest {manifest_path} must be an object whose points each carry a point_id"
        )
    loaded = [load_point(sweep_dir, entry["point_id"]) for entry in entries]
    results = [res for res in loaded if res is not None]
    if not results:
        raise ConfigError(f"sweep at {sweep_dir} has no completed points")
    return results, len(loaded) - len(results)


def write_regime_map(out_dir: Path, results: list[dict]) -> Path:
    path = out_dir / "regime_map.csv"
    write_atomic(path, regime_map_csv(results))
    return path


def _by_point(results: list[dict]) -> list[dict]:
    # the one row order of the regime map
    return sorted(results, key=lambda r: (r["point"]["n"], r["point"]["theta"], r["point"]["p"]))


def regime_map_csv(results: list[dict]) -> str:
    """Regime map as CSV text, one row per point, sorted by ``(n, theta, p)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REGIME_MAP_COLUMNS)
    for res in _by_point(results):
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


def regime_map_summary(results: list[dict]) -> str:
    """Plain-text regime map: one line per point plus a flag count."""
    lines = []
    n_flags = 0
    for res in _by_point(results):
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
        f"{len(results)} points, {n_flags} flagged"
        + (" (subcritical points not classified Bounded)" if n_flags else "")
    )
    return "\n".join(lines) + "\n"
