"""The three benchmark workloads: inputs, entry call, summary and checks.

Each workload runs in a fresh worker process (``worker.py``).  ``build`` makes
the inputs (this is set-up time), ``call`` is the timed entry call, and
``summarize`` turns its outputs into JSON that ``run.py`` checks.

A summary holds ``steps``; ``point_s`` (per-point simulation seconds);
``pool`` (workers and wall seconds of a process pool, or None); and ``ops``,
one entry per operation -- a simulated point, or one constant estimate of
gn-test -- with the reasons it failed its checks (empty when it passed) and a
fingerprint that must be identical in every repeat.

``fluxks`` is imported inside ``build`` and called through module attributes,
so that the tracer's wrappers are the functions this file calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

MASS_DRIFT_MAX = 1e-10
# t_end 5 (the SweepSpec default) instead of the acceptance sweep's 20: steps
# scale linearly with t_end at the same cost per step and the same binding dt
# bound, and a run then holds several repeats
T_END = 5.0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _point_failures(res: dict) -> list[str]:
    failures = []
    run = res["run"]
    if run["status"] != "Completed":
        failures.append(f"status {run['status']}")
    if res["classification"] != "Bounded":
        failures.append(f"classification {res['classification']}")
    if not run["mass_drift_rel"] <= MASS_DRIFT_MAX:
        failures.append(f"mass drift {run['mass_drift_rel']:.3e}")
    return failures


class Point2D:
    """``sweep.run_point`` on the slowest acceptance point, serially."""

    name = "point-2d"
    min_repeats = 1

    def build(self, seed: int, out_dir: Path, serial: bool):
        from fluxks import sweep

        spec = sweep.SweepSpec(
            n_values=(2,),
            theta_values=(3.0,),
            p_values=(0.6,),
            t_end=T_END,
            cells_2d=128,
            amplitude=0.1,
            record_every=5,
        )
        return sweep, sweep.sweep_points(spec)[0]

    def call(self, inputs):
        sweep, point = inputs
        return sweep.run_point(point)

    def summarize(self, inputs, raw: dict, wall_s: float) -> dict:
        sweep, _ = inputs
        fingerprint = _digest(sweep.canonical_json(raw).encode("utf-8"))
        return {
            "steps": raw["run"]["n_steps"],
            "point_s": [wall_s],
            "pool": None,
            "ops": {raw["point_id"]: {"failures": _point_failures(raw), "fingerprint": fingerprint}},
        }


class Lattice1DRadial:
    """``sweep.run_sweep`` over 1d and radial (n=3) points with a process pool."""

    name = "lattice-1d-radial"
    min_repeats = 2
    parallelism = 2
    artifacts = ("sweep.json", "regime_map.csv")

    def build(self, seed: int, out_dir: Path, serial: bool):
        from fluxks import sweep

        spec = sweep.SweepSpec(
            n_values=(1, 3),
            theta_values=(2.0, 3.0),
            p_values=(0.6, 0.8, 0.95),
            t_end=T_END,
            cells_1d=256,
            cells_radial=256,
            record_every=5,
        )
        return sweep, spec, out_dir / "sweep", 1 if serial else self.parallelism

    def call(self, inputs):
        sweep, spec, out, parallelism = inputs
        return sweep.run_sweep(spec, out, parallelism=parallelism, resume=False)

    def summarize(self, inputs, raw, wall_s: float) -> dict:
        _, _, out, parallelism = inputs
        timings = json.loads(raw.timings_path.read_text(encoding="utf-8"))
        shared = "".join(_digest((out / name).read_bytes()) for name in self.artifacts)
        ops = {}
        for res in raw.results:
            pid = res["point_id"]
            failures = _point_failures(res)
            if res["mismatch"]:
                failures.append("subcritical point flagged")
            point_file = (out / f"{pid}.json").read_bytes()
            ops[pid] = {"failures": failures, "fingerprint": _digest(point_file) + shared}
        if raw.n_mismatch:
            for op in ops.values():
                op["failures"].append(f"n_mismatch {raw.n_mismatch}")
        return {
            "steps": sum(res["run"]["n_steps"] for res in raw.results),
            "point_s": sorted(timings["points"].values()),
            "pool": {"workers": parallelism, "wall_s": timings["total_seconds"]},
            "ops": ops,
        }


GN_ESTIMATES = (
    "density-step",
    "signal-l2-step",
    "signal-grad-step",
    "second-form-reference",
    "poincare",
)


class GnTest2D:
    """``fluxks gn-test`` in 2d at the default ensemble size, through ``cli.main``."""

    name = "gn-test-2d"
    min_repeats = 2

    def build(self, seed: int, out_dir: Path, serial: bool):
        from fluxks import cli

        argv = ["gn-test", "--n", "2", "--theta", "1.5", "--p", "1.2", "--seed", str(seed)]
        return cli, argv

    def call(self, inputs):
        cli, argv = inputs
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def summarize(self, inputs, raw, wall_s: float) -> dict:
        code, text = raw
        run_failures = [] if code == 0 else [f"exit code {code}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {"sets": {}, "poincare": {}, "pass": False}
            run_failures.append("output is not JSON")
        if payload.get("pass") is not True:
            run_failures.append("pass is not true")
        estimates = dict(payload.get("sets", {}), poincare=payload.get("poincare"))
        rtol = payload.get("stability_rtol")
        ops = {}
        for name in GN_ESTIMATES:
            est = estimates.get(name) or {}
            failures = list(run_failures)
            stability = est.get("stability")
            if not est:
                failures.append("estimate missing")
            elif rtol is None or stability is None or not stability <= rtol:
                failures.append(f"unstable under refinement: {stability} > {rtol}")
            constants = [est.get("C_est"), est.get("C_est_refined")]
            ops[name] = {"failures": failures, "fingerprint": json.dumps(constants)}
        return {"steps": 0, "point_s": [], "pool": None, "ops": ops}


WORKLOADS = {wl.name: wl for wl in (Point2D(), Lattice1DRadial(), GnTest2D())}
