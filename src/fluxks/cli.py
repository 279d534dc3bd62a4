"""Command-line entry point: simulate, sweep, audit, gn-test, report.

Exit codes:

* 0 -- success (run Completed with all monitors passing and not Growing;
  sweep/report with zero flags; audit/gn-test completed with passing checks)
* 1 -- a monitor verdict failed (mass/positivity/dissipation failure, a
  Growing classification, flagged sweep points, unstable gn constants)
* 2 -- the run ended BlowUpSuspected or NumericalFailure
* 3 -- configuration error (bad flags, bad config file, unknown keys)

The only environment variable honored is ``FLUXKS_OUT``: it overrides the
default output directory when ``--out`` is not given.  Every emitted artifact
embeds the effective configuration and the tool version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# only what audit and gn-test use is imported here; the solver stack loads in
# the commands that step, so audit, gn-test and report never import it
from ._version import __version__
from .errors import ConfigError, FluxksError
from .gn import (
    GN2Exponents,
    ENSEMBLE_VERSION,
    ConstantEstimates,
    density_step_set,
    estimate_constants,
    merge_estimates,
    signal_grad_step_set,
    signal_l2_step_set,
)
from .grid import unit_grid
from .regimes import RegimeSpec, audit, relative_p
from .runtime import (
    available_cpus, canonical_json, make_out_dir, map_in_pool, tool_stamp, write_atomic,
)

if TYPE_CHECKING:
    from .config import RunConfig
    from .stepper import SimResult

GN_STABILITY_RTOL = 0.15
DEFAULT_OUT = "fluxks-out"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # runtime blow-up, so remap usage errors onto the config-error path
    def error(self, message: str) -> None:  # noqa: D401
        raise ConfigError(message)


def _resolve_out(flag_value: str | None, default: str = DEFAULT_OUT) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("FLUXKS_OUT")
    if env:
        return Path(env)
    return Path(default)


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- simulate ----------------------------------------------------------------


def _write_snapshots(out: Path, result: SimResult, cfg: RunConfig) -> None:
    lines = []
    for state in result.states:
        cells = [repr(float(state.t))]
        cells += [repr(float(x)) for x in state.u.ravel(order="C")]
        cells += [repr(float(x)) for x in state.v.ravel(order="C")]
        lines.append(" ".join(cells))
    write_atomic(out / "snapshots.txt", "\n".join(lines) + "\n")
    meta = {
        "tool": tool_stamp(),
        "config": cfg.effective(),
        "format": "per line: t, then u cell values, then v cell values, "
        "whitespace-separated, C order over the cell index grid",
        "grid": result.final_state.grid.describe(),
        "n_snapshots": len(result.states),
    }
    write_atomic(out / "snapshots.meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .config import parse_config
    from .functionals import write_records_csv
    from .monitors import (
        MIN_DISSIPATION_RECORDS,
        check_dissipation_inequality,
        check_mass,
        check_positivity,
        classify,
    )
    from .stepper import RunStatus

    cfg = parse_config(args.config)
    out = make_out_dir(_resolve_out(args.out))
    result = cfg.run(keep_states="sampled" if args.snapshots else "ends")

    effective = cfg.effective()
    meta = f"fluxks {__version__}\nconfig {canonical_json(effective)}"
    write_records_csv(result.records, out / "functionals.csv", meta_comment=meta)

    verdicts = {
        "mass-conservation": check_mass(result.records),
        "positivity": check_positivity(result.states),
    }
    skipped = []
    if result.status == RunStatus.COMPLETED and len(result.records) >= MIN_DISSIPATION_RECORDS:
        for name in ("F1", "F2"):
            verdicts[f"dissipation-{name}"] = check_dissipation_inequality(
                result.records, which=name
            )
    else:
        skipped.append("dissipation (run not Completed or too few records)")
    regime = classify(result.records, result.status)

    if result.status != RunStatus.COMPLETED:
        code = 2
    elif any(not v.passed for v in verdicts.values()) or regime.classification == "Growing":
        code = 1
    else:
        code = 0

    report = {
        "tool": tool_stamp(),
        "config": effective,
        "status": result.status.value,
        "message": result.message,
        "n_steps": result.n_steps,
        "t_final": result.final_state.t,
        "clamped_mass_cumulative": result.clamped_mass_cumulative,
        "verdicts": {k: v.to_dict() for k, v in verdicts.items()},
        "skipped_checks": skipped,
        "classification": regime.to_dict(),
        "exit_code": code,
    }
    write_atomic(out / "run.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.snapshots:
        _write_snapshots(out, result, cfg)

    for name, v in verdicts.items():
        print(v.summary())
    print(f"classification: {regime.classification} ({regime.reason})")
    print(f"status: {result.status.value}; artifacts in {out}")
    return code


# -- sweep -------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import parse_sweep_config, run_sweep
    from .sweepdir import regime_map_summary

    spec = parse_sweep_config(args.config)
    out = _resolve_out(args.out, default="fluxks-sweep")
    result = run_sweep(spec, out, parallelism=args.parallelism, resume=not args.no_resume)
    print(regime_map_summary(result.results), end="")
    print(
        f"ran {result.n_run}, resumed {result.n_skipped}; "
        f"regime map: {result.regime_map_path}"
    )
    return 0 if result.n_mismatch == 0 else 1


# -- audit -------------------------------------------------------------------


def _cmd_audit(args: argparse.Namespace) -> int:
    if (args.p is None) == (args.p_fraction is None):
        raise ConfigError("audit needs exactly one of --p or --p-fraction")
    try:
        p = args.p if args.p is not None else relative_p(args.n, args.theta, args.p_fraction)
        spec = RegimeSpec(n=args.n, theta=args.theta, p=p)
        report = audit(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"tool": tool_stamp(), **report.to_dict()}
    _print_json(payload)
    return 0


# -- gn-test -----------------------------------------------------------------


def _estimate_share(job: tuple) -> ConstantEstimates | None:
    # one pool job, the arguments of gn.estimate_constants
    return estimate_constants(*job)


def _cmd_gn_test(args: argparse.Namespace) -> int:
    try:
        spec = RegimeSpec(n=args.n, theta=args.theta, p=args.p)
        regime = audit(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if regime.chosen_q_f1 is None or regime.chosen_q is None:
        raise ConfigError(
            "gn-test needs a regime with entropy witnesses "
            f"(n={args.n}, theta={args.theta}, p={args.p} has route "
            f"{regime.route!r}); pick a subcritical entropy-route point"
        )
    q1, q2 = regime.chosen_q_f1, regime.chosen_q
    try:
        sets = {
            "density-step": density_step_set(args.n, args.p, q1),
            "signal-l2-step": signal_l2_step_set(args.n, args.theta, q1),
            "signal-grad-step": signal_grad_step_set(args.n, args.theta, q2),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    second = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=args.n)

    if args.ensemble_size < 1:
        raise ConfigError(f"--ensemble-size must be >= 1, got {args.ensemble_size}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cells = (256 if args.n != 2 else 64) if args.cells is None else args.cells
    try:
        coarse = unit_grid(args.n, cells)
        fine = unit_grid(args.n, 2 * cells)
    except ValueError as exc:
        raise ConfigError(f"--n {args.n} --cells {cells}: {exc}") from exc

    # every constant on one grid comes from one pass over its ensemble, split
    # into one interleaved share per CPU; the slower fine-grid shares go first
    k = available_cpus()
    jobs = [
        (grid, tuple(sets.values()), (second,), args.ensemble_size, args.seed, (j, k))
        for grid in (fine, coarse)
        for j in range(k)
    ]
    parts = map_in_pool(_estimate_share, jobs, k)
    est_refined, est = merge_estimates(parts[:k]), merge_estimates(parts[k:])

    def refinement(c1: float, c2: float) -> dict:
        # stable when the two grids agree to GN_STABILITY_RTOL
        stability = abs(c2 - c1) / c1
        stable = bool(math.isfinite(c1) and math.isfinite(c2) and stability <= GN_STABILITY_RTOL)
        return {"C_est": c1, "C_est_refined": c2, "stability": stability, "stable": stable}

    set_reports = {
        name: {"exponents": exps.to_dict(), **refinement(c1, c2)}
        for (name, exps), c1, c2 in zip(sets.items(), est.gn, est_refined.gn)
    }
    set_reports["second-form-reference"] = {
        "exponents": second.to_dict(),
        **refinement(est.gn2[0], est_refined.gn2[0]),
    }
    poincare = refinement(est.poincare, est_refined.poincare)
    # the poincare entry reports no verdict of its own, only the overall pass
    all_stable = poincare.pop("stable") and all(r["stable"] for r in set_reports.values())

    payload = {
        "tool": tool_stamp(),
        "regime": {
            "n": args.n,
            "theta": args.theta,
            "p": args.p,
            "q1": q1,
            "q2": q2,
            "route": regime.route,
        },
        "grid": {"mode": coarse.mode, "cells": list(coarse.shape), "refined": list(fine.shape)},
        "ensemble": {
            "size": args.ensemble_size,
            "seed": args.seed,
            "version": ENSEMBLE_VERSION,
        },
        "stability_rtol": GN_STABILITY_RTOL,
        "sets": set_reports,
        "poincare": poincare,
        "pass": all_stable,
    }
    _print_json(payload)
    return 0 if all_stable else 1


# -- report ------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    from .sweepdir import read_sweep, regime_map_summary, write_regime_map

    results, n_pending = read_sweep(args.sweep_dir)
    path = write_regime_map(Path(args.sweep_dir), results)
    print(regime_map_summary(results), end="")
    if n_pending:
        print(f"NOTE: {n_pending} point(s) not yet completed (sweep resumable)")
    print(f"regime map written to {path}")
    return 1 if any(r["mismatch"] for r in results) else 0


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fluxks", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"fluxks {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sim = sub.add_parser("simulate", help="run one configuration and write functional CSV")
    sim.add_argument("--config", required=True, help="JSON run configuration")
    sim.add_argument("--out", help=f"output directory (default {DEFAULT_OUT} or $FLUXKS_OUT)")
    sim.add_argument(
        "--snapshots", action="store_true", help="also dump sampled state snapshots"
    )
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run a parameter sweep (resumable)")
    swp.add_argument("--config", required=True, help="JSON sweep specification")
    swp.add_argument("--out", help="output directory (default fluxks-sweep or $FLUXKS_OUT)")
    swp.add_argument("--parallelism", type=int, default=1, help="process count (default 1)")
    swp.add_argument("--no-resume", action="store_true", help="re-run completed points")
    swp.set_defaults(func=_cmd_sweep)

    aud = sub.add_parser("audit", help="print the exponent-algebra audit as JSON")
    aud.add_argument("--n", type=int, required=True, help="ambient dimension")
    aud.add_argument("--theta", type=float, required=True, help="production exponent")
    aud.add_argument("--p", type=float, help="flux exponent (absolute)")
    aud.add_argument(
        "--p-fraction",
        type=float,
        help="flux exponent as an affine fraction of (1, p_c)",
    )
    aud.set_defaults(func=_cmd_audit)

    gnt = sub.add_parser("gn-test", help="estimate interpolation-inequality constants")
    gnt.add_argument("--n", type=int, default=1, help="ambient dimension (default 1)")
    gnt.add_argument("--theta", type=float, default=2.0, help="production exponent (default 2)")
    gnt.add_argument("--p", type=float, default=1.5, help="flux exponent (default 1.5)")
    gnt.add_argument("--cells", type=int, help="cells per axis (default 256; 64 in 2d)")
    gnt.add_argument("--ensemble-size", type=int, default=1000, help="members (default 1000)")
    gnt.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
    gnt.set_defaults(func=_cmd_gn_test)

    rep = sub.add_parser("report", help="render a sweep directory into a regime map")
    rep.add_argument("--sweep-dir", required=True, help="directory written by `fluxks sweep`")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 3
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FluxksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
