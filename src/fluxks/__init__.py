"""Finite-volume simulator and verification harness for flux-limited
chemotaxis with superlinear signal production.

The package integrates the parabolic-parabolic system

    u_t = lap u - chi div(u (|grad v|^2 + eps)^((p-2)/2) grad v)
    v_t = lap v - v + u^theta

under no-flux boundary conditions, and turns the structural facts behind
its well-posedness theory into machine checks: conservation and positivity
monitors, entropy dissipation inequalities, exponent-algebra audits of the
subcritical regime p < n*theta/(n*theta - 1), interpolation-inequality
constant estimation, and regime-map parameter sweeps.
"""

import importlib

from ._version import __version__

# each public name and the submodule that defines it; a name is imported on
# first access (PEP 562), so `fluxks audit` and `fluxks gn-test` load no solver
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("ConfigError", "FluxksError", "PositivityError", "SolverError",
                   "TimeStepCollapse"),
        "grid": ("Grid", "FieldNorms", "build_grid", "integrate"),
        "model": ("ModelParams", "InitialData", "build_initial_data",
                  "mollify_initial_data", "production"),
        "regimes": ("RegimeSpec", "ExponentAudit", "QRanges", "SRule", "critical_exponent",
                    "relative_p", "s_rule", "q_ranges", "a_star", "b_star",
                    "condition_2ab", "condition_1d_value", "audit"),
        "stepper": ("RunStatus", "StepControls", "SimState", "SimResult", "choose_dt",
                    "step", "simulate"),
        "functionals": ("FunctionalRecord", "MonitorSettings", "record", "records_to_csv",
                        "write_records_csv"),
        "monitors": ("Verdict", "RegimeVerdict", "check_mass", "check_positivity",
                     "check_dissipation_inequality", "classify", "eps_refinement"),
        "gn": ("GNExponents", "GN2Exponents", "gn_exponent", "gn2_exponent", "gn_ratio",
               "gn2_ratio", "ensemble", "estimate_constants", "density_step_set",
               "signal_l2_step_set", "signal_grad_step_set"),
        "config": ("RunConfig", "parse_config", "parse_config_dict"),
        "sweep": ("SweepSpec", "SweepResult", "run_sweep"),
        "sweepdir": ("regime_map_csv", "regime_map_summary"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "linalg", "runtime"}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
