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

from ._version import __version__
from .config import RunConfig, parse_config, parse_config_dict
from .errors import (
    ConfigError,
    FluxksError,
    PositivityError,
    SolverError,
    TimeStepCollapse,
)
from .functionals import (
    FunctionalRecord,
    MonitorSettings,
    record,
    records_to_csv,
    write_records_csv,
)
from .gn import (
    GN2Exponents,
    GNExponents,
    density_step_set,
    ensemble,
    estimate_constants,
    gn2_exponent,
    gn2_ratio,
    gn_exponent,
    gn_ratio,
    signal_grad_step_set,
    signal_l2_step_set,
)
from .grid import (
    Grid,
    GridFunction,
    VectorGridFunction,
    build_grid,
    divergence,
    gradient,
    gradient_lp_norm,
    inner,
    integrate,
    laplacian,
    lp_norm,
)
from .model import (
    InitialData,
    ModelParams,
    build_initial_data,
    mollify_initial_data,
    production,
)
from .monitors import (
    RegimeVerdict,
    Verdict,
    check_dissipation_inequality,
    check_mass,
    check_positivity,
    classify,
    eps_refinement,
)
from .regimes import (
    ExponentAudit,
    QRanges,
    RegimeSpec,
    SRule,
    a_star,
    audit,
    b_star,
    condition_1d_value,
    condition_2ab,
    critical_exponent,
    q_ranges,
    relative_p,
    s_rule,
)
from .stepper import (
    RunStatus,
    SimResult,
    SimState,
    StepControls,
    choose_dt,
    simulate,
    step,
)
from .sweep import SweepResult, SweepSpec, regime_map_csv, regime_map_summary, run_sweep

__all__ = [
    "__version__",
    "ConfigError",
    "FluxksError",
    "PositivityError",
    "SolverError",
    "TimeStepCollapse",
    "Grid",
    "GridFunction",
    "VectorGridFunction",
    "build_grid",
    "gradient",
    "divergence",
    "laplacian",
    "integrate",
    "inner",
    "lp_norm",
    "gradient_lp_norm",
    "ModelParams",
    "InitialData",
    "build_initial_data",
    "mollify_initial_data",
    "production",
    "RegimeSpec",
    "ExponentAudit",
    "QRanges",
    "SRule",
    "critical_exponent",
    "relative_p",
    "s_rule",
    "q_ranges",
    "a_star",
    "b_star",
    "condition_2ab",
    "condition_1d_value",
    "audit",
    "RunStatus",
    "StepControls",
    "SimState",
    "SimResult",
    "choose_dt",
    "step",
    "simulate",
    "FunctionalRecord",
    "MonitorSettings",
    "record",
    "records_to_csv",
    "write_records_csv",
    "Verdict",
    "RegimeVerdict",
    "check_mass",
    "check_positivity",
    "check_dissipation_inequality",
    "classify",
    "eps_refinement",
    "GNExponents",
    "GN2Exponents",
    "gn_exponent",
    "gn2_exponent",
    "gn_ratio",
    "gn2_ratio",
    "ensemble",
    "estimate_constants",
    "density_step_set",
    "signal_l2_step_set",
    "signal_grad_step_set",
    "RunConfig",
    "parse_config",
    "parse_config_dict",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "regime_map_csv",
    "regime_map_summary",
]
