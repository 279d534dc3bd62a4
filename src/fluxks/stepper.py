"""Semi-implicit time stepping for the flux-limited chemotaxis system.

Each step advances the signal first and the density second:

1. ``((1 + dt)*I - dt*L) v_new = v_old + dt * u_old^theta`` -- implicit
   diffusion and damping, explicit production;
2. ``(I - dt*L + dt*A(v_new)) u_new = u_old`` -- linearly implicit upwind
   chemotaxis, with ``A`` the upwind transport operator of the face
   coefficients, which are evaluated once, on ``v_new``
   (:func:`fluxks.model.flux_coefficients`).  The matrix is an
   M-matrix whose weighted column sums are 1, so ``u_new`` keeps the mass and
   the sign of ``u_old`` for any ``dt`` (the scheme of Zhou & Saito, Numer.
   Math. 135, 2017, in the line of Filbet, Numer. Math. 104, 2006).

All solves run through :class:`fluxks.linalg.HelmholtzSolver`.  Starting
from the old field, it applies at least one correction -- exact-inverse
(DCT in 2d, tridiagonal on one-axis grids), or for the 2d transport flexible
GMRES with a float32 DCT preconditioner -- until the true relative residual
is at most 1e-10 in float64, and accepts a residual stalled at the
floating-point floor only through a normwise backward-error test.  The implicit operators are inverse-positive,
so negative cells can only appear at solver accuracy scale; they are clamped
to zero, the clamped mass is added to the state's running total, and anything
beyond ``POSITIVITY_HARD_TOL`` is a hard error.  Mass is conserved by construction:
the flux divergence telescopes to zero and the u-solve preserves
cell-weighted means to roundoff.

One solver serves a whole run (:mod:`fluxks.linalg`).  It applies each
solve's operator in flux form, one face flow per axis differenced over each
cell, so the flows telescope and every residual, and the correction made from
it, keeps the mass to roundoff.

The time step is the smaller of ``dt_max`` and, for ``theta >= 1``, an
explicit-production proxy ``PRODUCTION_SAFETY / (theta * max(u)^(theta-1))``;
for ``theta < 1`` that rate grows without bound as the data shrink, while the
sublinear production drives no growth.  Diffusion and transport are implicit
and impose no step bound.  Every stop of a run raises where it is found, and
the error's class sets its status: a step below ``dt_min`` and ``||u||_inf``
beyond ``blowup_linf_threshold`` raise :class:`~fluxks.errors.BlowUpSuspected`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import functionals
from .errors import BlowUpSuspected, FluxksError, PositivityError, SolverError
from .grid import Grid, gradient_faces, integrate
from .linalg import HelmholtzSolver
from .model import InitialData, ModelParams, flux_coefficients, mollify_initial_data, production
from .regimes import s_rule

# negatives down to -POSITIVITY_HARD_TOL are solver roundoff, clamped to 0;
# beyond it they signal a solve gone wrong and abort the run
POSITIVITY_HARD_TOL = 1e-10
# cumulative clamped mass beyond this fraction of the initial mass fails the
# run: clamping is a roundoff patch, not a scheme feature
CLAMPED_MASS_MAX_FRACTION = 1e-10
# the factor of choose_dt's production bound (see the module docstring)
PRODUCTION_SAFETY = 0.4
_T_END_SLACK = 1e-12
# simulate's default record cadence and initial smoothing: the defaults of the
# run config's top-level keys record_every and mollify
DEFAULT_RECORD_EVERY = 5
DEFAULT_MOLLIFY = True


class RunStatus(str, enum.Enum):
    COMPLETED = "Completed"
    BLOWUP_SUSPECTED = "BlowUpSuspected"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class StepControls:
    """Time-stepping controls; ``t_end`` is the only required field."""

    t_end: float
    dt_max: float = 0.1
    dt_min: float = 1e-10
    blowup_linf_threshold: float = 1e6

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        if not (self.blowup_linf_threshold > 0.0):
            raise ValueError("blowup_linf_threshold must be positive")


@dataclass(frozen=True)
class SimState:
    """One trajectory point: the fields ``u`` and ``v``, arrays on ``grid``;
    ``t``, ``step_index`` and ``clamped_mass_cumulative`` (the mass clamped by
    every step up to it) are running totals, 0 initially."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    t: float
    step_index: int
    clamped_mass_cumulative: float = 0.0


@dataclass
class SimResult:
    """Outcome of :func:`simulate`."""

    status: RunStatus
    states: list[SimState]
    records: list["functionals.FunctionalRecord | functionals.Sample"]
    final_state: SimState
    n_steps: int
    message: str = ""


def choose_dt(u: np.ndarray, params: ModelParams, controls: StepControls) -> float:
    """Largest admissible step for ``u``: ``dt_max`` or, for ``theta >= 1``,
    the production proxy.

    Raises:
        BlowUpSuspected: the bound fell below ``dt_min``.
    """
    u_max = float(u.max())
    prod_rate = 0.0
    if params.theta >= 1.0 and u_max > 0.0:
        try:
            prod_rate = params.theta * u_max ** (params.theta - 1.0)
        except OverflowError:  # float ** raises where numpy would give inf
            prod_rate = math.inf
    dt_prod = PRODUCTION_SAFETY / prod_rate if prod_rate > 0.0 else math.inf

    dt = min(controls.dt_max, dt_prod)
    if dt < controls.dt_min:
        raise BlowUpSuspected(
            f"time step {dt:.3e} fell below dt_min {controls.dt_min:.3e} "
            f"(production {dt_prod:.3e})"
        )
    return dt


def _clamp_negative(values: np.ndarray, weights: np.ndarray, label: str) -> tuple[np.ndarray, float]:
    vmin = float(values.min())
    if vmin >= 0.0:
        return values, 0.0
    if vmin < -POSITIVITY_HARD_TOL:
        raise PositivityError(
            f"{label} dropped to {vmin:.3e}, beyond roundoff {POSITIVITY_HARD_TOL:.1e}"
        )
    neg = values < 0.0
    clamped = -float(np.sum(values[neg] * weights[neg]))
    out = values.copy()
    out[neg] = 0.0
    return out, clamped


def step(
    state: SimState,
    params: ModelParams,
    controls: StepControls,
    dt: float,
    solver: HelmholtzSolver,
) -> SimState:
    """Advance one step of exactly ``dt``; see the module docstring for the scheme.

    Raises:
        PositivityError: negative cells beyond roundoff.
        SolverError: linear solve failure or non-finite values.
    """
    grid = state.grid
    weights = grid.cell_weights

    try:
        with np.errstate(over="raise"):
            rhs_v = state.v + dt * production(state.u, params)
    except FloatingPointError:
        raise SolverError(
            f"v + dt*u^theta at max u {float(state.u.max()):.3e} is not finite (overflow)"
        ) from None
    v_new, _, _ = solver.solve(1.0 + dt, dt, rhs_v, x0=state.v)
    v_new, _ = _clamp_negative(v_new, weights, "v")

    coeffs = flux_coefficients(grid, gradient_faces(grid, v_new), params)
    u_new, _, _ = solver.solve(1.0, dt, state.u, x0=state.u, coeffs=coeffs)
    u_new, clamped = _clamp_negative(u_new, weights, "u")

    return SimState(
        grid=grid,
        u=u_new,
        v=v_new,
        t=state.t + dt,
        step_index=state.step_index + 1,
        clamped_mass_cumulative=state.clamped_mass_cumulative + clamped,
    )


def simulate(
    initial: InitialData,
    params: ModelParams,
    controls: StepControls,
    record_every: int = DEFAULT_RECORD_EVERY,
    monitors: functionals.MonitorSettings = functionals.MonitorSettings(),
    mollify: bool = DEFAULT_MOLLIFY,
    keep_states: str = "sampled",
    record: Callable[[SimState, functionals.MonitorSettings], object] | None = None,
) -> SimResult:
    """Run to ``t_end`` or a terminal condition.

    ``record`` measures each recorded state (by default
    :func:`fluxks.functionals.record`, looked up per call), reading
    ``monitors.resolve(params)``.  ``mollify`` applies the
    eps-scaled initial smoothing, to ``v`` only off the s-rule's max-norm
    branch, whatever ``monitors.s`` says.  ``keep_states`` is ``"sampled"``
    (states at the record cadence), ``"ends"`` (initial and final only), or ``"all"``.
    Each stop raises a :class:`~fluxks.errors.FluxksError` where it is found,
    and one ``except`` sets the status from its class (:mod:`fluxks.errors`);
    any other exception propagates.

    Raises:
        ValueError: grid/params dimension mismatch or bad arguments.
    """
    grid = initial.grid
    if params.n != grid.n:
        raise ValueError(f"params.n = {params.n} does not match grid dimension {grid.n}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if keep_states not in ("sampled", "ends", "all"):
        raise ValueError(f"unknown keep_states {keep_states!r}")
    if record is None:
        record = functionals.record

    monitors = monitors.resolve(params)
    if mollify and params.eps > 0.0:
        infinite = s_rule(params.n, params.p, params.theta).infinite
        data = mollify_initial_data(initial, params.eps, include_v=not infinite)
    else:
        data = initial

    state = SimState(grid=grid, u=data.u0, v=data.v0, t=0.0, step_index=0)
    solver = HelmholtzSolver(grid)
    initial_mass = integrate(grid, data.u0)
    records = [record(state, monitors)]
    states = [state]
    status, message = RunStatus.COMPLETED, ""
    try:
        while controls.t_end - state.t > _T_END_SLACK * max(1.0, controls.t_end):
            dt = min(choose_dt(state.u, params, controls), controls.t_end - state.t)
            state = step(state, params, controls, dt, solver=solver)
            if state.clamped_mass_cumulative > CLAMPED_MASS_MAX_FRACTION * initial_mass:
                raise PositivityError(
                    f"cumulative clamped mass {state.clamped_mass_cumulative:.3e} exceeded "
                    f"{CLAMPED_MASS_MAX_FRACTION:.0e} of the initial mass {initial_mass:.3e}"
                )
            sampled = state.step_index % record_every == 0
            if keep_states == "all" or (sampled and keep_states == "sampled"):
                states.append(state)
            if sampled:
                records.append(record(state, monitors))
            linf = float(state.u.max())  # max |u|: the clamp leaves u >= 0
            if linf > controls.blowup_linf_threshold:
                raise BlowUpSuspected(f"||u||_inf = {linf:.3e} exceeded threshold")
    except FluxksError as exc:
        blowup = isinstance(exc, BlowUpSuspected)
        status = RunStatus.BLOWUP_SUSPECTED if blowup else RunStatus.NUMERICAL_FAILURE
        message = str(exc)

    if records[-1].t != state.t:
        records.append(record(state, monitors))
    if states[-1] is not state:
        states.append(state)

    return SimResult(
        status=status,
        states=states,
        records=records,
        final_state=state,
        n_steps=state.step_index,
        message=message,
    )
