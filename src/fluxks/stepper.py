"""Semi-implicit time stepping for the flux-limited chemotaxis system.

Each step advances the signal first and the density second:

1. ``((1 + dt)*I - dt*L) v_new = v_old + dt * u_old^theta`` -- implicit
   diffusion and damping, explicit production;
2. ``(I - dt*L + dt*A(v_new)) u_new = u_old`` -- linearly implicit upwind
   chemotaxis, with ``A`` the upwind transport operator
   ``div(upwind_flux(., coeffs))`` and the flux coefficients evaluated once,
   on ``v_new`` (:func:`fluxks.model.flux_coefficients`).  The matrix is an
   M-matrix whose weighted column sums are 1, so ``u_new`` keeps the mass and
   the sign of ``u_old`` for any ``dt`` (the scheme of Zhou & Saito, Numer.
   Math. 135, 2017, in the line of Filbet, Numer. Math. 104, 2006).

All solves run through :class:`fluxks.linalg.HelmholtzSolver`.  Starting
from the old field, it applies at least one correction -- exact-inverse
(DCT in 2d, tridiagonal on one-axis grids), or DCT-preconditioned GMRES for
the 2d transport -- until the true relative residual is at most 1e-10, and
accepts a residual stalled at the floating-point floor only through a
normwise backward-error test.  The implicit operators are inverse-positive,
so negative cells can only appear at solver accuracy scale; they are clamped
to zero, the clamped mass is added to the state's running total, and anything
beyond ``POSITIVITY_HARD_TOL`` is a hard error.  Mass is conserved by construction:
the flux divergence telescopes to zero and the u-solve preserves
cell-weighted means to roundoff.

One solver serves a whole run.  It returns read-only arrays and remembers the
Laplacian of the last ``u`` and ``v`` it returned, so the residual check that
opens the next step's solve of each field costs no stencil pass, nor does the
``lap_v_l2`` of a record.  The state's fields are those arrays; a clamped
field is a fresh copy and misses, as does the initial state.

The time step is the smaller of ``dt_max`` and an explicit-production proxy
``cfl_safety / (theta * max(u)^(theta-1))``; diffusion and transport are
implicit and impose no step bound.  A step below ``dt_min`` is treated as
suspected blow-up, as is ``||u||_inf`` beyond ``blowup_linf_threshold``.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import functionals
from .errors import FluxksError, PositivityError, TimeStepCollapse
from .grid import GridFunction, gradient_faces, integrate
from .linalg import HelmholtzSolver
from .model import InitialData, ModelParams, flux_coefficients, mollify_initial_data, production
from .regimes import s_rule

logger = logging.getLogger(__name__)

# every negative down to -POSITIVITY_HARD_TOL is clamped to 0; one beyond
# this size is logged at debug level as more than the expected solver roundoff
POSITIVITY_CLAMP_TOL = 1e-13
# negatives beyond this signal a solve gone wrong and abort the run
POSITIVITY_HARD_TOL = 1e-10
# cumulative clamped mass beyond this fraction of the initial mass fails the
# run: clamping is a roundoff patch, not a scheme feature
CLAMPED_MASS_MAX_FRACTION = 1e-10
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
    cfl_safety: float = 0.4
    blowup_linf_threshold: float = 1e6

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not (self.blowup_linf_threshold > 0.0):
            raise ValueError("blowup_linf_threshold must be positive")


@dataclass(frozen=True)
class SimState:
    """One trajectory point; ``t``, ``step_index`` and ``clamped_mass_cumulative``
    (the mass clamped by every step up to it) are running totals, 0 initially."""

    u: GridFunction
    v: GridFunction
    t: float
    step_index: int
    clamped_mass_cumulative: float = 0.0


@dataclass
class SimResult:
    """Outcome of :func:`simulate`; ``clamped_mass_cumulative`` is the final state's."""

    status: RunStatus
    states: list[SimState]
    records: list["functionals.FunctionalRecord"]
    final_state: SimState
    clamped_mass_cumulative: float
    n_steps: int
    message: str = ""


def choose_dt(u: GridFunction, params: ModelParams, controls: StepControls) -> float:
    """Largest admissible step for ``u``: ``dt_max`` or the production proxy.

    Raises:
        TimeStepCollapse: the bound fell below ``dt_min``.
    """
    u_max = float(u.values.max())
    prod_rate = params.theta * u_max ** (params.theta - 1.0) if u_max > 0.0 else 0.0
    dt_prod = controls.cfl_safety / prod_rate if prod_rate > 0.0 else math.inf

    dt = min(controls.dt_max, dt_prod)
    if dt < controls.dt_min:
        raise TimeStepCollapse(
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
    if vmin < -POSITIVITY_CLAMP_TOL:
        logger.debug("%s clamped beyond expected roundoff: min %.3e", label, vmin)
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
    grid = state.u.grid
    weights = grid.cell_weights

    rhs_v = state.v.values + dt * production(state.u, params).values
    v_new, _, _ = solver.solve(1.0 + dt, dt, rhs_v, x0=state.v.values)
    v_new, _ = _clamp_negative(v_new, weights, "v")

    coeffs = flux_coefficients(grid, gradient_faces(grid, v_new), params)
    u_new, _, _ = solver.solve(1.0, dt, state.u.values, x0=state.u.values, coeffs=coeffs)
    u_new, clamped = _clamp_negative(u_new, weights, "u")

    return SimState(
        u=GridFunction(grid, u_new),
        v=GridFunction(grid, v_new),
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
) -> SimResult:
    """Run to ``t_end`` or a terminal condition.

    Records read ``monitors.resolve(params)``.  ``mollify`` applies the
    eps-scaled initial smoothing, to ``v`` only off the s-rule's max-norm
    branch, whatever ``monitors.s`` says.  ``keep_states`` is ``"sampled"``
    (states at the record cadence), ``"ends"`` (initial and final only), or ``"all"``.

    Raises:
        ValueError: grid/params dimension mismatch or bad arguments.
    """
    grid = initial.u0.grid
    if params.n != grid.n:
        raise ValueError(f"params.n = {params.n} does not match grid dimension {grid.n}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if keep_states not in ("sampled", "ends", "all"):
        raise ValueError(f"unknown keep_states {keep_states!r}")

    monitors = monitors.resolve(params)
    if mollify and params.eps > 0.0:
        infinite = s_rule(params.n, params.p, params.theta).infinite
        data = mollify_initial_data(initial, params.eps, include_v=not infinite)
    else:
        data = initial

    state = SimState(u=data.u0, v=data.v0, t=0.0, step_index=0)
    solver = HelmholtzSolver(grid)
    initial_mass = integrate(data.u0)
    records: list[functionals.FunctionalRecord] = []
    states = [state]
    status = RunStatus.COMPLETED
    message = ""

    def record(st: SimState) -> None:
        # v's Laplacian comes from the solver's cache when the step certified it
        records.append(functionals.record(st, monitors, lap_v=solver.laplacian(st.v.values)))

    def keep(st: SimState) -> None:
        if keep_states == "all":
            states.append(st)
        elif keep_states == "sampled" and st.step_index % record_every == 0:
            states.append(st)

    record(state)
    while controls.t_end - state.t > _T_END_SLACK * max(1.0, controls.t_end):
        try:
            dt = choose_dt(state.u, params, controls)
        except TimeStepCollapse as exc:
            status = RunStatus.BLOWUP_SUSPECTED
            message = str(exc)
            break
        dt = min(dt, controls.t_end - state.t)
        try:
            # ValueError covers non-finite values rejected by GridFunction
            state = step(state, params, controls, dt, solver=solver)
        except (FluxksError, ValueError) as exc:
            status = RunStatus.NUMERICAL_FAILURE
            message = str(exc)
            break
        if state.clamped_mass_cumulative > CLAMPED_MASS_MAX_FRACTION * initial_mass:
            status = RunStatus.NUMERICAL_FAILURE
            message = (
                f"cumulative clamped mass {state.clamped_mass_cumulative:.3e} exceeded "
                f"{CLAMPED_MASS_MAX_FRACTION:.0e} of the initial mass {initial_mass:.3e}"
            )
            break
        keep(state)
        if state.step_index % record_every == 0:
            record(state)
        linf = float(np.max(np.abs(state.u.values)))
        if linf > controls.blowup_linf_threshold:
            status = RunStatus.BLOWUP_SUSPECTED
            message = f"||u||_inf = {linf:.3e} exceeded threshold"
            break

    if records[-1].t != state.t:
        record(state)
    if states[-1] is not state:
        states.append(state)

    return SimResult(
        status=status,
        states=states,
        records=records,
        final_state=state,
        clamped_mass_cumulative=state.clamped_mass_cumulative,
        n_steps=state.step_index,
        message=message,
    )
