"""Time stepping: step selection, implicit transport, positivity, terminal
statuses, exact modes.

Constant equilibria are exact fixed points of the splitting (both solves see
a zero residual at the old state), and single Fourier modes pass through the
chi = 0 heat branch with the closed-form implicit-Euler damping, which pins
the scheme to machine precision rather than a truncation tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import fluxks.stepper as stepper_mod
from fluxks.errors import PositivityError, TimeStepCollapse
from fluxks.functionals import MonitorSettings, record
from fluxks.grid import GridFunction, build_grid, divergence_values, gradient_faces, integrate
from fluxks.linalg import HelmholtzSolver
from fluxks.model import (
    InitialData,
    ModelParams,
    build_initial_data,
    flux_coefficients,
    upwind_flux,
)
from fluxks.regimes import relative_p
from fluxks.stepper import (
    POSITIVITY_CLAMP_TOL,
    POSITIVITY_HARD_TOL,
    RunStatus,
    SimState,
    StepControls,
    _clamp_negative,
    choose_dt,
    simulate,
    step,
)


def make_state(grid, u_vals, v_vals):
    return SimState(
        u=GridFunction(grid, np.asarray(u_vals, dtype=float) * np.ones(grid.shape)),
        v=GridFunction(grid, np.asarray(v_vals, dtype=float) * np.ones(grid.shape)),
        t=0.0,
        step_index=0,
    )


def signal_rate(state, params):
    # largest per-cell outflow rate of the upwind flux along the state's
    # signal (the diagonal of the transport operator): an explicit upwind step
    # longer than 1 / rate can drive u negative, the implicit one cannot
    g = state.u.grid
    coeffs = flux_coefficients(g, gradient_faces(g, state.v.values), params)
    rates = []
    for idx in np.ndindex(g.shape):
        unit = np.zeros(g.shape)
        unit[idx] = 1.0
        rates.append(divergence_values(g, upwind_flux(g, unit, coeffs))[idx])
    return max(rates)


REF_PARAMS = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)


# ------------------------------------------------------------ StepControls


@pytest.mark.parametrize(
    "kw",
    [
        dict(t_end=0.0),
        dict(t_end=1.0, dt_min=0.2, dt_max=0.1),
        dict(t_end=1.0, dt_min=0.0),
        dict(t_end=1.0, cfl_safety=0.0),
        dict(t_end=1.0, cfl_safety=1.5),
        dict(t_end=1.0, blowup_linf_threshold=0.0),
    ],
)
def test_step_controls_validation(kw):
    with pytest.raises(ValueError):
        StepControls(**kw)


# --------------------------------------------------------------- choose_dt


def test_choose_dt_production_bound(grid1d):
    # zero signal gradient: only the production rate theta * u^(theta-1) binds
    g = grid1d(32)
    st = make_state(g, 2.0, 4.0)
    controls = StepControls(t_end=1.0, dt_max=1.0, cfl_safety=0.4)
    assert choose_dt(st.u, REF_PARAMS, controls) == pytest.approx(0.1, abs=1e-15)
    tight = StepControls(t_end=1.0, dt_max=0.05)
    assert choose_dt(st.u, REF_PARAMS, tight) == 0.05


@pytest.mark.parametrize("mode", ["cartesian-1d", "cartesian-2d"])
def test_choose_dt_has_no_advective_bound(mode):
    # u small, v = 10 x, p = 2: the transport is implicit on every grid, so
    # only the production proxy binds, 0.4 / (2 * 0.01) = 20, whatever chi
    axes = 1 if mode == "cartesian-1d" else 2
    g = build_grid(mode, extents=(1.0,) * axes, cells=(20,) * axes)
    st = SimState(
        u=GridFunction.constant(g, 0.01),
        v=GridFunction(g, 10.0 * g.center_mesh()[0]),
        t=0.0,
        step_index=0,
    )
    controls = StepControls(t_end=1.0, dt_max=1e3, dt_min=1e-12, cfl_safety=0.4)
    for chi in (1.0, 2.0):
        params = ModelParams(chi=chi, p=2.0, theta=2.0, eps=0.0, n=axes)
        assert signal_rate(st, params) * 20.0 > 100.0  # far beyond the explicit bound
        assert choose_dt(st.u, params, controls) == pytest.approx(20.0, rel=1e-14)


def test_choose_dt_collapse_raises(grid1d):
    g = grid1d(16)
    st = make_state(g, 100.0, 0.0)
    params = ModelParams(chi=1.0, p=1.5, theta=3.0, eps=1e-3, n=1)
    # production rate 3 * 100^2 = 3e4 forces dt ~ 1.3e-5 < dt_min
    controls = StepControls(t_end=1.0, dt_min=1e-4)
    with pytest.raises(TimeStepCollapse, match="dt_min"):
        choose_dt(st.u, params, controls)


# -------------------------------------------------------------------- step


def test_step_positivity_hard_error(grid2d):
    # in 2d the transport is implicit too: a step 10 and 1000 times the
    # explicit bound keeps a spike cell's neighbours >= 0 and the mass, while
    # negatives beyond roundoff from anywhere else stay a hard error
    g = grid2d(8)
    u = np.full(g.shape, 1e-6)
    u[3, 4] = 1.0
    st = SimState(
        u=GridFunction(g, u),
        v=GridFunction.from_callable(g, lambda x, y: 10.0 * x),
        t=0.0,
        step_index=0,
    )
    params = ModelParams(chi=1.0, p=2.0, theta=2.0, eps=0.0, n=2)
    controls = StepControls(t_end=1.0)
    m0 = integrate(st.u)
    for factor in (10.0, 1000.0):
        out = step(st, params, controls, factor / signal_rate(st, params), HelmholtzSolver(g))
        assert out.u.values.min() >= 0.0 and out.v.values.min() >= 0.0
        assert out.clamped_mass_cumulative == 0.0
        assert abs(integrate(out.u) - m0) <= 1e-10 * m0
    values = np.array([1.0, -0.5 * POSITIVITY_CLAMP_TOL, 2.0])
    clamped, mass = _clamp_negative(values, np.ones(3), "u")
    assert clamped.min() == 0.0 and mass == 0.5 * POSITIVITY_CLAMP_TOL
    with pytest.raises(PositivityError, match="beyond roundoff"):
        _clamp_negative(np.array([1.0, -2.0 * POSITIVITY_HARD_TOL]), np.ones(2), "u")


@pytest.mark.parametrize("mode", ["cartesian-1d", "radial-n"])
@pytest.mark.parametrize("factor", [10.0, 1000.0])
def test_implicit_transport_step_beyond_the_advective_bound(mode, factor):
    # one-axis grids move u implicitly: a step far beyond the explicit bound
    # keeps u, v >= 0 and the mass
    g = build_grid(mode, extents=(1.0,), cells=(32,), n=None if mode == "cartesian-1d" else 3)
    init = build_initial_data(g, family="gaussian", base=0.0, amplitude=20.0)
    st = SimState(u=init.u0, v=GridFunction(g, 10.0 * g.axis_centers(0)), t=0.0, step_index=0)
    params = ModelParams(chi=1.0, p=2.0, theta=2.0, eps=0.0, n=g.n)
    controls = StepControls(t_end=1.0)
    dt = factor * controls.cfl_safety / signal_rate(st, params)
    out = step(st, params, controls, dt, HelmholtzSolver(g))
    assert out.u.values.min() >= 0.0 and out.v.values.min() >= 0.0
    assert out.clamped_mass_cumulative == 0.0
    m0 = integrate(st.u)
    assert abs(integrate(out.u) - m0) <= 1e-13 * m0


def test_step_conserves_mass_single_step(grid1d):
    g = grid1d(64)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    st = SimState(u=init.u0, v=init.v0, t=0.0, step_index=0)
    controls = StepControls(t_end=1.0)
    out = step(st, REF_PARAMS, controls, 0.01, HelmholtzSolver(g))
    m0, m1 = integrate(st.u), integrate(out.u)
    assert abs(m1 - m0) / m0 < 1e-13
    assert out.t == 0.01 and out.step_index == 1


def test_v_decay_closed_form_without_density(grid1d):
    # u = 0 shuts production off; each cosine mode of v decays exactly by
    # (1 + dt (1 + lambda_h))^(-k) per the implicit solve
    g = grid1d(32)
    x = g.axis_centers(0)
    v0 = 1.0 + 0.5 * np.cos(math.pi * x)
    st = SimState(
        u=GridFunction.constant(g, 0.0),
        v=GridFunction(g, v0.copy()),
        t=0.0,
        step_index=0,
    )
    controls = StepControls(t_end=1.0)
    solver = HelmholtzSolver(g)
    dt, k = 1e-3, 100
    for _ in range(k):
        st = step(st, REF_PARAMS, controls, dt, solver=solver)
    h = g.spacing[0]
    lam = 2.0 / h**2 * (1.0 - math.cos(math.pi * h))
    expect = (1.0 + dt) ** -k + 0.5 * (1.0 + dt * (1.0 + lam)) ** -k * np.cos(math.pi * x)
    np.testing.assert_allclose(st.v.values, expect, rtol=0.0, atol=1e-9)
    # the mean mode sits above the continuum decay e^(-t) (implicit Euler
    # underdamps) but below the initial value: comparison-principle sandwich
    mean = float(np.mean(st.v.values))
    assert math.exp(-dt * k) <= mean <= 1.0


def test_heat_mode_chi_zero_closed_form():
    # chi = 0 turns the density equation into pure diffusion; the cosine
    # mode obeys amplitude_k = 0.5 * (1 + dt*lambda_h)^(-k) exactly
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(128,))
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5, v0_kind="zero")
    params = ModelParams(chi=0.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    controls = StepControls(t_end=0.1, dt_max=0.002)
    res = simulate(init, params, controls, mollify=False, keep_states="ends")
    assert res.status == RunStatus.COMPLETED
    assert res.n_steps == 50
    h = g.spacing[0]
    lam = 2.0 / h**2 * (1.0 - math.cos(math.pi * h))
    amp = 0.5 * (1.0 + 0.002 * lam) ** -50
    x = g.axis_centers(0)
    np.testing.assert_allclose(
        res.final_state.u.values, 1.0 + amp * np.cos(math.pi * x), atol=1e-7
    )
    # and the continuum answer is close: amp ~ 0.5 exp(-pi^2 t)
    assert amp == pytest.approx(0.5 * math.exp(-math.pi**2 * 0.1), rel=0.05)


def test_temporal_order_one(grid1d):
    # fixed-dt error against a small-dt reference halves with dt
    g = grid1d(64)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    controls = StepControls(t_end=1.0)
    solver = HelmholtzSolver(g)

    def run_fixed(dt, t_end=0.5):
        st = SimState(u=init.u0, v=init.v0, t=0.0, step_index=0)
        for _ in range(round(t_end / dt)):
            st = step(st, REF_PARAMS, controls, dt, solver=solver)
        return st.u.values

    ref = run_fixed(0.0005)
    errs = [np.abs(run_fixed(dt) - ref).max() for dt in (0.02, 0.01, 0.005)]
    assert errs[0] > errs[1] > errs[2]
    assert 1.7 <= errs[0] / errs[1] <= 2.3
    assert 1.7 <= errs[1] / errs[2] <= 2.3


# ---------------------------------------------------------------- simulate


def test_equilibrium_is_exact_fixed_point(grid1d):
    # (u, v) = (2, 4) with theta = 2: both solves see zero residual
    g = grid1d(64)
    init = InitialData(
        u0=GridFunction.constant(g, 2.0), v0=GridFunction.constant(g, 4.0)
    )
    controls = StepControls(t_end=100.0, dt_max=0.1)
    res = simulate(init, REF_PARAMS, controls, record_every=100)
    assert res.status == RunStatus.COMPLETED
    assert res.n_steps == 1000
    assert np.abs(res.final_state.u.values - 2.0).max() <= 1e-10
    assert np.abs(res.final_state.v.values - 4.0).max() <= 1e-10
    assert res.clamped_mass_cumulative == 0.0
    for rec in res.records:
        assert rec.mass == pytest.approx(2.0, rel=1e-12)


def test_simulate_mass_drift_short_run(grid1d):
    g = grid1d(128)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    res = simulate(init, REF_PARAMS, StepControls(t_end=0.5), record_every=10)
    assert res.status == RunStatus.COMPLETED
    m0 = res.records[0].mass
    for rec in res.records:
        assert abs(rec.mass - m0) / m0 < 1e-12


def test_simulate_collapse_reports_blowup_suspected(grid1d):
    g = grid1d(16)
    init = InitialData(
        u0=GridFunction.constant(g, 100.0), v0=GridFunction.constant(g, 0.0)
    )
    params = ModelParams(chi=1.0, p=1.5, theta=3.0, eps=1e-3, n=1)
    controls = StepControls(t_end=1.0, dt_min=1e-4)
    res = simulate(init, params, controls, mollify=False)
    assert res.status == RunStatus.BLOWUP_SUSPECTED
    assert res.n_steps == 0
    assert "dt_min" in res.message
    # nothing advanced: the terminal state is the initial data
    np.testing.assert_array_equal(res.final_state.u.values, init.u0.values)
    assert len(res.records) == 1


def test_simulate_linf_threshold_trips_post_step(grid1d):
    g = grid1d(16)
    init = InitialData(
        u0=GridFunction.constant(g, 2.0), v0=GridFunction.constant(g, 4.0)
    )
    controls = StepControls(t_end=10.0, blowup_linf_threshold=1.5)
    res = simulate(init, REF_PARAMS, controls)
    assert res.status == RunStatus.BLOWUP_SUSPECTED
    assert "threshold" in res.message
    assert res.n_steps == 1  # the check runs after the first completed step


def test_2d_run_keeps_the_point_symmetry_of_its_data_bit_for_bit():
    # cos(pi x) cos(pi y) data put equal aggregates in two opposite corners;
    # the exact solution keeps that symmetry, and a one-ulp asymmetry would
    # grow until one aggregate absorbed the other
    g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16))
    init = build_initial_data(g, family="cosine", amplitude=0.1, v0_kind="u0_pow_theta", theta=2.0)
    params = ModelParams(chi=1.0, p=1.2, theta=2.0, eps=1e-3, n=2)
    res = simulate(init, params, StepControls(t_end=2.0), record_every=5)
    assert res.status == RunStatus.COMPLETED, res.message
    assert res.n_steps >= 20
    for state in res.states:
        for field in (state.u.values, state.v.values):
            assert np.array_equal(field, field[::-1, ::-1])


def stale_cfl_case(base=1.0, t_end=0.01):
    # a 2d gaussian with v0 = 0: no transport at t = 0, but the first v_new is
    # steep, and its explicit upwind bound (about 3.5e-4) is far below the
    # steps the production proxy allows
    g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16))
    init = build_initial_data(g, family="gaussian", base=base, amplitude=20.0, v0_kind="zero")
    params = ModelParams(chi=10.0, p=1.9, theta=2.0, eps=1e-3, n=2)
    return init, params, StepControls(t_end=t_end)


def assert_positive_and_conserving(res):
    assert res.status == RunStatus.COMPLETED, res.message
    m0 = integrate(res.states[0].u)
    assert res.clamped_mass_cumulative <= 1e-10 * m0
    for state in res.states:
        assert abs(integrate(state.u) - m0) <= 1e-10 * m0
        assert state.u.values.min() >= 0.0 and state.v.values.min() >= 0.0


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(stepper_mod, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper_mod, name, counted)
    return calls


def test_stale_cfl_case_needs_no_retry_on_the_2d_grid(monkeypatch):
    # one step of 0.01, about 30 times the explicit upwind bound of the
    # signal it produces, with no retry
    init, params, controls = stale_cfl_case()
    steps = count_calls(monkeypatch, "step")
    res = simulate(init, params, controls, keep_states="all")
    assert len(steps) == res.n_steps == 1
    assert_positive_and_conserving(res)


def test_stale_cfl_case_needs_no_retry_on_one_axis_grids(monkeypatch):
    # the 1d case that failed before retries existed: implicit transport has
    # no advective bound to break
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(512,))
    init = build_initial_data(g, family="gaussian", base=0.1, amplitude=20.0, width=0.05,
                              v0_kind="zero")
    params = ModelParams(chi=10.0, p=1.9, theta=2.0, eps=1e-3, n=1)
    steps = count_calls(monkeypatch, "step")
    evaluations = count_calls(monkeypatch, "flux_coefficients")
    res = simulate(init, params, StepControls(t_end=0.003), keep_states="all")
    assert res.status == RunStatus.COMPLETED, res.message
    assert len(steps) == res.n_steps  # no retries
    assert len(evaluations) == res.n_steps  # none of v0
    m0 = res.records[0].mass
    assert all(abs(rec.mass - m0) / m0 <= 1e-10 for rec in res.records)
    for state in res.states:
        assert state.u.values.min() >= 0.0 and state.v.values.min() >= 0.0


@pytest.mark.parametrize("base", [1.0, 0.0])
def test_aggregating_2d_run_keeps_sign_and_mass(base):
    # the stale case run on to t = 0.5, where u aggregates to a peak of about
    # 80 (base 0) or 140 (base 1): the GMRES solves must leave no negatives
    # beyond roundoff, also where u is near 0
    init, params, controls = stale_cfl_case(base=base, t_end=0.5)
    res = simulate(init, params, controls, keep_states="all")
    assert res.final_state.u.values.max() > 50.0
    assert_positive_and_conserving(res)


def test_positivity_failure_within_the_bound_is_not_retried(grid1d, monkeypatch):
    # negativity ends the run (a retry would succeed here, so a wrong retry
    # shows as Completed)
    calls = []
    original = stepper_mod.step

    def failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise PositivityError("u dropped to -1")
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper_mod, "step", failing_once)
    init = build_initial_data(grid1d(16), family="cosine", base=1.0, amplitude=0.5)
    res = simulate(init, REF_PARAMS, StepControls(t_end=1.0))
    assert res.status == RunStatus.NUMERICAL_FAILURE and len(calls) == 1


def test_flux_coefficients_evaluated_once_per_step(grid2d, monkeypatch):
    # one evaluation per step, on v_new, and none of v0
    steps = count_calls(monkeypatch, "step")
    evaluations = count_calls(monkeypatch, "flux_coefficients")
    init = build_initial_data(grid2d(16), family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=2)
    res = simulate(init, params, StepControls(t_end=2.0))
    assert res.status == RunStatus.COMPLETED and res.n_steps > 10
    assert len(steps) == res.n_steps  # no retries
    assert len(evaluations) == res.n_steps


def test_records_reuse_the_certified_laplacian_of_v(grid2d, monkeypatch):
    # a record takes lap(v) from the solver that certified v; the reference
    # solver answers no lookup outside a solve, so every record recomputes it
    import fluxks.functionals as functionals_mod
    import fluxks.linalg as linalg_mod
    import fluxks.model as model_mod

    class Recomputing(HelmholtzSolver):
        in_solve = False

        def laplacian(self, x):
            return super().laplacian(x) if self.in_solve else None

        def solve(self, *args, **kwargs):
            self.in_solve = True
            try:
                return super().solve(*args, **kwargs)
            finally:
                self.in_solve = False

    calls = []
    for mod in (functionals_mod, linalg_mod, model_mod):
        def counted(grid, values, _original=mod.laplacian_values):
            calls.append(None)
            return _original(grid, values)

        monkeypatch.setattr(mod, "laplacian_values", counted)
    init = build_initial_data(grid2d(16), family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=2)
    runs = []
    for solver_cls in (HelmholtzSolver, Recomputing):
        monkeypatch.setattr(stepper_mod, "HelmholtzSolver", solver_cls)
        calls.clear()
        res = simulate(init, params, StepControls(t_end=2.0), record_every=2)
        runs.append((res, len(calls)))
    (cached, n_cached), (reference, n_reference) = runs
    assert cached.status == RunStatus.COMPLETED and cached.clamped_mass_cumulative == 0.0
    assert cached.records == reference.records
    # every record but the initial state's finds v's Laplacian in the cache
    assert len(cached.records) > 5
    assert n_reference - n_cached == len(cached.records) - 1


def test_large_steps_agree_under_refinement():
    # the implicit scheme is first order: an aggregating radial run at t =
    # 0.005 overshoots at dt_max = 1e-3 (max u ~ 7e5) but is converged in dt
    # from 1e-5 on (max u ~ 680)
    g = build_grid("radial-n", extents=(1.0,), cells=(48,), n=4)
    init = build_initial_data(g, family="cosine", base=0.99999, amplitude=0.99999,
                              v0_kind="u0_squared")
    params = ModelParams(chi=2.0824, p=2.7745, theta=1.8139, eps=1e-3, n=4)
    peaks = []
    for dt_max in (1e-5, 1e-6):
        res = simulate(init, params, StepControls(t_end=0.005, dt_max=dt_max),
                       keep_states="ends", record_every=10**6)
        assert res.status == RunStatus.COMPLETED, res.message
        peaks.append(float(res.final_state.u.values.max()))
    assert peaks[0] == pytest.approx(peaks[1], rel=0.01)


# Short runs on every grid mode, with dt_min = 1e-5 capping a run at t_end /
# dt_min = 1000 steps (a run that needs a smaller step ends BlowUpSuspected;
# the production proxy bounds dt).  2d grids have 8 to 24 cells per axis.
@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    n=hs.integers(1, 4),
    planar=hs.booleans(),
    cells=hs.integers(8, 64),
    chi=hs.floats(0.0, 10.0),
    p=hs.floats(1.05, 3.0),
    theta=hs.floats(1.1, 3.0),
    eps=hs.floats(1e-3, 0.5),
    family=hs.sampled_from(["cosine", "gaussian", "constant"]),
    base=hs.floats(0.1, 2.0),
    amplitude=hs.floats(0.0, 20.0),
    width=hs.floats(0.02, 0.3),
    v0_kind=hs.sampled_from(["zero", "u0_squared", "constant"]),
    t_end=hs.floats(1e-3, 0.01),
    dt_max=hs.floats(1e-4, 0.1),
)
def test_small_runs_complete_or_blow_up_conserving_mass(
    n, planar, cells, chi, p, theta, eps, family, base, amplitude, width, v0_kind, t_end, dt_max
):
    # n = 1 is cartesian-1d, n = 2 cartesian-2d when planar, else n >= 2 is
    # the radial grid of that dimension
    if n == 1:
        g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    elif n == 2 and planar:
        side = 8 + (cells - 8) % 17
        g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(side, side))
    else:
        g = build_grid("radial-n", extents=(1.0,), cells=(cells,), n=n)
    if family == "cosine":
        amplitude = min(amplitude, base)
    init = build_initial_data(g, family=family, base=base, amplitude=amplitude, width=width,
                              v0_kind=v0_kind, v0_value=base)
    params = ModelParams(chi=chi, p=p, theta=theta, eps=eps, n=n)
    controls = StepControls(t_end=t_end, dt_max=dt_max, dt_min=1e-5)
    res = simulate(init, params, controls, keep_states="all")
    assert res.status in (RunStatus.COMPLETED, RunStatus.BLOWUP_SUSPECTED), res.message
    m0 = integrate(res.states[0].u)
    for state in res.states:
        assert abs(integrate(state.u) - m0) <= 1e-10 * m0
        assert state.u.values.min() >= 0.0 and state.v.values.min() >= 0.0


def test_simulate_numerical_failure_on_overflow(grid1d):
    # u^theta overflows in the first step; the t = 0 record stays finite
    g = grid1d(16)
    init = InitialData(
        u0=GridFunction.constant(g, 1e200), v0=GridFunction.constant(g, 0.0)
    )
    controls = StepControls(t_end=1.0, dt_min=1e-300)
    with np.errstate(over="ignore"):
        res = simulate(init, REF_PARAMS, controls,
                       monitors=MonitorSettings(q_set=(1.5,), q_f1=1.5, q_f2=1.5),
                       mollify=False)
    assert res.status == RunStatus.NUMERICAL_FAILURE
    assert "finite" in res.message
    assert len(res.records) == 1
    assert math.isfinite(res.records[0].mass)


def test_simulate_numerical_failure_on_rhs_norm_overflow(grid1d):
    # every value stays finite but ||v + dt u^theta|| overflows; a solve that
    # certified such a right-hand side returned v = 0 and the run "completed"
    # with v = 0 where v is about 0.39e160
    g = grid1d(16)
    init = InitialData(
        u0=GridFunction.constant(g, 1e160), v0=GridFunction.constant(g, 0.0)
    )
    params = ModelParams(chi=1.0, p=1.5, theta=1.0, eps=1e-3, n=1)
    controls = StepControls(t_end=0.5, blowup_linf_threshold=1e300)
    with np.errstate(over="ignore"):
        res = simulate(init, params, controls,
                       monitors=MonitorSettings(q_set=(1.5,), q_f1=1.5, q_f2=1.5),
                       mollify=False)
    assert res.status == RunStatus.NUMERICAL_FAILURE
    assert "not finite" in res.message


def test_simulate_clamp_budget_wiring(grid1d, monkeypatch):
    # force the clamped-mass guard to fire on the first step
    import fluxks.stepper as stepper_mod

    monkeypatch.setattr(stepper_mod, "CLAMPED_MASS_MAX_FRACTION", -1.0)
    g = grid1d(32)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    res = simulate(init, REF_PARAMS, StepControls(t_end=1.0))
    assert res.status == RunStatus.NUMERICAL_FAILURE
    assert "clamped mass" in res.message


def test_simulate_rejects_bad_arguments(grid1d):
    g = grid1d(16)
    init = build_initial_data(g, family="constant", base=1.0, v0_kind="zero")
    params2d = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=2)
    with pytest.raises(ValueError, match="does not match"):
        simulate(init, params2d, StepControls(t_end=1.0))
    with pytest.raises(ValueError, match="record_every"):
        simulate(init, REF_PARAMS, StepControls(t_end=1.0), record_every=0)
    with pytest.raises(ValueError, match="keep_states"):
        simulate(init, REF_PARAMS, StepControls(t_end=1.0), keep_states="some")


def test_simulate_keep_states_variants(grid1d):
    g = grid1d(32)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.3,
                              v0_kind="u0_squared")
    controls = StepControls(t_end=0.3)
    ends = simulate(init, REF_PARAMS, controls, keep_states="ends")
    assert len(ends.states) == 2
    assert ends.states[0].t == 0.0 and ends.states[-1] is ends.final_state
    full = simulate(init, REF_PARAMS, controls, keep_states="all")
    assert len(full.states) == full.n_steps + 1
    sampled = simulate(init, REF_PARAMS, controls, record_every=2, keep_states="sampled")
    assert 2 <= len(sampled.states) <= full.n_steps // 2 + 2


def test_simulate_record_cadence_and_final(grid1d):
    g = grid1d(32)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.3,
                              v0_kind="u0_squared")
    res = simulate(init, REF_PARAMS, StepControls(t_end=0.5), record_every=7)
    ts = [r.t for r in res.records]
    assert ts[0] == 0.0
    assert ts == sorted(ts)
    assert ts[-1] == res.final_state.t
    # 0.5 is reached up to the loop slack
    assert abs(ts[-1] - 0.5) <= 1e-12
    on_cadence = 1 + res.n_steps // 7
    assert len(res.records) in (on_cadence, on_cadence + 1)


def test_simulate_defaults_exponents_from_audit(reference_run):
    # n=1, theta=2, p=1.5: density witness 1.5, gradient witness 3; the
    # tracked q set is their union with 2
    assert set(reference_run.records[0].uq.keys()) == {1.5, 2.0, 3.0}


@pytest.mark.parametrize(
    "mode,n,theta",
    [
        ("cartesian-1d", 1, 0.5),
        ("cartesian-1d", 1, 0.8),
        ("cartesian-1d", 1, 1.0),
        ("cartesian-2d", 2, 0.5),
        ("radial-n", 3, 0.3),
    ],
)
def test_simulate_completes_without_a_critical_exponent(mode, n, theta):
    # n*theta <= 1 has no critical exponent to audit: the functionals fall
    # back to q_f1 = q_f2 = 2, as when no entropy route exists; theta = 1/2 in
    # 1d also hits the pole of the s rule's (2 theta + 1)/(2 theta - 1)
    axes = 2 if mode == "cartesian-2d" else 1
    g = build_grid(mode, extents=(1.0,) * axes, cells=(16,) * axes,
                   n=n if mode == "radial-n" else None)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    params = ModelParams(chi=1.0, p=1.5, theta=theta, eps=1e-3, n=n)
    res = simulate(init, params, StepControls(t_end=0.2))
    assert res.status == RunStatus.COMPLETED, res.message
    rec = res.records[-1]
    assert set(rec.uq) == {2.0}
    assert rec.F1 == rec.uq[2.0] + rec.v_l2
    assert rec.F2 == rec.uq[2.0] + rec.gradv_l2


def test_simulate_records_the_indices_of_its_monitor_settings(grid2d):
    # n=2, theta=1.2 at p fraction 0.8, where the audit's F1 witness lies in
    # (0, 1): every record's F1 and F2 are those that record gives with the
    # indices of MonitorSettings, bit for bit
    params = ModelParams(chi=1.0, p=relative_p(2, 1.2, 0.8), theta=1.2, eps=1e-3, n=2)
    init = build_initial_data(grid2d(8), family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_pow_theta", theta=1.2)
    res = simulate(init, params, StepControls(t_end=0.5), record_every=1, keep_states="all")
    assert res.status == RunStatus.COMPLETED, res.message
    monitors = MonitorSettings().resolve(params)
    assert 0.0 < monitors.q_f1 < 1.0
    assert len(res.records) == len(res.states) > 2
    for rec, st in zip(res.records, res.states):
        assert rec.t == st.t
        assert set(rec.uq) == set(monitors.q_set)
        again = record(st, monitors)
        assert (rec.F1, rec.F2) == (again.F1, again.F2)


def test_simulate_max_norm_branch_leaves_v_raw(grid1d):
    g = grid1d(64)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_squared")
    controls = StepControls(t_end=1e-9)
    raw_v2 = float(np.sum(init.v0.values**2 * g.cell_weights))
    # p = 1.8 selects the max-norm branch in 1d: v is not mollified
    params_inf = ModelParams(chi=1.0, p=1.8, theta=2.0, eps=0.5, n=1)
    res_inf = simulate(init, params_inf, controls, mollify=True)
    assert res_inf.records[0].v_l2 == pytest.approx(raw_v2, rel=1e-14)
    # p = 1.5 uses a finite s and mollifies the signal too
    params_fin = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=0.5, n=1)
    res_fin = simulate(init, params_fin, controls, mollify=True)
    assert res_fin.records[0].v_l2 < raw_v2 * (1.0 - 1e-6)
