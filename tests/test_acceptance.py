"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

One criterion per test, one printed pass/fail line per criterion (run with
``pytest tests/test_acceptance.py -s`` to watch them stream).  Criteria 1, 2,
5 and 10 share the reference run; criterion 4 runs the full boundedness
lattice and dominates the wall time.  Criterion 11 is shown to fail on three
broken schemes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import fluxks.stepper as stepper_mod
from conftest import mode_dispersion, reference_setup
from fluxks.functionals import records_to_csv
from fluxks.gn import (
    density_step_set,
    estimate_constants,
    gn_exponent,
    signal_grad_step_set,
    signal_l2_step_set,
)
from fluxks.grid import (
    build_grid,
    divergence_values,
    gradient_faces,
    laplacian_values,
)
from fluxks.model import ModelParams, build_initial_data, flux_coefficients
from fluxks.monitors import (
    check_dissipation_inequality,
    check_positivity,
    eps_refinement,
)
from fluxks.regimes import RegimeSpec, a_star, audit, b_star, condition_2ab, relative_p
from fluxks.stepper import StepControls, simulate
from fluxks.sweep import SweepSpec, run_sweep


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="session")
def timed_reference_run():
    # independent of the conftest reference_run on purpose: criterion 10
    # compares the two runs byte for byte
    _, initial, params, controls = reference_setup()
    t0 = time.perf_counter()
    result = simulate(initial, params, controls)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def boundedness_sweep(tmp_path_factory):
    spec = SweepSpec(
        n_values=(1, 2),
        theta_values=(1.5, 2.0, 3.0),
        p_values=(0.6, 0.8, 0.95),
        t_end=20.0,
        cells_1d=256,
        cells_2d=128,
        record_every=5,
    )
    out = tmp_path_factory.mktemp("acceptance-sweep")
    t0 = time.perf_counter()
    result = run_sweep(spec, out, parallelism=2)
    return result, time.perf_counter() - t0


def test_criterion_01_mass_conservation(timed_reference_run):
    result, elapsed = timed_reference_run
    recs = result.records
    m0 = recs[0].mass
    drift = max(abs(r.mass - m0) / m0 for r in recs)
    ok = result.status.value == "Completed" and drift <= 1e-10 and elapsed <= 60.0
    announce(1, ok, f"mass drift {drift:.2e} <= 1e-10, runtime {elapsed:.1f}s <= 60s")
    assert result.status.value == "Completed", result.message
    assert drift <= 1e-10
    assert elapsed <= 60.0


def test_criterion_02_positivity(reference_run):
    verdict = check_positivity(reference_run.states)
    m0 = reference_run.records[0].mass
    clamped = reference_run.final_state.clamped_mass_cumulative
    ok = verdict.passed and clamped <= 1e-10 * m0
    announce(
        2,
        ok,
        f"min-field violation {verdict.worst_violation:.1e}, "
        f"clamped mass {clamped:.1e} <= 1e-10 * mass",
    )
    assert verdict.passed, verdict.summary()
    assert clamped <= 1e-10 * m0


def test_criterion_03_equilibrium_fixed_point():
    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    u_bar, theta = 2.0, 2.0
    initial = build_initial_data(
        grid, family="constant", base=u_bar, v0_kind="u0_pow_theta", theta=theta
    )
    params = ModelParams(chi=1.0, p=1.5, theta=theta, eps=1e-3, n=1)
    # production CFL pins dt to 0.1, so t_end = 100 is exactly 1000 steps
    result = simulate(initial, params, StepControls(t_end=100.0), record_every=100)
    dev_u = float(np.max(np.abs(result.final_state.u - u_bar)))
    dev_v = float(np.max(np.abs(result.final_state.v - u_bar**theta)))
    dev = max(dev_u, dev_v)
    ok = result.n_steps == 1000 and dev <= 1e-10
    announce(3, ok, f"{result.n_steps} steps, equilibrium L-inf deviation {dev:.2e} <= 1e-10")
    assert result.n_steps == 1000
    assert dev <= 1e-10


def test_criterion_04_subcritical_boundedness_sweep(boundedness_sweep):
    result, elapsed = boundedness_sweep
    classifications = [r["classification"] for r in result.results]
    n_bounded = sum(1 for c in classifications if c == "Bounded")
    ok = (
        len(result.results) == 18
        and n_bounded == 18
        and result.n_mismatch == 0
        and elapsed <= 1800.0
    )
    announce(
        4,
        ok,
        f"{n_bounded}/18 lattice points Bounded, {result.n_mismatch} flags, "
        f"runtime {elapsed:.0f}s <= 1800s",
    )
    assert len(result.results) == 18
    assert result.n_mismatch == 0
    bad = [
        (r["point"]["n"], r["point"]["theta"], r["point"]["p"], r["classification"])
        for r in result.results
        if r["classification"] != "Bounded"
    ]
    assert not bad, f"non-Bounded subcritical points: {bad}"
    assert elapsed <= 1800.0


def test_criterion_05_entropy_dissipation(reference_run):
    # the run's F1/F2 witnesses default to the regime-audit choices
    v1 = check_dissipation_inequality(reference_run.records, which="F1")
    v2 = check_dissipation_inequality(reference_run.records, which="F2")
    ok = v1.passed and v2.passed
    announce(
        5,
        ok,
        f"F1 bound {v1.details['bound']:.3f} (coverage {v1.details['coverage']:.3f}), "
        f"F2 bound {v2.details['bound']:.3f} (coverage {v2.details['coverage']:.3f})",
    )
    assert v1.passed, v1.summary()
    assert v2.passed, v2.summary()


def test_criterion_06_exponent_algebra_feasibility():
    t0 = time.perf_counter()
    reports = [
        audit(RegimeSpec(n=n, theta=theta, p=relative_p(n, theta, f)))
        for n in (1, 2, 3, 5)
        for theta in (1.1, 1.5, 2.0, 4.0)
        for f in (0.5, 0.9)
    ]
    elapsed = time.perf_counter() - t0
    all_feasible = all(r.feasible for r in reports)
    witness_ok = True
    for r in reports:
        if r.route == "entropy":
            witness_ok = witness_ok and (
                r.a_star > 1.0 and 0.5 <= r.b_star < 1.0 and r.condition_2ab < 2.0
            )
    worked = (
        a_star(n=2, p=1.2, q=2.0, r=2.0),
        b_star(n=2, r=2.0),
        condition_2ab(n=2, p=1.2, q=2.0, r=2.0),
    )
    worked_ok = (
        abs(worked[0] - 2.5) <= 1e-12
        and abs(worked[1] - 0.5) <= 1e-12
        and abs(worked[2] - 0.5) <= 1e-12
    )
    ok = all_feasible and witness_ok and worked_ok and elapsed <= 5.0
    announce(
        6,
        ok,
        f"32/32 audits feasible, witnesses in range, worked point "
        f"({worked[0]:g}, {worked[1]:g}, {worked[2]:g}), {elapsed:.2f}s <= 5s",
    )
    assert all_feasible
    assert witness_ok
    assert worked_ok
    assert elapsed <= 5.0


def test_criterion_07_eps_refinement():
    _, initial, params, controls = reference_setup()
    ladder = [1e-2, 1e-3, 1e-4]
    verdict = eps_refinement(initial, params, controls, ladder)
    p2 = eps_refinement(
        initial, ModelParams(chi=1.0, p=2.0, theta=2.0, eps=1e-3, n=1), controls, ladder
    )
    d = verdict.details["distances"]
    d2 = p2.details["distances"]
    ok = verdict.passed and p2.passed and max(d2) <= 1e-9
    announce(
        7,
        ok,
        f"distances {d[0]:.2e} -> {d[1]:.2e} nonincreasing (10% slack); "
        f"p=2 max distance {max(d2):.1e} <= 1e-9",
    )
    assert verdict.passed, verdict.details
    assert p2.passed
    assert max(d2) <= 1e-9


def test_criterion_08_gn_constants():
    regime = audit(RegimeSpec(n=1, theta=2.0, p=1.5))
    q1, q2 = regime.chosen_q_f1, regime.chosen_q
    sets = {
        "density-step": density_step_set(1, 1.5, q1),
        "signal-l2-step": signal_l2_step_set(1, 2.0, q1),
        "signal-grad-step": signal_grad_step_set(1, 2.0, q2),
    }
    coarse = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    fine = build_grid("cartesian-1d", extents=(1.0,), cells=(512,))
    est1 = estimate_constants(coarse, tuple(sets.values()), size=1000, seed=0)
    est2 = estimate_constants(fine, tuple(sets.values()), size=1000, seed=0)
    stabilities = {}
    for name, c1, c2 in zip(sets, est1.gn, est2.gn, strict=True):
        assert math.isfinite(c1) and math.isfinite(c2)
        stabilities[name] = abs(c2 - c1) / c1

    # closed-form exponent on rational inputs
    worst_exp = 0.0
    for p_hat in (2, 3, 4, 6):
        for q_hat in (1, 2):
            for n in (1, 2, 3):
                num = Fraction(1, q_hat) - Fraction(1, p_hat)
                den = Fraction(1, q_hat) + Fraction(1, n) - Fraction(1, 2)
                a = num / den
                if not (0 <= a <= 1):
                    continue
                got = gn_exponent(float(p_hat), float(q_hat), 2.0, n)
                worst_exp = max(worst_exp, abs(got - float(a)))

    stable = all(s <= 0.15 for s in stabilities.values())
    ok = stable and worst_exp <= 1e-12
    announce(
        8,
        ok,
        f"max doubling drift {max(stabilities.values()):.1e} <= 0.15 "
        f"(1000-member ensemble), exponent closed-form error {worst_exp:.1e} <= 1e-12",
    )
    assert stable, stabilities
    assert worst_exp <= 1e-12


def test_criterion_09_operator_correctness():
    # eigenfunction convergence order over two doublings
    k = 3
    errs = []
    for cells in (64, 128, 256):
        g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
        x = g.axis_centers(0)
        f = np.cos(k * math.pi * x)
        resid = laplacian_values(g, f) + (k * math.pi) ** 2 * f
        errs.append(float(np.max(np.abs(resid))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)

    # divergence_values(gradient_faces(f)) == laplacian_values(f), and
    # self-adjointness, per mode
    grids = (
        build_grid("cartesian-1d", extents=(1.0,), cells=(64,)),
        build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16)),
        build_grid("radial-n", extents=(1.0,), cells=(48,), n=3),
    )
    rng = np.random.default_rng(42)
    compose_worst = 0.0
    adjoint_worst = 0.0
    for g in grids:
        vals = 1.0 + rng.uniform(0.0, 1.0, size=g.shape)
        lap = laplacian_values(g, vals)
        div_grad = divergence_values(g, gradient_faces(g, vals))
        scale = float(np.max(np.abs(lap))) or 1.0
        compose_worst = max(
            compose_worst, float(np.max(np.abs(div_grad - lap))) / scale
        )
        w_vals = 1.0 + rng.uniform(0.0, 1.0, size=g.shape)
        lhs = float(np.sum(lap * w_vals * g.cell_weights))
        rhs = float(np.sum(vals * laplacian_values(g, w_vals) * g.cell_weights))
        adjoint_worst = max(
            adjoint_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        )

    ok = orders_ok and compose_worst <= 1e-13 and adjoint_worst <= 1e-12
    announce(
        9,
        ok,
        f"eigen orders {orders[0]:.2f}, {orders[1]:.2f} in [1.8, 2.2]; "
        f"div(grad)-lap {compose_worst:.1e}; self-adjointness {adjoint_worst:.1e}",
    )
    assert orders_ok, orders
    assert compose_worst <= 1e-13
    assert adjoint_worst <= 1e-12


def test_criterion_10_determinism(reference_run, timed_reference_run, tmp_path):
    repeat, _ = timed_reference_run
    csv_a = records_to_csv(reference_run.records)
    csv_b = records_to_csv(repeat.records)
    csv_ok = csv_a.encode() == csv_b.encode()

    spec = SweepSpec(
        n_values=(1,),
        theta_values=(1.5, 2.0),
        p_values=(0.5, 0.9),
        cells_1d=32,
        t_end=1.0,
        dt_max=0.05,
        record_every=1,
    )
    outs = {}
    for par in (1, 2):
        out = tmp_path / f"par{par}"
        run_sweep(spec, out, parallelism=par)
        outs[par] = {
            f.name: f.read_bytes()
            for f in sorted(out.iterdir())
            if f.name != "timings.json"
        }
    sweep_ok = outs[1] == outs[2]
    ok = csv_ok and sweep_ok
    announce(
        10,
        ok,
        f"repeat CSV byte-identical: {csv_ok}; sweep artifacts invariant "
        f"under parallelism 1 vs 2: {sweep_ok}",
    )
    assert csv_ok
    assert sweep_ok


# (grid, chi, mode size) of one decaying and one growing mode per grid kind,
# on u = v = 1 with p = 1.5, theta = 2, eps = 1e-3, over 100 steps of 0.01
DISPERSION_CASES = (
    (build_grid("cartesian-1d", extents=(1.0,), cells=(64,)), 0.5, 1e-5),
    (build_grid("cartesian-1d", extents=(1.0,), cells=(32,)), 2.0, 1e-7),
    (build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(32, 32)), 1.0, 1e-5),
    (build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(32, 32)), 2.5, 1e-7),
    (build_grid("radial-n", extents=(1.0,), cells=(32,), n=3), 1.0, 1e-5),
    (build_grid("radial-n", extents=(1.0,), cells=(32,), n=3), 2.5, 1e-7),
)
DISPERSION_RTOL = 1e-3


def dispersion_gate():
    """``(passed, worst error, details)`` of the modes in ``DISPERSION_CASES``:
    each must match the per-mode map to ``DISPERSION_RTOL``, and each grid
    kind must show one decaying and one growing mode."""
    details = []
    for grid, chi, size in DISPERSION_CASES:
        params = ModelParams(chi=chi, p=1.5, theta=2.0, eps=1e-3, n=grid.n)
        err, growth = mode_dispersion(grid, params, size)
        details.append((grid.mode, chi, err, growth))
    worst = max(err for _, _, err, _ in details)
    kinds = {(mode, growth > 1.0) for mode, _, _, growth in details}
    passed = worst <= DISPERSION_RTOL and len(kinds) == len(DISPERSION_CASES)
    return passed, worst, details


def test_criterion_11_discrete_dispersion():
    t0 = time.perf_counter()
    passed, worst, details = dispersion_gate()
    elapsed = time.perf_counter() - t0
    growths = ", ".join(f"{growth:.3g}" for *_, growth in details)
    announce(
        11,
        passed and elapsed <= 5.0,
        f"6 modes on 1d, 2d, radial n=3 (growth {growths}) match the linear map "
        f"to {worst:.1e} <= {DISPERSION_RTOL:.0e}, {elapsed:.2f}s <= 5s",
    )
    assert passed, details
    assert elapsed <= 5.0


@pytest.mark.parametrize(
    "mutant",
    [
        lambda grid, grads, params: [np.zeros_like(g) for g in grads],
        lambda grid, grads, params: [-c for c in flux_coefficients(grid, grads, params)],
        "production",
    ],
    ids=["no-chemotaxis", "repulsive", "linear-production"],
)
def test_criterion_11_fails_on_broken_schemes(monkeypatch, mutant):
    # chemotaxis deleted or reversed, or production u in place of u^theta
    if mutant == "production":
        monkeypatch.setattr(stepper_mod, "production", lambda u, params: u)
    else:
        monkeypatch.setattr(stepper_mod, "flux_coefficients", mutant)
    passed, worst, _ = dispersion_gate()
    assert not passed and worst > DISPERSION_RTOL
