"""Helmholtz and transport-diffusion solves checked against dense linear algebra.

The operator (a*I - d*L) is assembled column by column through the public
laplacian and solved with numpy; the matrix-free solver must agree to the
residual tolerance it certifies, and the residual it reports must be the true
residual of the solution it returns.  On one-axis grids the upwind transport
term's diagonals are checked the same way against the matvec, and for the
M-matrix sign pattern and weighted column sums that give positivity and mass,
and the LAPACK ``gtsv`` inverse against scipy's ``solve_banded`` bit for bit;
on the 2d grid the GMRES transport solve is checked against the dense matvec.
A solve always corrects its guess unless the guess is exact, so modes below
the solver tolerance still follow the discrete linear theory.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from fluxks import linalg
from fluxks.errors import SolverError
from fluxks.grid import GridFunction, build_grid, integrate, laplacian_values
from fluxks.linalg import SOLVER_RTOL, HelmholtzSolver
from conftest import mode_dispersion
from fluxks.model import ModelParams, build_initial_data
from fluxks.stepper import RunStatus, StepControls, _clamp_negative, simulate

ALL_GRIDS = [
    ("cartesian-1d", dict(extents=(1.0,), cells=(24,))),
    ("cartesian-2d", dict(extents=(1.0, 1.0), cells=(8, 8))),
    ("radial-n", dict(extents=(1.0,), cells=(24,), n=3)),
]


ONE_AXIS_GRIDS = [
    ("cartesian-1d", dict(extents=(1.0,), cells=(16,))),
    ("radial-n", dict(extents=(1.0,), cells=(16,), n=3)),
]


def random_coeffs(grid, seed, scale=3.0):
    # face coefficients of both signs per axis, zero on the boundary faces
    rng = np.random.default_rng(seed)
    coeffs = []
    for axis in range(grid.n_axes):
        c = rng.uniform(-scale, scale, size=grid.face_shape(axis))
        c[(slice(None),) * axis + (0,)] = 0.0
        c[(slice(None),) * axis + (-1,)] = 0.0
        coeffs.append(c)
    return coeffs


def dense_from_diagonals(lower, diagonal, upper):
    return np.diag(diagonal) + np.diag(upper, 1) + np.diag(lower, -1)


def band_matrix(grid, a_coef, d_coef, coeffs=None):
    # a*I - d*L + d*A in solve_banded's (1, 1) layout, assembled from the
    # grid's face rates: the reference the gtsv inverse must match bit for bit
    area = grid.face_areas[0].copy()
    area[0] = area[-1] = 0.0
    up = down = area / grid.spacing[0]
    if coeffs is not None:
        flow = coeffs[0] * grid.face_areas[0]
        up = up + np.maximum(flow, 0.0)
        down = down + np.maximum(-flow, 0.0)
    w = grid.cell_weights
    ab = np.zeros((3, w.shape[0]))
    ab[1, :] = a_coef + d_coef * (up[1:] + down[:-1]) / w
    ab[0, 1:] = -d_coef * down[1:-1] / w[:-1]  # row i, column i+1
    ab[2, :-1] = -d_coef * up[1:-1] / w[1:]  # row i+1, column i
    return ab


def dense_operator(grid, a_coef, d_coef):
    size = int(np.prod(grid.shape))
    mat = np.zeros((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        col = a_coef * e.reshape(grid.shape) - d_coef * laplacian_values(
            grid, e.reshape(grid.shape)
        )
        mat[:, j] = col.ravel()
    return mat


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
@pytest.mark.parametrize("a_coef,d_coef", [(1.0, 0.05), (1.1, 0.003)])
def test_solve_matches_dense(mode, kwargs, a_coef, d_coef):
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(42)
    rhs = rng.standard_normal(grid.shape)
    solver = HelmholtzSolver(grid)
    x, iters, relres = solver.solve(a_coef, d_coef, rhs, np.zeros(grid.shape))
    mat = dense_operator(grid, a_coef, d_coef)
    x_dense = np.linalg.solve(mat, rhs.ravel()).reshape(grid.shape)
    assert relres <= SOLVER_RTOL
    np.testing.assert_allclose(x, x_dense, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("mode,kwargs", ONE_AXIS_GRIDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_transport_bands_match_apply_and_form_an_m_matrix(mode, kwargs, seed):
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    coeffs = random_coeffs(grid, seed)
    a_coef, d_coef = 1.0, 0.01
    size = grid.shape[0]
    applied = np.zeros((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        applied[:, j] = solver.apply(a_coef, d_coef, e, coeffs)
    banded = dense_from_diagonals(*solver._tridiagonal(a_coef, d_coef, coeffs))
    np.testing.assert_allclose(banded, applied, rtol=0.0, atol=1e-12 * np.abs(applied).max())
    # M-matrix: positive diagonal, nonpositive off-diagonals; weighted column
    # sums equal a, i.e. the solve conserves mass
    off = banded - np.diag(np.diag(banded))
    assert np.all(np.diag(banded) > 0.0) and np.all(off <= 0.0)
    w = grid.cell_weights
    np.testing.assert_allclose(w @ banded / w, 1.0, rtol=0.0, atol=1e-14)
    # and its inverse is the exact solve
    rhs = np.random.default_rng(seed + 20).uniform(0.5, 1.5, size)
    x, _, relres = solver.solve(a_coef, d_coef, rhs, rhs, coeffs=coeffs)
    assert relres <= SOLVER_RTOL
    np.testing.assert_allclose(x, np.linalg.solve(applied, rhs), rtol=1e-10)
    assert x.min() >= 0.0


@pytest.mark.parametrize("mode,kwargs", ONE_AXIS_GRIDS)
@pytest.mark.parametrize("transport", [False, True])
@pytest.mark.parametrize("a_coef", [1.0, 1.1])
def test_tridiagonal_inverse_matches_solve_banded_bit_for_bit(mode, kwargs, transport, a_coef):
    grid = build_grid(mode, **kwargs)
    coeffs = random_coeffs(grid, 11) if transport else None
    r = np.random.default_rng(12).standard_normal(grid.shape)
    x = HelmholtzSolver(grid)._inverse(a_coef, 0.03, coeffs)(r)
    assert np.array_equal(x, solve_banded((1, 1), band_matrix(grid, a_coef, 0.03, coeffs), r))


@pytest.mark.parametrize("mode,kwargs", ONE_AXIS_GRIDS)
def test_tridiagonal_zero_pivot_raises(mode, kwargs):
    # no face rates and a = 0 leave a zero diagonal: gtsv reports the pivot
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    solver._rates = np.zeros_like(solver._rates)
    inverse = solver._inverse(0.0, 0.5, None)
    with pytest.raises(SolverError, match="zero pivot"):
        inverse(np.ones(grid.shape))


def test_dct_inverse_commutes_with_reflections_bit_for_bit():
    # on even cell counts the DCT round trip commutes with reflecting the data
    # along either axis, bit for bit, so its roundoff cannot break a symmetry
    # of the data
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 12))
    inverse = HelmholtzSolver(grid)._inverse(1.0, 0.3, None)
    r = np.random.default_rng(6).standard_normal(grid.shape)
    x = inverse(r)
    assert np.array_equal(inverse(r[::-1]), x[::-1])
    assert np.array_equal(inverse(r[:, ::-1]), x[:, ::-1])
    assert np.array_equal(inverse(r[::-1, ::-1]), x[::-1, ::-1])


@pytest.mark.parametrize("dt", [0.01, 1.0])
def test_transport_solve_keeps_a_point_symmetry_bit_for_bit(dt):
    # data symmetric under (x, y) -> (1 - x, 1 - y), with face coefficients
    # that reverse sign there, give a solution with that symmetry exactly
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16))
    coeffs = [c - c[::-1, ::-1] for c in random_coeffs(grid, 7, scale=15.0)]
    r = np.random.default_rng(8).uniform(0.0, 1.0, grid.shape)
    rhs = r + r[::-1, ::-1]
    x, iterations, _ = HelmholtzSolver(grid).solve(1.0, dt, rhs, rhs, coeffs=coeffs)
    assert iterations >= 1
    assert np.array_equal(x, x[::-1, ::-1])


@pytest.mark.parametrize("dt", [0.01, 1.0])
def test_transport_solve_on_the_dct_grid_keeps_sign_and_mass(dt):
    # 2d transport by GMRES: the true solution of the dense operator to the
    # certified residual, nonnegative for nonnegative data, with the mass
    # kept, for steps far beyond the explicit positivity bound
    # (dt * max |coeff| / h is 1.2 and 120)
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(8, 8))
    solver = HelmholtzSolver(grid)
    coeffs = random_coeffs(grid, 3, scale=15.0)
    size = grid.cell_weights.size
    applied = np.zeros((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        applied[:, j] = solver.apply(1.0, dt, e.reshape(grid.shape), coeffs).ravel()
    rhs = np.random.default_rng(4).uniform(0.0, 1.0, grid.shape)
    rhs[rhs < 0.5] = 0.0
    x, iterations, relres = solver.solve(1.0, dt, rhs, rhs, coeffs=coeffs)
    assert relres <= SOLVER_RTOL and 1 <= iterations <= linalg.CORRECTIONS * linalg.KRYLOV_RESTART
    exact = np.linalg.solve(applied, rhs.ravel()).reshape(grid.shape)
    np.testing.assert_allclose(x, exact, rtol=0.0, atol=1e-8 * exact.max())
    assert exact.min() >= 0.0 and x.min() >= -1e-13
    mass = integrate(GridFunction(grid, rhs))
    assert abs(integrate(GridFunction(grid, x)) - mass) <= 1e-14 * mass


def test_exhausted_krylov_iterations_raise(monkeypatch):
    # one GMRES iteration cannot resolve strong transport at a large step
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(8, 8))
    monkeypatch.setattr(linalg, "KRYLOV_RESTART", 1)
    monkeypatch.setattr(linalg, "CORRECTIONS", 1)
    rhs = np.random.default_rng(4).uniform(0.5, 1.5, grid.shape)
    with pytest.raises(SolverError, match="backward-error floor"):
        HelmholtzSolver(grid).solve(1.0, 1.0, rhs, rhs, coeffs=random_coeffs(grid, 3, scale=15.0))


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_operator_spd_in_weighted_inner_product(mode, kwargs):
    grid = build_grid(mode, **kwargs)
    w = grid.cell_weights.ravel()
    mat = dense_operator(grid, 1.0, 0.02)
    weighted = np.diag(w) @ mat
    asym = np.abs(weighted - weighted.T).max() / np.abs(weighted).max()
    assert asym < 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (weighted + weighted.T))
    assert eigs.min() > 0.0


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_solve_preserves_weighted_mean(mode, kwargs):
    # with a = 1 the constant mode passes through: int x = int rhs exactly
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(1)
    rhs = rng.uniform(0.5, 1.5, size=grid.shape)
    solver = HelmholtzSolver(grid)
    x, _, _ = solver.solve(1.0, 0.07, rhs, rhs)
    lhs = integrate(GridFunction(grid, x))
    ref = integrate(GridFunction(grid, rhs))
    assert abs(lhs - ref) / ref < 1e-12


def test_constant_rhs_exact_solution():
    # (a - 0*L) on constants: x = b / a
    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(32,))
    solver = HelmholtzSolver(grid)
    rhs = np.full(grid.shape, 3.0)
    x, iters, _ = solver.solve(1.5, 0.2, rhs, np.zeros(grid.shape))
    np.testing.assert_allclose(x, 2.0, rtol=1e-12)


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_preconditioner_keeps_iterations_small(mode, kwargs):
    # exact spectral/tridiagonal inverse: a handful of corrections
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(grid.shape)
    solver = HelmholtzSolver(grid)
    _, iters, _ = solver.solve(1.0, 0.5, rhs, np.zeros(grid.shape))
    assert iters <= 5


def test_radial_solver_large_diffusion():
    # stiff d/a ratio still certified to tolerance
    grid = build_grid("radial-n", extents=(1.0,), cells=(128,), n=3)
    solver = HelmholtzSolver(grid)
    rng = np.random.default_rng(8)
    rhs = rng.uniform(0.0, 1.0, size=grid.shape)
    x, _, relres = solver.solve(1.0, 50.0, rhs, np.zeros(grid.shape))
    assert relres <= SOLVER_RTOL
    op = 1.0 * x - 50.0 * laplacian_values(grid, x)
    num = math.sqrt(float(np.sum((op - rhs) ** 2 * grid.cell_weights)))
    den = math.sqrt(float(np.sum(rhs**2 * grid.cell_weights)))
    assert num / den <= 10.0 * SOLVER_RTOL
    assert relres == pytest.approx(num / den, rel=1e-9)


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_zero_rhs_short_circuits(mode, kwargs):
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    x, corrections, relres = solver.solve(1.0, 0.5, np.zeros(grid.shape), np.ones(grid.shape))
    np.testing.assert_array_equal(x, 0.0)
    assert corrections == 0 and relres == 0.0


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_corrupted_inverse_raises(mode, kwargs):
    # a wrong inverse still contracts the residual, but not to the certificate
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    if solver._symbol is not None:
        solver._symbol = 3.0 * solver._symbol
    else:
        solver._rates = 3.0 * solver._rates
    rhs = np.random.default_rng(4).standard_normal(grid.shape)
    with pytest.raises(SolverError):
        solver.solve(1.0, 0.5, rhs, np.zeros(grid.shape))


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_rhs_with_a_nonfinite_norm_raises(mode, kwargs, bad):
    # with ||b|| = inf the target SOLVER_RTOL * ||b|| is inf too, and x0 came
    # back certified and unchanged
    grid = build_grid(mode, **kwargs)
    rhs = np.ones(grid.shape)
    rhs.flat[3] = bad
    with pytest.raises(SolverError, match="not finite"):
        HelmholtzSolver(grid).solve(1.0, 0.5, rhs, np.zeros(grid.shape))


@pytest.mark.parametrize(
    "mode,kwargs,chi",
    [
        ("cartesian-1d", dict(extents=(1.0,), cells=(64,)), 0.95),
        ("cartesian-2d", dict(extents=(1.0, 1.0), cells=(16, 16)), 1.0),
        ("radial-n", dict(extents=(1.0,), cells=(32,), n=3), 1.0),
    ],
)
def test_decaying_mode_below_the_solver_tolerance_follows_the_linear_theory(mode, kwargs, chi):
    # a slowly decaying mode of size 1e-7: the guess of each step's u-solve
    # already passes the relative residual 1e-10, and a solve that returns
    # such a guess unchanged freezes the mode (errors of 3e-2 to 4)
    grid = build_grid(mode, **kwargs)
    params = ModelParams(chi=chi, p=1.5, theta=2.0, eps=1e-3, n=grid.n)
    err, _ = mode_dispersion(grid, params, 1e-7)
    assert err <= 1e-3


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_exact_guess_returned_unchanged(mode, kwargs):
    # a zero residual is the only exit without a correction: a constant solves
    # the a = 1 system exactly, also with the transport of a constant signal
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    x0 = np.full(grid.shape, 0.7)
    for coeffs in (None, [np.zeros(grid.face_shape(a)) for a in range(grid.n_axes)]):
        x, iterations, relres = solver.solve(1.0, 0.07, x0.copy(), x0, coeffs=coeffs)
        assert iterations == 0 and relres == 0.0
        np.testing.assert_array_equal(x, x0)


@pytest.mark.parametrize("n", [1, 3])
def test_spike_heat_step_keeps_the_mass(n):
    # the u-solve of one chi = 0 step of a one-cell spike at dt 1.25: the
    # first residual rounds at eps * dt * |lap u| per cell, and a solve that
    # stops after the correction made from it keeps that mass error (up to
    # 9e-13 of the mass on the radial grid)
    mode = "cartesian-1d" if n == 1 else "radial-n"
    grid = build_grid(mode, extents=(1.0,), cells=(32,), n=None if n == 1 else n)
    solver = HelmholtzSolver(grid)
    worst = 0.0
    for cell in range(32):
        u = np.full(grid.shape, 1e-6)
        u[cell] = 1.0
        x, _, _ = solver.solve(1.0, 1.25, u, u)
        mass = integrate(GridFunction(grid, u))
        worst = max(worst, abs(integrate(GridFunction(grid, x)) - mass) / mass)
    assert worst <= 1e-14


@pytest.mark.parametrize(
    "mode,kwargs,n",
    [
        ("cartesian-1d", dict(extents=(1.0,), cells=(1024,)), 1),
        ("radial-n", dict(extents=(1.0,), cells=(1024,), n=3), 3),
    ],
)
def test_stiff_heat_run_completes(mode, kwargs, n):
    # dt = 1 on 1024 cells puts the residual at its floating-point floor,
    # above SOLVER_RTOL; the backward-error floor must accept it
    grid = build_grid(mode, **kwargs)
    initial = build_initial_data(grid, base=0.1, amplitude=0.05, v0_kind="u0_squared")
    params = ModelParams(chi=0.0, p=1.5, theta=2.0, eps=1e-3, n=n)
    result = simulate(initial, params, StepControls(t_end=3.0, dt_max=1.0))
    assert result.status == RunStatus.COMPLETED, result.message


# -- the Laplacian cache: a solve from an array it returned reuses L(x0)


def same_solve(first, second):
    (x1, k1, r1), (x2, k2, r2) = first, second
    assert k1 == k2 and r1 == r2
    assert np.array_equal(x1.view(np.uint64), x2.view(np.uint64))


def count_laplacians(monkeypatch):
    calls = []

    def counted(grid, values):
        calls.append(values)
        return laplacian_values(grid, values)

    monkeypatch.setattr(linalg, "laplacian_values", counted)
    return calls


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_solve_from_returned_array_matches_fresh_copy(mode, kwargs, monkeypatch):
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(9)
    coeffs = random_coeffs(grid, 9)
    # one step's v-solve and u-solve, each repeated from what it returned,
    # with a new right-hand side and with the same
    solves = [(1.1, None, rng.uniform(0.5, 1.5, grid.shape)),
              (1.0, coeffs, rng.uniform(0.5, 1.5, grid.shape))]
    noise = 0.01 * rng.standard_normal(grid.shape)
    calls = count_laplacians(monkeypatch)
    for which, (a_coef, k, rhs) in enumerate(solves):
        for next_rhs in (rhs + noise, rhs):
            solver = HelmholtzSolver(grid)
            returned = [solver.solve(a, 0.05, b, np.ones(grid.shape), coeffs=c)[0]
                        for a, c, b in solves]
            x0 = returned[which]
            calls.clear()
            cached = solver.solve(a_coef, 0.05, next_rhs, x0, coeffs=k)
            n_cached = len(calls)
            fresh = HelmholtzSolver(grid).solve(a_coef, 0.05, next_rhs, np.array(x0), coeffs=k)
            same_solve(cached, fresh)
            # the fresh solve computes L(x0); the cached one takes it from the
            # cache, and computes only those of its corrected iterates
            assert cached[1] >= 1 and all(values is not x0 for values in calls[:n_cached])
            assert len(calls) == 2 * n_cached + 1


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_returned_arrays_are_read_only(mode, kwargs):
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    rhs = np.random.default_rng(10).uniform(0.5, 1.5, size=grid.shape)
    x0 = np.zeros(grid.shape)
    for x, _, _ in (solver.solve(1.0, 0.1, rhs, x0), solver.solve(1.0, 0.1, 0.0 * rhs, x0)):
        with pytest.raises(ValueError, match="read-only"):
            x += 1.0
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * grid.n_axes] = 2.0
    assert x0.flags.writeable  # the caller's guess is left alone


def test_clamped_copy_recomputes_the_laplacian(monkeypatch):
    # a solution with one slightly negative cell, clamped as the stepper does
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(8, 8))
    solver = HelmholtzSolver(grid)
    rhs = np.full(grid.shape, 1e-12)
    rhs[3, 4] = -3e-11
    x, _, _ = solver.solve(1.0, 1e-3, rhs, np.zeros(grid.shape))
    clamped, mass = _clamp_negative(x, grid.cell_weights, "u")
    assert mass > 0.0 and clamped is not x

    seen = count_laplacians(monkeypatch)
    _, corrections, _ = solver.solve(1.0, 1e-3, rhs, x)
    # L(x) came from the cache: one Laplacian per corrected iterate
    assert corrections >= 1 and len(seen) == corrections
    assert all(values is not x for values in seen)
    seen.clear()
    solver.solve(1.0, 1e-3, clamped, clamped)
    assert seen and seen[0] is clamped


# a 2d run whose transport goes through GMRES and a radial run through gtsv;
# prints one digest per run of its records CSV and final u and v bytes
_THREAD_PROBE = """
import hashlib
from fluxks.functionals import records_to_csv
from fluxks.grid import unit_grid
from fluxks.model import ModelParams, build_initial_data
from fluxks.stepper import StepControls, simulate

for n, cells, chi in ((2, 32, 5.0), (3, 64, 2.0)):
    init = build_initial_data(unit_grid(n, cells), family="gaussian", base=1.0, amplitude=2.0,
                              v0_kind="u0_pow_theta", theta=2.0)
    res = simulate(init, ModelParams(chi=chi, p=1.5, theta=2.0, eps=1e-3, n=n),
                   StepControls(t_end=0.2, dt_max=0.01), record_every=1)
    assert res.status.value == "Completed", res.message
    digest = hashlib.sha256(records_to_csv(res.records).encode())
    digest.update(res.final_state.u.values.tobytes())
    digest.update(res.final_state.v.values.tobytes())
    print(n, res.n_steps, digest.hexdigest())
"""


def test_results_do_not_depend_on_the_thread_count():
    # the invariant of HelmholtzSolver._dot, checked end to end: each run
    # gives the same bytes with one and with two BLAS/OpenMP threads
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
