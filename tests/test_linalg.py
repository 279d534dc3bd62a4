"""Helmholtz and transport-diffusion solves checked against dense linear algebra.

The operator (a*I - d*L) is assembled column by column through
laplacian_values and solved with numpy; the matrix-free solver must agree to the
residual tolerance it certifies, and the residual it reports must be the true
residual of the solution it returns.  On one-axis grids the upwind transport
term's diagonals are checked the same way against the matvec, and for the
M-matrix sign pattern and weighted column sums that give positivity and mass,
and the LAPACK ``gtsv`` inverse against scipy's ``solve_banded`` bit for bit;
on the 2d grid the GMRES transport solve is checked against the dense matvec,
and its float32 preconditioner for the mean of the exact inverse, the
symmetries it keeps bit for bit, and its distance from the float64 inverse.
A solve always corrects its guess unless the guess is exact, so modes below
the solver tolerance still follow the discrete linear theory.  A solver holds
its work arrays for a run: reused, it matches fresh solvers bit for bit, and
no two solvers share them, even on grids that reuse a dropped grid's id.
"""

import dataclasses
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
from fluxks.grid import Grid, build_grid, divergence_values, integrate, laplacian_values
from fluxks.linalg import SOLVER_RTOL, HelmholtzSolver
from conftest import count_laplacians, mode_dispersion
from fluxks.model import ModelParams, build_initial_data
from fluxks.stepper import RunStatus, StepControls, _clamp_negative, simulate
from test_kernels import ref_upwind_flux

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


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
@pytest.mark.parametrize("a_coef,d_coef", [(1.0, 0.05), (1.1, 3.0)])
def test_apply_matches_the_grid_kernels(mode, kwargs, a_coef, d_coef):
    # without transport the operator is a*x - d*L(x) of the grid kernel, bit
    # for bit; with it, that plus d times the divergence of the reference
    # upwind flux, to roundoff; and its face flows telescope, so its weighted
    # sum is a times that of x
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    w = grid.cell_weights
    x = np.random.default_rng(13).standard_normal(grid.shape)
    diffusion = a_coef * x - d_coef * laplacian_values(grid, x)
    plain = solver.apply(a_coef, d_coef, x)
    assert np.array_equal(plain.view(np.uint64), diffusion.view(np.uint64))
    for seed in (14, 15):
        coeffs = random_coeffs(grid, seed)
        out = solver.apply(a_coef, d_coef, x, coeffs)
        ref_fluxes, _ = ref_upwind_flux(grid, x, coeffs)
        ref = diffusion + d_coef * divergence_values(grid, ref_fluxes)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
        for y in (plain, out):
            total = float(np.sum(w * y))
            assert abs(total - a_coef * float(np.sum(w * x))) <= 1e-14 * float(np.sum(np.abs(w * y)))


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
@pytest.mark.parametrize("transport", [False, True])
def test_norm_bound_is_the_largest_absolute_row_sum(mode, kwargs, transport):
    # the backward-error floor's ||A||, from the diagonal of -L and the
    # transport rates, against the dense matrix of apply
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    coeffs = random_coeffs(grid, 16) if transport else None
    size = int(np.prod(grid.shape))
    mat = np.array([solver.apply(1.1, 0.3, e.reshape(grid.shape), coeffs).ravel()
                    for e in np.eye(size)]).T
    solver._set_operator(1.1, 0.3, coeffs)
    bound = solver._norm_bound()
    assert bound == pytest.approx(float(np.abs(mat).sum(axis=1).max()), rel=1e-13)


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
    solver._set_operator(a_coef, d_coef, coeffs)
    banded = dense_from_diagonals(*solver._tridiagonal())
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
    solver = HelmholtzSolver(grid)
    solver._set_operator(a_coef, 0.03, coeffs)
    x = solver._inverse()(r, np.empty(grid.shape))
    assert np.array_equal(x, solve_banded((1, 1), band_matrix(grid, a_coef, 0.03, coeffs), r))


@pytest.mark.parametrize("mode,kwargs", ONE_AXIS_GRIDS)
def test_tridiagonal_zero_pivot_raises(mode, kwargs):
    # no face rates and a = 0 leave a zero diagonal: gtsv reports the pivot
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    solver._rates = np.zeros_like(solver._rates)
    solver._set_operator(0.0, 0.5, None)
    inverse = solver._inverse()
    with pytest.raises(SolverError, match="zero pivot"):
        inverse(np.ones(grid.shape), np.empty(grid.shape))


def test_stacked_tridiagonal_blocks_match_their_separate_solves_bit_for_bit():
    # independent systems stacked in one gtsv call, with zero couplings
    # between blocks, give the bits of their separate solves; the diagonal
    # scales make gtsv pivot inside some blocks
    rng = np.random.default_rng(9)
    pivoted = 0
    for _ in range(200):
        blocks = []
        for size in rng.integers(2, 40, size=4):
            scale = rng.choice([1e-3, 1.0, 10.0])
            blocks.append((rng.standard_normal(size - 1), scale * rng.standard_normal(size),
                           rng.standard_normal(size - 1), rng.standard_normal(size)))
        zero = np.zeros(1)
        lower = np.concatenate([x for b in blocks for x in (b[0], zero)][:-1])
        upper = np.concatenate([x for b in blocks for x in (b[2], zero)][:-1])
        diagonal = np.concatenate([b[1] for b in blocks])
        rhs = np.concatenate([b[3] for b in blocks])
        *_, stacked, info = linalg._gtsv(lower, diagonal, upper, rhs)
        assert info == 0
        separate = []
        for dl, d, du, b in blocks:
            *_, x, info = linalg._gtsv(dl, d, du, b)
            assert info == 0
            separate.append(x)
        assert np.array_equal(stacked, np.concatenate(separate))
        # a block's first row swaps with its second where |d| < |dl|
        pivoted += sum(abs(d[0]) < abs(dl[0]) for dl, d, _, _ in blocks)
    assert pivoted > 100


def test_dct_inverse_commutes_with_reflections_bit_for_bit():
    # on even cell counts the DCT round trip commutes with reflecting the data
    # along either axis, bit for bit, so its roundoff cannot break a symmetry
    # of the data
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 12))
    solver = HelmholtzSolver(grid)
    solver._set_operator(1.0, 0.3, None)
    inverse = solver._inverse()
    r = np.random.default_rng(6).standard_normal(grid.shape)
    x = inverse(r, np.empty(grid.shape))
    assert np.array_equal(inverse(r[::-1], np.empty(grid.shape)), x[::-1])
    assert np.array_equal(inverse(r[:, ::-1], np.empty(grid.shape)), x[:, ::-1])
    assert np.array_equal(inverse(r[::-1, ::-1], np.empty(grid.shape)), x[::-1, ::-1])


@pytest.mark.parametrize("mode,kwargs,dtype", [
    (*ONE_AXIS_GRIDS[0], np.float64), (*ONE_AXIS_GRIDS[1], np.float64),
    ("cartesian-2d", dict(extents=(1.0, 1.0), cells=(16, 12)), np.float64),
    ("cartesian-2d", dict(extents=(1.0, 1.0), cells=(16, 12)), np.float32),
])
def test_every_inverse_writes_into_out_and_returns_it(mode, kwargs, dtype):
    # GMRES keeps its preconditioned basis in the arrays it hands the inverse
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    solver._set_operator(1.0, 0.3, None)
    inverse = solver._inverse(dtype)
    r = np.random.default_rng(13).standard_normal(grid.shape)
    out = np.full(grid.shape, np.nan)
    assert inverse(r, out) is out
    assert np.array_equal(out, inverse(r, np.empty(grid.shape)))


def float32_preconditioner(a_coef, cells=(64, 48)):
    # the GMRES preconditioner of a 2d transport solve: the DCT inverse of
    # a*I - d*L in float32, with the mean reset
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=cells)
    solver = HelmholtzSolver(grid)
    solver._set_operator(a_coef, 0.3, None)
    return grid, solver, solver._inverse(np.float32)


@pytest.mark.parametrize("a_coef", [1.0, 1.5])
def test_float32_preconditioner_keeps_the_mean_of_the_exact_inverse(a_coef):
    # the float32 round trip moves the mean by about 1e-7 relative; the mean
    # reset puts back mean(r) / a, the mean of the exact inverse, so a
    # zero-mean residual still gives zero-mean Krylov vectors
    grid, _, precond = float32_preconditioner(a_coef)
    r = np.random.default_rng(9).standard_normal(grid.shape) + 0.5
    z = precond(r, np.empty(grid.shape))
    assert z.dtype == np.float64
    target = integrate(grid, r) / grid.measure / a_coef
    assert abs(integrate(grid, z) / grid.measure - target) <= 1e-15 * abs(target)


def test_float32_preconditioner_keeps_point_symmetric_and_x_only_data_bit_for_bit():
    # the reflections of the data need not commute with the float32 path
    # (the float64 sums of reflected data round differently), but data
    # symmetric under (x, y) -> (1 - x, 1 - y), and data constant along y,
    # keep that form exactly
    grid, _, precond = float32_preconditioner(1.0)
    r = np.random.default_rng(10).uniform(0.0, 1.0, grid.shape)
    z = precond(r + r[::-1, ::-1], np.empty(grid.shape))
    assert np.array_equal(z, z[::-1, ::-1])
    z = precond(np.broadcast_to(r[:, :1], grid.shape), np.empty(grid.shape))
    assert np.array_equal(z, np.broadcast_to(z[:, :1], grid.shape))
    assert not np.array_equal(z[:, 0], np.full(grid.shape[0], z[0, 0]))


def test_float32_preconditioner_matches_the_float64_inverse():
    grid, solver, precond = float32_preconditioner(1.0)
    r = np.random.default_rng(11).standard_normal(grid.shape) + 0.5
    exact = solver._inverse()(r, np.empty(grid.shape))
    z = precond(r, np.empty(grid.shape))
    assert np.abs(z - exact).max() <= 1e-6 * np.abs(exact).max()


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
    mass = integrate(grid, rhs)
    assert abs(integrate(grid, x) - mass) <= 1e-14 * mass


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
    lhs = integrate(grid, x)
    ref = integrate(grid, rhs)
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
        mass = integrate(grid, u)
        worst = max(worst, abs(integrate(grid, x) - mass) / mass)
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


# -- the operator of a solve: built from face rates, kept for the next solve of
# the same coefficients, and computing no Laplacian


def same_solve(first, second):
    (x1, k1, r1), (x2, k2, r2) = first, second
    assert k1 == k2 and r1 == r2
    assert np.array_equal(x1.view(np.uint64), x2.view(np.uint64))


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_solve_from_returned_array_matches_fresh_copy(mode, kwargs, monkeypatch):
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(9)
    coeffs = random_coeffs(grid, 9)
    # one step's v-solve and u-solve, each repeated from what it returned,
    # with a new right-hand side and with the same; the repeated u-solve
    # reuses the operator of the solve before it
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
            cached = solver.solve(a_coef, 0.05, next_rhs, x0, coeffs=k)
            fresh = HelmholtzSolver(grid).solve(a_coef, 0.05, next_rhs, np.array(x0), coeffs=k)
            same_solve(cached, fresh)
            assert cached[1] >= 1
    # no solve computes a Laplacian: its operator reads its face rates
    assert calls == []


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_returned_arrays_are_the_callers(mode, kwargs):
    # the solver keeps no returned array: one written to in place solves as
    # a fresh copy of it does
    grid = build_grid(mode, **kwargs)
    solver = HelmholtzSolver(grid)
    rhs = np.random.default_rng(10).uniform(0.5, 1.5, size=grid.shape)
    x0 = np.zeros(grid.shape)
    x, _, _ = solver.solve(1.0, 0.1, rhs, x0)
    x *= 1.5
    x[(0,) * grid.n_axes] = 2.0
    same_solve(solver.solve(1.0, 0.1, rhs, x), HelmholtzSolver(grid).solve(1.0, 0.1, rhs, x.copy()))
    assert not np.any(x0)  # the caller's guess is left alone


def test_clamped_copy_solves_as_a_fresh_array(monkeypatch):
    # a solution with one slightly negative cell, clamped as the stepper does
    grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(8, 8))
    solver = HelmholtzSolver(grid)
    rhs = np.full(grid.shape, 1e-12)
    rhs[3, 4] = -3e-11
    x, _, _ = solver.solve(1.0, 1e-3, rhs, np.zeros(grid.shape))
    clamped, mass = _clamp_negative(x, grid.cell_weights, "u")
    assert mass > 0.0 and clamped is not x

    seen = count_laplacians(monkeypatch)
    for b, x0 in ((rhs, x), (clamped, clamped)):
        cached = solver.solve(1.0, 1e-3, b, x0)
        same_solve(cached, HelmholtzSolver(grid).solve(1.0, 1e-3, b, np.array(x0)))
        assert cached[1] >= 1
    assert seen == []


@pytest.mark.parametrize("mode,kwargs", ALL_GRIDS)
def test_reused_solver_matches_fresh_solvers_bit_for_bit(mode, kwargs):
    # a solver holds its work arrays for the run: over solves with changing
    # a, d and coefficients, with and without transport, each solve and each
    # apply equals that of a fresh solver bit for bit, and no array it
    # returned changes afterwards
    grid = build_grid(mode, **kwargs)
    rng = np.random.default_rng(31)
    solver = HelmholtzSolver(grid)
    returned = []
    for k, (a_coef, d_coef, transport) in enumerate(
            [(1.0, 0.05, True), (1.3, 0.2, False), (1.0, 1.0, True), (1.0, 0.01, True), (1.1, 2.0, False)]):
        coeffs = random_coeffs(grid, 40 + k, scale=1.0 + k) if transport else None
        rhs, x0 = rng.uniform(0.5, 1.5, (2, *grid.shape))
        result = solver.solve(a_coef, d_coef, rhs, x0, coeffs=coeffs)
        same_solve(result, HelmholtzSolver(grid).solve(a_coef, d_coef, rhs, x0, coeffs=coeffs))
        applied = solver.apply(a_coef, d_coef, result[0], coeffs)
        assert np.array_equal(applied, HelmholtzSolver(grid).apply(a_coef, d_coef, result[0], coeffs))
        returned += [(result[0], result[0].copy()), (applied, applied.copy())]
    for array, snapshot in returned:
        assert np.array_equal(array.view(np.uint64), snapshot.view(np.uint64))


def test_solvers_on_grids_that_take_dropped_grids_ids_match_fresh_ones():
    # work arrays cached by id(grid) fail here.  CPython hands the ids of
    # dropped objects to new ones, so grids built just after a batch of grids
    # of another size and their solvers are dropped take the dropped grids'
    # ids: 64², then 128², then 64² again
    def solve(grid):
        solver = HelmholtzSolver(grid)
        rhs = np.random.default_rng(grid.shape[0]).uniform(0.5, 1.5, grid.shape)
        return (solver.solve(1.1, 0.05, rhs, rhs),
                solver.solve(1.0, 0.05, rhs, rhs, coeffs=random_coeffs(grid, grid.shape[0])))

    fields, fresh = {}, {}
    for cells in (64, 128):
        grid = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(cells, cells))
        fields[cells] = [getattr(grid, f.name) for f in dataclasses.fields(grid)]
        fresh[cells] = solve(grid)
    dropped, taken = set(), 0
    for cells in (64, 128, 64):
        grids = [Grid(*fields[cells]) for _ in range(4)]
        for grid in grids:
            if not dropped or id(grid) in dropped:
                taken += bool(dropped)
                for result, reference in zip(solve(grid), fresh[cells]):
                    same_solve(result, reference)
        dropped = {id(grid) for grid in grids}
        del grids, grid
    assert taken, "no grid took a dropped grid's id: the hazard went unexercised"


# two 2d runs whose transport goes through GMRES and a radial run through
# gtsv; the 128x128 run's 16,384 cells are above the roughly 10,000 elements
# at which OpenBLAS's x86-64 dot kernel starts threads, so a BLAS reduction in
# the 2d inner product would show; prints one digest per run of its records
# CSV and final u and v bytes
_THREAD_PROBE = """
import hashlib
from fluxks.functionals import records_to_csv
from fluxks.grid import unit_grid
from fluxks.model import ModelParams, build_initial_data
from fluxks.stepper import StepControls, simulate

for n, cells, chi, t_end in ((2, 32, 5.0, 0.2), (2, 128, 5.0, 0.02), (3, 64, 2.0, 0.2)):
    init = build_initial_data(unit_grid(n, cells), family="gaussian", base=1.0, amplitude=2.0,
                              v0_kind="u0_pow_theta", theta=2.0)
    res = simulate(init, ModelParams(chi=chi, p=1.5, theta=2.0, eps=1e-3, n=n),
                   StepControls(t_end=t_end, dt_max=0.01), record_every=1)
    assert res.status.value == "Completed", res.message
    digest = hashlib.sha256(records_to_csv(res.records).encode())
    digest.update(res.final_state.u.tobytes())
    digest.update(res.final_state.v.tobytes())
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
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
