"""Grid geometry, quadrature, and discrete operators.

Oracles: closed-form measures and eigenpairs of the Neumann Laplacian.
On [0,1] with uniform cells, cos(k pi x) is an exact eigenvector of the
discrete operator with eigenvalue (2/h^2)(cos(k pi h) - 1); the midpoint
rule integrates sin^2(pi x) exactly because its mean over a period is
resolved without error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from test_functionals import face_density

from fluxks.grid import (
    FACE_AVERAGE_FLOOR,
    MIN_CELLS_PER_AXIS,
    FieldNorms,
    Grid,
    build_grid,
    divergence_values,
    gradient_faces,
    integrate,
    laplacian_values,
)
from fluxks.model import InitialData


# ---------------------------------------------------------------- geometry


def test_1d_geometry_exact():
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(100,))
    assert g.spacing == (0.01,)
    assert g.shape == (100,)
    assert g.n == 1
    np.testing.assert_allclose(g.cell_weights, 0.01)
    assert abs(g.measure - 1.0) < 1e-14
    # centers at (i + 1/2) h
    assert abs(g.axis_centers(0)[0] - 0.005) < 1e-15
    assert abs(g.axis_centers(0)[-1] - 0.995) < 1e-15


def test_2d_geometry_exact():
    g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(32, 32))
    assert g.cell_weights.shape == (32, 32)
    np.testing.assert_allclose(g.cell_weights, 1.0 / 1024.0)
    assert abs(g.measure - 1.0) < 1e-14


def test_2d_rectangle_measure():
    g = build_grid("cartesian-2d", extents=(2.0, 3.0), cells=(16, 24))
    assert abs(g.measure - 6.0) < 1e-12
    assert abs(g.spacing[0] - 0.125) < 1e-15
    assert abs(g.spacing[1] - 0.125) < 1e-15


def test_radial_measure_converges_to_ball_volume():
    # composite midpoint on r^2: volume defect is 4 pi h^2 / 12 to leading order
    vol3 = 4.0 * math.pi / 3.0
    g = build_grid("radial-n", extents=(1.0,), cells=(100,), n=3)
    defect = abs(g.measure - vol3)
    predicted = 4.0 * math.pi * g.spacing[0] ** 2 / 12.0
    assert defect == pytest.approx(predicted, rel=1e-3)
    g2 = build_grid("radial-n", extents=(1.0,), cells=(200,), n=3)
    # quadratic convergence of the defect
    assert abs(g2.measure - vol3) == pytest.approx(defect / 4.0, rel=1e-2)


def test_radial_face_areas_match_sphere_surface():
    g = build_grid("radial-n", extents=(1.0,), cells=(50,), n=3)
    # outermost face sits at r = 1: area must equal 4 pi exactly
    assert abs(g.face_areas[0][-1] - 4.0 * math.pi) < 1e-12
    # innermost face at r = 0 has zero area
    assert g.face_areas[0][0] == 0.0


def test_radial_n1_is_symmetric_interval():
    # the 1-ball of radius 1 is [-1, 1]: surface factor 2, measure 2
    g = build_grid("radial-n", extents=(1.0,), cells=(64,), n=1)
    np.testing.assert_allclose(g.cell_weights, 2.0 / 64.0)
    assert abs(g.measure - 2.0) < 1e-12


def test_grid_describe_roundtrips_geometry():
    g = build_grid("cartesian-2d", extents=(1.0, 2.0), cells=(8, 16))
    d = g.describe()
    assert d["mode"] == "cartesian-2d"
    assert d["shape"] == [8, 16]
    assert d["extents"] == [1.0, 2.0]
    assert abs(d["measure"] - 2.0) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="cartesian-1d", extents=(1.0,), cells=(3,)),
        dict(mode="cartesian-1d", extents=(0.0,), cells=(8,)),
        dict(mode="cartesian-1d", extents=(-1.0,), cells=(8,)),
        dict(mode="cartesian-2d", extents=(1.0,), cells=(8, 8)),
        dict(mode="radial-n", extents=(1.0,), cells=(8,), n=0),
        dict(mode="nonsense", extents=(1.0,), cells=(8,)),
    ],
)
def test_build_grid_rejects_bad_geometry(kwargs):
    mode = kwargs.pop("mode")
    with pytest.raises(ValueError):
        build_grid(mode, **kwargs)


@pytest.mark.parametrize("n", [125, 400])
def test_build_grid_rejects_radial_weights_outside_the_float_range(n):
    # at n = 125 the innermost of 256 cell weights underflows to 0; at
    # n = 400 the unit-sphere surface overflows
    with pytest.raises(ValueError, match="grid.n = %d" % n):
        build_grid("radial-n", extents=(1.0,), cells=(256,), n=n)
    build_grid("radial-n", extents=(1.0,), cells=(256,), n=99)


@pytest.mark.parametrize("mode,extents,cells,n", [
    ("cartesian-1d", (1.0,), (8,), None),
    ("cartesian-2d", (1.0, 2.0), (8, 6), None),
    ("radial-n", (1.0,), (8,), 3),
])
def test_equal_grids_compare_and_hash_equal(mode, extents, cells, n):
    g1 = build_grid(mode, extents=extents, cells=cells, n=n)
    g2 = build_grid(mode, extents=extents, cells=cells, n=n)
    assert g1 is not g2
    assert g1 == g2 and not g1 != g2
    assert hash(g1) == hash(g2)
    assert len({g1, g2}) == 1
    finer = build_grid(mode, extents=extents, cells=tuple(2 * c for c in cells), n=n)
    assert g1 != finer


def test_initial_data_on_equal_grids_is_accepted():
    # fields shaped for an equal grid are accepted; a field of another grid is not
    g1 = build_grid("cartesian-1d", extents=(1.0,), cells=(8,))
    g2 = build_grid("cartesian-1d", extents=(1.0,), cells=(8,))
    data = InitialData(g1, np.full(g2.shape, 1.0), np.full(g2.shape, 2.0))
    assert data.grid == g2
    g16 = build_grid("cartesian-1d", extents=(1.0,), cells=(16,))
    with pytest.raises(ValueError, match="v0 shape"):
        InitialData(g1, np.full(g1.shape, 1.0), np.full(g16.shape, 2.0))


@pytest.mark.parametrize("mode,extents,cells,n", [
    ("cartesian-1d", (1.0,), (8,), None),
    ("cartesian-2d", (1.0, 1.0), (8, 8), None),
    ("radial-n", (1.0,), (8,), 3),
])
def test_grid_arrays_are_read_only(mode, extents, cells, n):
    g = build_grid(mode, extents=extents, cells=cells, n=n)
    with pytest.raises(ValueError, match="read-only"):
        g.cell_weights[0] = 0.0
    for areas in g.face_areas:
        with pytest.raises(ValueError, match="read-only"):
            areas[0] = 1.0


def test_min_cells_constant_is_enforced():
    build_grid("cartesian-1d", extents=(1.0,), cells=(MIN_CELLS_PER_AXIS,))
    with pytest.raises(ValueError):
        build_grid("cartesian-1d", extents=(1.0,), cells=(MIN_CELLS_PER_AXIS - 1,))


# ------------------------------------------------------------------ fields


def test_initial_data_rejects_nonfinite(grid1d):
    # fields enter a run through InitialData, which checks each one
    g = grid1d(8)
    ok = np.ones(8)
    vals = np.ones(8)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="u0 must be finite"):
        InitialData(g, vals, ok)
    vals[3] = np.inf
    with pytest.raises(ValueError, match="v0 must be finite"):
        InitialData(g, ok, vals)


def test_initial_data_rejects_shape_mismatch(grid1d):
    g = grid1d(8)
    with pytest.raises(ValueError, match="u0 shape"):
        InitialData(g, np.ones(9), np.ones(8))
    with pytest.raises(ValueError, match="v0 shape"):
        InitialData(g, np.ones(8), np.ones((8, 1)))


def test_field_norms_reject_shape_mismatch(grid1d):
    # an (N, 1) field would broadcast silently against the (N,) cell weights
    g = grid1d(8)
    for bad in (np.ones(9), np.ones((8, 1))):
        with pytest.raises(ValueError, match="does not match grid"):
            FieldNorms(g, bad)


def test_center_mesh_samples_centers(grid1d):
    g = grid1d(10)
    (x,) = g.center_mesh()
    np.testing.assert_allclose(2.0 * x, 2.0 * g.axis_centers(0))


# ------------------------------------------------------------- quadrature


def test_integrate_constant_is_measure(grid2d):
    g = grid2d(8, lx=2.0, ly=1.5)
    assert abs(integrate(g, np.full(g.shape, 1.0)) - 3.0) < 1e-12


def test_integrate_sin_squared_midpoint_exact(grid1d):
    # midpoint rule on a full period: int sin^2(pi x) dx = 1/2 exactly
    g = grid1d(37)
    (x,) = g.center_mesh()
    assert abs(integrate(g, np.sin(math.pi * x) ** 2) - 0.5) < 1e-14


def test_lp_norm_constant_and_sup(grid1d):
    g = grid1d(20)
    # ||2||_3 on unit measure = 2
    assert abs(FieldNorms(g, np.full(g.shape, 2.0)).lp(3.0) - 2.0) < 1e-12
    vals = np.ones(20)
    vals[7] = 7.0
    assert FieldNorms(g, vals).lp(math.inf) == 7.0


def test_field_norms_reject_indices_outside_their_range(grid1d):
    # Lebesgue indices in (0, 1) are quasi-norms and admitted; gradient
    # indices start at 1, and an integral needs a finite index
    norms = FieldNorms(grid1d(8), np.full(8, 2.0))
    assert norms.lp(0.5) == pytest.approx(2.0, rel=1e-15)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            norms.integral(bad)
    with pytest.raises(ValueError, match="positive and finite"):
        norms.lp(0.0)
    for bad in (0.5, math.inf):
        with pytest.raises(ValueError, match=">= 1"):
            norms.grad_integral(bad)
    with pytest.raises(ValueError, match=">= 1"):
        norms.grad_lp(0.5)


def test_holder_interpolation_on_random_fields(grid1d):
    # ||f||_1 <= |Omega|^(1 - 1/p) ||f||_p, midpoint quadrature keeps it
    g = grid1d(50)
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 4.0):
        for _ in range(5):
            norms = FieldNorms(g, rng.uniform(0.0, 3.0, size=50))
            lhs = norms.lp(1.0)
            rhs = g.measure ** (1.0 - 1.0 / p) * norms.lp(p)
            assert lhs <= rhs * (1.0 + 1e-12)


_MODE_GRIDS = {
    "cartesian-1d": lambda cells, n: build_grid("cartesian-1d", 1.0, cells),
    "cartesian-2d": lambda cells, n: build_grid("cartesian-2d", (1.0, 0.7), (cells, cells + 3)),
    "radial-n": lambda cells, n: build_grid("radial-n", 1.0, cells, n=n),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    mode=hs.sampled_from(sorted(_MODE_GRIDS)),
    cells=hs.integers(4, 24),
    n=hs.integers(1, 5),
    scale=hs.floats(1e-3, 1e3),
    seed=hs.integers(0, 2**16),
    p=hs.floats(0.5, 8.0, exclude_min=True, exclude_max=True),
    zeros=hs.floats(0.0, 0.5),
)
@example(mode="cartesian-2d", cells=5, n=2, scale=1.0, seed=0, p=2.0, zeros=0.0)  # f * f
@example(mode="radial-n", cells=9, n=3, scale=1.0, seed=1, p=0.7, zeros=0.5)  # the floor
def test_field_norms_match_the_direct_sums(mode, cells, n, scale, seed, p, zeros):
    # integral and lp are sum |f|^p w and its root, grad_integral the face
    # sum of |g|^p w_face, whatever route (f * f or exp(p log |f|)) they take;
    # dissipation_integral(p) is the face sum of dens^(p-2) g^2 w_face, dens
    # the floored mean of the cells beside each face.  A share `zeros` of the
    # cells is 0, where log |f| is -inf and, with the negative cells, the
    # floor acts.
    grid = _MODE_GRIDS[mode](cells, n)
    rng = np.random.default_rng(seed)
    values = scale * rng.normal(size=grid.shape)
    values[rng.random(grid.shape) < zeros] = 0.0
    norms = FieldNorms(grid, values)
    direct = float(np.sum(np.abs(values) ** p * grid.cell_weights))
    assert norms.integral(p) == pytest.approx(direct, rel=1e-13, abs=0.0)
    assert norms.lp(p) == pytest.approx(direct ** (1.0 / p), rel=1e-13, abs=0.0)
    if p >= 1.0:
        direct = sum(float(np.sum(np.abs(g) ** p * fw))
                     for g, fw in zip(norms.faces, grid.face_weights))
        assert norms.grad_integral(p) == pytest.approx(direct, rel=1e-13, abs=0.0)
    direct = 0.0
    for axis, (g, fw) in enumerate(zip(norms.faces, grid.face_weights)):
        dens = np.maximum(face_density(values, axis), FACE_AVERAGE_FLOOR)
        direct += float(np.sum(dens ** (p - 2.0) * g**2 * fw))
    assert norms.dissipation_integral(p) == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_face_quadrature_weights_sum_to_measure():
    # face trapezoid weights (half cells at the boundary) tile the domain
    for g in (build_grid("cartesian-1d", 1.0, 12),
              build_grid("cartesian-2d", (1.0, 0.7), (12, 9)),
              build_grid("radial-n", 1.0, 12, n=3)):
        assert len(g.face_weights) == g.n_axes
        for fw in g.face_weights:
            assert abs(fw.sum() - g.measure) < 1e-12 * g.measure


# -------------------------------------------------------------- operators


def test_gradient_of_constant_vanishes(grid2d):
    g = grid2d(8)
    faces = gradient_faces(g, np.full(g.shape, 3.7))
    for a in range(2):
        np.testing.assert_allclose(faces[a], 0.0)


def test_gradient_of_linear_is_exact_inside(grid1d):
    g = grid1d(32)
    grad = gradient_faces(g, g.axis_centers(0))[0]
    np.testing.assert_allclose(grad[1:-1], 1.0, atol=1e-13)
    # Neumann faces carry zero flux by construction
    assert grad[0] == 0.0
    assert grad[-1] == 0.0


def test_measured_gradient_copies_interior_to_boundary(grid1d):
    g = grid1d(16)
    (x,) = g.center_mesh()
    meas = FieldNorms(g, x).faces[0]
    # measurement estimate keeps the nearest interior slope at the wall
    assert abs(meas[0] - meas[1]) < 1e-13
    assert abs(meas[-1] - meas[-2]) < 1e-13
    np.testing.assert_allclose(meas[1:-1], 1.0, atol=1e-13)


def test_gradient_lp_norm_converges_quadratically():
    # || grad cos(pi x) ||_2^2 = pi^2 / 2 on [0, 1]
    exact = math.pi / math.sqrt(2.0)
    errs = []
    for cells in (100, 200, 400):
        g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
        (x,) = g.center_mesh()
        errs.append(abs(FieldNorms(g, np.cos(math.pi * x)).grad_lp(2.0) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize(
    "grid",
    [
        build_grid("cartesian-1d", extents=(1.0,), cells=(37,)),
        build_grid("cartesian-2d", extents=(2.0, 0.5), cells=(12, 9)),
        build_grid("radial-n", extents=(1.0,), cells=(41,), n=3),
    ],
    ids=["1d", "2d", "radial-3"],
)
def test_faces_lp_norm_l2_path_is_the_abs_power_sum_bit_for_bit(grid):
    # p = 2 squares with g * g; |g| ** 2 is the same double
    values = np.random.default_rng(8).normal(size=grid.shape)
    norms = FieldNorms(grid, values)
    total = 0.0
    for g, fw in zip(norms.faces, grid.face_weights):
        total += float(np.sum(np.abs(g) ** 2 * fw))
    assert norms.grad_integral(2.0) == total
    assert norms.grad_lp(2.0) == total ** 0.5


def test_laplacian_eigenvector_exact_1d():
    # cos(k pi x) at centers is an exact discrete eigenvector:
    # L f = (2/h^2)(cos(k pi h) - 1) f
    cells, k = 64, 3
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    (x,) = g.center_mesh()
    f = np.cos(k * math.pi * x)
    h = g.spacing[0]
    lam = 2.0 / h**2 * (math.cos(k * math.pi * h) - 1.0)
    np.testing.assert_allclose(laplacian_values(g, f), lam * f, atol=1e-9)


def test_laplacian_eigenvalue_order_two():
    # discrete eigenvalue approaches -(k pi)^2 at second order
    k = 2
    errs = []
    for cells in (32, 64, 128):
        h = 1.0 / cells
        lam = 2.0 / h**2 * (math.cos(k * math.pi * h) - 1.0)
        errs.append(abs(lam + (k * math.pi) ** 2))
    order01 = math.log2(errs[0] / errs[1])
    order12 = math.log2(errs[1] / errs[2])
    assert 1.8 <= order01 <= 2.2
    assert 1.8 <= order12 <= 2.2


def test_laplacian_2d_separable_field():
    # f = cos(pi x) cos(2 pi y): tensor eigenvector of the 2d stencil
    g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(48, 48))
    X, Y = g.center_mesh()
    f = np.cos(math.pi * X) * np.cos(2.0 * math.pi * Y)
    hx, hy = g.spacing
    lam = (2.0 / hx**2) * (math.cos(math.pi * hx) - 1.0) + (2.0 / hy**2) * (
        math.cos(2.0 * math.pi * hy) - 1.0
    )
    np.testing.assert_allclose(laplacian_values(g, f), lam * f, atol=1e-8)


def test_radial_laplacian_of_r_squared_closed_form():
    # Lap r^2 = 2n in R^n.  The face gradients of r^2 are exact (2 r_f), so
    # the stencil value per cell follows from expanding the face-area powers:
    #   n=2: 4 exactly;  n=3: 6 + h^2/(2 r^2);  n=5: 10 + 5h^2/r^2 + h^4/(8 r^4)
    for n, formula in (
        (2, lambda r, h: 4.0 + 0.0 * r),
        (3, lambda r, h: 6.0 + h**2 / (2.0 * r**2)),
        (5, lambda r, h: 10.0 + 5.0 * h**2 / r**2 + h**4 / (8.0 * r**4)),
    ):
        g = build_grid("radial-n", extents=(1.0,), cells=(200,), n=n)
        (r,) = g.center_mesh()
        lap = laplacian_values(g, r**2)
        h = g.spacing[0]
        r = g.axis_centers(0)
        # boundary cell loses its outward flux (Neumann wall), skip it
        np.testing.assert_allclose(lap[:-1], formula(r, h)[:-1], rtol=1e-11)


def test_divergence_of_gradient_is_laplacian(grid1d, grid2d):
    # the flux-form kernel of laplacian_values does the arithmetic of
    # divergence_values(gradient_faces(.)) in the same order, or multiplies
    # where a scaling is an exact power of two (the unit grids with 2^k cells),
    # so the two agree bit for bit
    rng = np.random.default_rng(3)
    radial = build_grid("radial-n", extents=(1.0,), cells=(24,), n=3)
    exact = (grid1d(32), grid2d(16), build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 8)),
             build_grid("radial-n", extents=(1.0,), cells=(32,), n=3))
    for g in (grid1d(40), grid2d(12), radial, *exact):
        values = rng.standard_normal(g.shape)
        composed = divergence_values(g, gradient_faces(g, values))
        direct = laplacian_values(g, values)
        np.testing.assert_allclose(composed, direct, rtol=0.0, atol=1e-14)
        assert np.array_equal(composed, direct)


def test_laplacian_returns_a_fresh_array_on_each_call(grid1d, grid2d):
    # FieldNorms.lap_integral squares the result in place, so a result held
    # from one call must keep its bits through the next
    rng = np.random.default_rng(5)
    radial = build_grid("radial-n", extents=(1.0,), cells=(24,), n=3)
    for g in (grid1d(40), grid2d(12), radial):
        first = laplacian_values(g, rng.standard_normal(g.shape))
        kept = first.copy()
        second = laplacian_values(g, rng.standard_normal(g.shape))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)


def test_laplacian_ignores_the_pairs_that_straddle_a_2d_row_end():
    # the flat kernel differences the last cell of each row against the first
    # of the next, across no face; with rows of 1.5e308 * (-1, -1/3, 1/3, 1)
    # that difference overflows, and it must not turn inf * 0 into NaN
    g = build_grid("cartesian-2d", extents=(1000.0, 1000.0), cells=(4, 4))
    values = np.tile(1.5e308 * np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0]), (4, 1))
    composed = divergence_values(g, gradient_faces(g, values))
    with np.errstate(over="ignore"):  # the discarded straddle difference
        direct = laplacian_values(g, values)
    assert np.all(np.isfinite(direct))
    assert np.array_equal(direct, composed)
    assert composed[0, -1] == pytest.approx(-1.6e303, rel=0.01)


def test_conservativity_all_modes():
    # integral of div(flux) vanishes when boundary faces carry no flux
    grids = [
        build_grid("cartesian-1d", extents=(1.0,), cells=(50,)),
        build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(20, 20)),
        build_grid("radial-n", extents=(1.0,), cells=(50,), n=3),
    ]
    rng = np.random.default_rng(11)
    for g in grids:
        faces = []
        for a in range(g.n_axes):
            arr = rng.standard_normal(g.face_shape(a))
            arr[(slice(None),) * a + (0,)] = 0.0
            arr[(slice(None),) * a + (-1,)] = 0.0
            faces.append(arr)
        f = divergence_values(g, faces)
        total = float(np.sum(f * g.cell_weights))
        assert abs(total) < 1e-12


def test_laplacian_mass_neutral():
    # integral of L f = 0 cell-exactly (telescoping fluxes)
    for g in (
        build_grid("cartesian-1d", extents=(1.0,), cells=(64,)),
        build_grid("radial-n", extents=(1.0,), cells=(64,), n=4),
    ):
        rng = np.random.default_rng(5)
        f = rng.uniform(0.5, 2.0, size=g.shape)
        assert abs(integrate(g, laplacian_values(g, f))) < 1e-12


def test_laplacian_self_adjoint():
    # <L f, g> = <f, L g> in the cell-weighted inner product
    for g in (
        build_grid("cartesian-1d", extents=(1.0,), cells=(48,)),
        build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(12, 12)),
        build_grid("radial-n", extents=(1.0,), cells=(48,), n=3),
    ):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.shape)
        a = float(np.sum(laplacian_values(g, f) * w * g.cell_weights))
        b = float(np.sum(f * laplacian_values(g, w) * g.cell_weights))
        scale = max(abs(a), abs(b), 1.0)
        assert abs(a - b) / scale < 1e-12
