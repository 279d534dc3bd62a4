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

from fluxks.grid import (
    MIN_CELLS_PER_AXIS,
    Grid,
    GridFunction,
    VectorGridFunction,
    build_grid,
    divergence,
    divergence_values,
    face_quadrature_weights,
    gradient,
    gradient_faces,
    gradient_lp_norm,
    inner,
    integrate,
    laplacian,
    laplacian_values,
    lp_norm,
    measured_gradient_faces,
)


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


def test_min_cells_constant_is_enforced():
    build_grid("cartesian-1d", extents=(1.0,), cells=(MIN_CELLS_PER_AXIS,))
    with pytest.raises(ValueError):
        build_grid("cartesian-1d", extents=(1.0,), cells=(MIN_CELLS_PER_AXIS - 1,))


# ---------------------------------------------------------- grid functions


def test_gridfunction_rejects_nonfinite(grid1d):
    g = grid1d(8)
    vals = np.ones(8)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        GridFunction(g, vals)


def test_gridfunction_rejects_shape_mismatch(grid1d):
    g = grid1d(8)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(9))


def test_from_callable_samples_centers(grid1d):
    g = grid1d(10)
    f = GridFunction.from_callable(g, lambda x: 2.0 * x)
    np.testing.assert_allclose(f.values, 2.0 * g.axis_centers(0))


def test_vector_gridfunction_requires_zero_boundary(grid1d):
    g = grid1d(8)
    faces = [np.ones(9)]
    with pytest.raises(ValueError):
        VectorGridFunction(g, faces)
    faces[0][0] = 0.0
    faces[0][-1] = 0.0
    VectorGridFunction(g, faces)  # interior values are free


# ------------------------------------------------------------- quadrature


def test_integrate_constant_is_measure(grid2d):
    g = grid2d(8, lx=2.0, ly=1.5)
    assert abs(integrate(GridFunction.constant(g, 1.0)) - 3.0) < 1e-12


def test_integrate_sin_squared_midpoint_exact(grid1d):
    # midpoint rule on a full period: int sin^2(pi x) dx = 1/2 exactly
    g = grid1d(37)
    f = GridFunction.from_callable(g, lambda x: np.sin(math.pi * x) ** 2)
    assert abs(integrate(f) - 0.5) < 1e-14


def test_inner_is_weighted_dot(grid1d):
    g = grid1d(16)
    f = GridFunction.from_callable(g, lambda x: x)
    h = GridFunction.from_callable(g, lambda x: 1.0 - x)
    brute = float(np.sum(f.values * h.values * g.cell_weights))
    assert abs(inner(f, h) - brute) < 1e-15


def test_lp_norm_constant_and_sup(grid1d):
    g = grid1d(20)
    f = GridFunction.constant(g, 2.0)
    # ||2||_3 on unit measure = 2
    assert abs(lp_norm(f, 3.0) - 2.0) < 1e-12
    vals = np.ones(20)
    vals[7] = 7.0
    assert lp_norm(GridFunction(g, vals), math.inf) == 7.0


def test_lp_norm_rejects_p_below_one(grid1d):
    with pytest.raises(ValueError):
        lp_norm(GridFunction.constant(grid1d(8), 1.0), 0.5)


def test_holder_interpolation_on_random_fields(grid1d):
    # ||f||_1 <= |Omega|^(1 - 1/p) ||f||_p, midpoint quadrature keeps it
    g = grid1d(50)
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 4.0):
        for _ in range(5):
            f = GridFunction(g, rng.uniform(0.0, 3.0, size=50))
            lhs = lp_norm(f, 1.0)
            rhs = g.measure ** (1.0 - 1.0 / p) * lp_norm(f, p)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_face_quadrature_weights_sum_to_measure(grid2d):
    # face trapezoid weights (half cells at the boundary) tile the domain
    g = grid2d(12)
    for a in range(2):
        assert abs(face_quadrature_weights(g, a).sum() - g.measure) < 1e-12


# -------------------------------------------------------------- operators


def test_gradient_of_constant_vanishes(grid2d):
    g = grid2d(8)
    vf = gradient(GridFunction.constant(g, 3.7))
    for a in range(2):
        np.testing.assert_allclose(vf.faces[a], 0.0)


def test_gradient_of_linear_is_exact_inside(grid1d):
    g = grid1d(32)
    vf = gradient(GridFunction.from_callable(g, lambda x: x))
    inside = vf.faces[0][1:-1]
    np.testing.assert_allclose(inside, 1.0, atol=1e-13)
    # Neumann faces carry zero flux by construction
    assert vf.faces[0][0] == 0.0
    assert vf.faces[0][-1] == 0.0


def test_measured_gradient_copies_interior_to_boundary(grid1d):
    g = grid1d(16)
    f = GridFunction.from_callable(g, lambda x: x)
    meas = measured_gradient_faces(g, f.values)[0]
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
        f = GridFunction.from_callable(g, lambda x: np.cos(math.pi * x))
        errs.append(abs(gradient_lp_norm(f, 2.0) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_laplacian_eigenvector_exact_1d():
    # cos(k pi x) at centers is an exact discrete eigenvector:
    # L f = (2/h^2)(cos(k pi h) - 1) f
    cells, k = 64, 3
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    f = GridFunction.from_callable(g, lambda x: np.cos(k * math.pi * x))
    h = g.spacing[0]
    lam = 2.0 / h**2 * (math.cos(k * math.pi * h) - 1.0)
    np.testing.assert_allclose(laplacian(f).values, lam * f.values, atol=1e-9)


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
    f = GridFunction(g, np.cos(math.pi * X) * np.cos(2.0 * math.pi * Y))
    hx, hy = g.spacing
    lam = (2.0 / hx**2) * (math.cos(math.pi * hx) - 1.0) + (2.0 / hy**2) * (
        math.cos(2.0 * math.pi * hy) - 1.0
    )
    np.testing.assert_allclose(laplacian(f).values, lam * f.values, atol=1e-8)


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
        f = GridFunction.from_callable(g, lambda r: r**2)
        lap = laplacian(f).values
        h = g.spacing[0]
        r = g.axis_centers(0)
        # boundary cell loses its outward flux (Neumann wall), skip it
        np.testing.assert_allclose(lap[:-1], formula(r, h)[:-1], rtol=1e-11)


def test_divergence_of_gradient_is_laplacian(grid1d, grid2d):
    rng = np.random.default_rng(3)
    for g in (grid1d(40), grid2d(12)):
        f = GridFunction(g, rng.standard_normal(g.shape))
        via_ops = divergence(gradient(f)).values
        direct = laplacian_values(g, f.values)
        np.testing.assert_allclose(via_ops, direct, rtol=0.0, atol=1e-14)


def test_divergence_rejects_nonzero_boundary_flux(grid1d):
    g = grid1d(8)
    vf = VectorGridFunction(g, (np.zeros(9),))
    # sneak a boundary flux past the constructor; divergence re-checks
    vf.faces[0][0] = 1.0
    with pytest.raises(ValueError):
        divergence(vf)


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
        f = GridFunction(g, rng.uniform(0.5, 2.0, size=g.shape))
        assert abs(integrate(laplacian(f))) < 1e-12


def test_laplacian_self_adjoint():
    # <L f, g> = <f, L g> in the cell-weighted inner product
    for g in (
        build_grid("cartesian-1d", extents=(1.0,), cells=(48,)),
        build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(12, 12)),
        build_grid("radial-n", extents=(1.0,), cells=(48,), n=3),
    ):
        rng = np.random.default_rng(9)
        f = GridFunction(g, rng.standard_normal(g.shape))
        w = GridFunction(g, rng.standard_normal(g.shape))
        a = inner(laplacian(f), w)
        b = inner(f, laplacian(w))
        scale = max(abs(a), abs(b), 1.0)
        assert abs(a - b) / scale < 1e-12
