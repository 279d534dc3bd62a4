"""Model terms: parameter validation, flux law, production, mollifier.

Hand oracles: with v = 3x + 4y and u = 1 the limit flux components are
(3, 4)/sqrt(5) for p = 1.5; one Fourier mode passes through the mollifier
with the analytic per-pass damping 1 - eps*scale*(1 - cos(k pi h)).
"""

import math

import numpy as np
import pytest

from fluxks.grid import (
    FieldNorms,
    GridFunction,
    build_grid,
    divergence_values,
    gradient_faces,
    integrate,
    unit_grid,
)
from fluxks.model import (
    MOLLIFIER_KERNEL_SCALE,
    MOLLIFIER_PASSES,
    InitialData,
    ModelParams,
    build_initial_data,
    face_gradient_magnitude_sq,
    flux_coefficients,
    mollify_initial_data,
    production,
)
from test_kernels import ref_upwind_flux


def upwind_flux(grid, u_values, coeffs):
    # the upwind face flux coeff * u_upwind of the kernel reference
    return ref_upwind_flux(grid, u_values, coeffs)[0]


def flux(u, grad_v, params):
    # the upwind chemotactic face flux chi * u * (|grad v|^2 + eps)^((p-2)/2) * grad v
    return upwind_flux(u.grid, u.values, flux_coefficients(u.grid, grad_v, params))


def params_with(**kw):
    base = dict(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    base.update(kw)
    return ModelParams(**base)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(chi=-0.5), "chi"),
        (dict(p=1.0), "p > 1 required"),
        (dict(p=0.9), "p > 1 required"),
        (dict(theta=0.0), "theta"),
        (dict(eps=1.0), "eps"),
        (dict(eps=-0.1), "eps"),
        (dict(n=0), "n"),
        (dict(n=1.5), "n"),
    ],
)
def test_model_params_validation(kw, msg):
    with pytest.raises(ValueError, match=msg):
        params_with(**kw)


def test_model_params_chi_zero_allowed():
    assert params_with(chi=0.0).chi == 0.0


def test_initial_data_validation(grid1d):
    g = grid1d(8)
    ok = GridFunction.constant(g, 1.0)
    neg = GridFunction(g, np.full(8, -0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        InitialData(u0=neg, v0=ok)
    with pytest.raises(ValueError, match="nonnegative"):
        InitialData(u0=ok, v0=neg)
    with pytest.raises(ValueError, match="mass"):
        InitialData(u0=GridFunction.constant(g, 0.0), v0=ok)


# ------------------------------------------------------------- production


def test_production_values(grid1d):
    g = grid1d(8)
    one = GridFunction.constant(g, 1.0)
    np.testing.assert_allclose(production(one, params_with(theta=3.7)).values, 1.0)
    four = GridFunction.constant(g, 4.0)
    np.testing.assert_allclose(production(four, params_with(theta=1.5)).values, 8.0)


def test_production_theta_two_is_square(grid1d):
    g = grid1d(16)
    rng = np.random.default_rng(0)
    u = GridFunction(g, rng.uniform(0.0, 2.0, size=16))
    np.testing.assert_allclose(
        production(u, params_with(theta=2.0)).values, u.values**2, rtol=1e-15
    )


# ------------------------------------------------------------------- flux


def test_flux_zero_signal_gradient(grid1d):
    g = grid1d(16)
    u = GridFunction.constant(g, 5.0)
    v = GridFunction.constant(g, 1.0)
    for eps in (0.0, 1e-3):
        fl = flux(u, gradient_faces(g, v.values), params_with(eps=eps))
        np.testing.assert_allclose(fl[0], 0.0)


def test_flux_p2_is_classical_and_eps_free(grid1d):
    # p = 2: coefficient (m + eps)^0 = 1, so flux = chi * u_up * grad v
    g = grid1d(32)
    u = GridFunction.from_callable(g, lambda x: 1.0 + x)
    v = GridFunction.from_callable(g, lambda x: x * (1.0 - x))
    gv = gradient_faces(g, v.values)
    f0 = flux(u, gv, params_with(p=2.0, eps=0.0))
    f1 = flux(u, gv, params_with(p=2.0, eps=0.5))
    np.testing.assert_allclose(f0[0], f1[0], rtol=0.0, atol=0.0)
    # against the upwind hand formula
    coeff = gv[0][1:-1]
    up = np.where(coeff > 0.0, u.values[:-1], u.values[1:])
    np.testing.assert_allclose(f0[0][1:-1], coeff * up, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_upwind_outflow_rate_is_the_positivity_bound(n):
    # A x = div(upwind_flux(x, coeffs)) has each cell's outflow rate on its
    # diagonal and nonpositive off-diagonals: the explicit update u - dt * A u
    # stays >= 0 up to dt = 1 / (largest rate), and the implicit I + dt*A, as
    # the density solve uses it, is an M-matrix with weighted column sums 1
    # whose inverse is nonnegative and keeps the mass for every dt
    g = unit_grid(n, 8)
    rng = np.random.default_rng(n)
    coeffs = flux_coefficients(g, gradient_faces(g, 4.0 * rng.random(g.shape)), params_with(n=n))
    cols = []
    for idx in np.ndindex(g.shape):
        unit = np.zeros(g.shape)
        unit[idx] = 1.0
        cols.append(divergence_values(g, upwind_flux(g, unit, coeffs)).ravel())
    transport = np.array(cols).T
    off = transport - np.diag(np.diag(transport))
    rate = np.diag(transport).max()
    assert rate > 0.0 and off.min() < 0.0
    assert np.all(np.diag(transport) >= 0.0) and np.all(off <= 0.0)
    u = rng.random(g.shape)
    explicit = u - divergence_values(g, upwind_flux(g, u, coeffs)) / rate
    assert explicit.min() >= -1e-12
    w = g.cell_weights.ravel()
    for dt in (1e-3, 1.0, 1e3):
        inv = np.linalg.inv(np.eye(w.size) + dt * transport)
        assert inv.min() >= -1e-12 * inv.max()
        np.testing.assert_allclose(w @ inv, w, rtol=1e-10)


def test_flux_hand_oracle_plane_signal():
    # v = 3x + 4y, u = 1, p = 1.5, eps = 0: |grad v|^2 = 25 away from walls,
    # flux components 3 * 5^(-1/2) and 4 * 5^(-1/2)
    g = build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16))
    X, Y = g.center_mesh()
    v = GridFunction(g, 3.0 * X + 4.0 * Y)
    u = GridFunction.constant(g, 1.0)
    fl = flux(u, gradient_faces(g, v.values), params_with(p=1.5, eps=0.0, n=2))
    s = 5.0**-0.5
    # away from every wall the tangential average sees the full gradient
    np.testing.assert_allclose(fl[0][4:-4, 4:-4], 3.0 * s, rtol=1e-12)
    np.testing.assert_allclose(fl[1][4:-4, 4:-4], 4.0 * s, rtol=1e-12)
    # normal boundary faces carry nothing
    assert np.all(fl[0][0, :] == 0.0)
    assert np.all(fl[0][-1, :] == 0.0)


def test_flux_linear_in_chi_and_u(grid1d):
    g = grid1d(24)
    u = GridFunction.from_callable(g, lambda x: 1.0 + 0.5 * np.sin(2 * math.pi * x))
    v = GridFunction.from_callable(g, lambda x: np.cos(math.pi * x))
    gv = gradient_faces(g, v.values)
    base = flux(u, gv, params_with(chi=1.0))[0]
    twice_chi = flux(u, gv, params_with(chi=2.0))[0]
    np.testing.assert_allclose(twice_chi, 2.0 * base, rtol=0.0, atol=0.0)
    u2 = GridFunction(g, 2.0 * u.values)
    twice_u = flux(u2, gv, params_with(chi=1.0))[0]
    np.testing.assert_allclose(twice_u, 2.0 * base, rtol=0.0, atol=0.0)


def test_flux_upwind_cell_selection(grid1d):
    g = grid1d(8)
    u = GridFunction(g, np.arange(1.0, 9.0))
    v = GridFunction.from_callable(g, lambda x: x)  # grad v > 0
    fl = flux(u, gradient_faces(g, v.values), params_with(p=2.0, eps=0.0))
    # positive coefficient picks the left (upwind) cell
    np.testing.assert_allclose(fl[0][1:-1], u.values[:-1], rtol=1e-14)
    v_dn = GridFunction.from_callable(g, lambda x: -x)
    fl_dn = flux(u, gradient_faces(g, v_dn.values), params_with(p=2.0, eps=0.0))
    np.testing.assert_allclose(fl_dn[0][1:-1], -u.values[1:], rtol=1e-14)


def test_flux_eps_monotone_for_sublinear_p(grid1d):
    # (m + eps)^((p-2)/2) decreases in eps when p < 2
    g = grid1d(32)
    u = GridFunction.constant(g, 1.0)
    v = GridFunction.from_callable(g, lambda x: np.sin(math.pi * x))
    gv = gradient_faces(g, v.values)
    mags = []
    for eps in (0.0, 0.1, 0.5):
        fl = flux(u, gv, params_with(p=1.5, eps=eps))
        mags.append(np.abs(fl[0][1:-1]))
    assert np.all(mags[1] <= mags[0] + 1e-15)
    assert np.all(mags[2] <= mags[1] + 1e-15)


def test_flux_eps_limit_consistency_nondegenerate(grid1d):
    # grad v = 1 everywhere inside: error = 1 - (1 + eps)^((p-2)/2) ~ eps/4
    g = grid1d(64)
    u = GridFunction.constant(g, 1.0)
    gv = gradient_faces(g, g.axis_centers(0))
    limit = flux(u, gv, params_with(p=1.5, eps=0.0))[0]
    errs = []
    for eps in (1e-2, 1e-4, 1e-6):
        fl = flux(u, gv, params_with(p=1.5, eps=eps))[0]
        err = np.abs(fl - limit)[1:-1].max()
        assert err == pytest.approx(1.0 - (1.0 + eps) ** -0.25, rel=1e-10)
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_flux_eps_limit_consistency_degenerate_point(grid1d):
    # grad v crosses zero: the local rate drops to eps^((p-1)/2), still -> 0
    g = grid1d(64)
    u = GridFunction.from_callable(g, lambda x: 1.0 + 0.3 * np.cos(math.pi * x))
    v = GridFunction.from_callable(g, lambda x: np.sin(math.pi * x) + 0.2 * x)
    gv = gradient_faces(g, v.values)
    limit = flux(u, gv, params_with(p=1.5, eps=0.0))[0]
    errs = []
    for eps in (1e-2, 1e-4, 1e-6):
        fl = flux(u, gv, params_with(p=1.5, eps=eps))[0]
        errs.append(np.abs(fl - limit).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2.0 * (1e-6) ** 0.25


def test_face_gradient_magnitude_1d_is_square(grid1d):
    g = grid1d(16)
    gv = gradient_faces(g, g.axis_centers(0) ** 2)
    mags = face_gradient_magnitude_sq(g, gv)
    np.testing.assert_allclose(mags[0], gv[0] ** 2, rtol=1e-15)


# -------------------------------------------------------------- mollifier


def test_mollifier_analytic_mode_damping():
    # cos(k pi x) is an eigenvector of each averaging pass
    cells, k, eps = 64, 3, 0.5
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    raw = build_initial_data(g, family="cosine", base=1.0, amplitude=0.3, v0_kind="zero")
    # swap in the k-th mode by hand
    x = g.axis_centers(0)
    u = GridFunction(g, 1.0 + 0.3 * np.cos(k * math.pi * x))
    raw = InitialData(u0=u, v0=raw.v0)
    out = mollify_initial_data(raw, eps)
    h = g.spacing[0]
    damp = (1.0 - eps * MOLLIFIER_KERNEL_SCALE * (1.0 - math.cos(k * math.pi * h))) ** MOLLIFIER_PASSES
    expect = 1.0 + 0.3 * damp * np.cos(k * math.pi * x)
    np.testing.assert_allclose(out.u0.values, expect, rtol=0.0, atol=1e-12)


def test_mollifier_small_relative_change():
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(64,))
    raw = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5, v0_kind="u0_squared")
    out = mollify_initial_data(raw, 0.5)
    assert np.abs(out.u0.values - raw.u0.values).max() < 0.01


def test_mollifier_preserves_mass_exactly():
    for mode, kw in (
        ("cartesian-1d", dict(extents=(1.0,), cells=(50,))),
        ("radial-n", dict(extents=(1.0,), cells=(50,), n=3)),
    ):
        g = build_grid(mode, **kw)
        raw = build_initial_data(g, family="gaussian", base=0.1, amplitude=2.0,
                                 width=0.2, v0_kind="zero")
        out = mollify_initial_data(raw, 0.7)
        m0 = integrate(raw.u0)
        assert abs(integrate(out.u0) - m0) / m0 < 1e-13


def test_mollifier_keeps_nonnegativity_at_touching_zero(grid1d):
    g = grid1d(32)
    raw = build_initial_data(g, family="cosine", base=1.0, amplitude=1.0, v0_kind="zero")
    assert raw.u0.values.min() >= 0.0
    out = mollify_initial_data(raw, 0.9)
    assert out.u0.values.min() >= 0.0


@pytest.mark.parametrize("q", [1.0, 2.0, 5.0, math.inf])
def test_mollifier_nonexpansive_in_lq(grid1d, q):
    g = grid1d(40)
    rng = np.random.default_rng(17)
    raw = InitialData(
        u0=GridFunction(g, rng.uniform(0.0, 3.0, size=40)),
        v0=GridFunction.constant(g, 0.0),
    )
    out = mollify_initial_data(raw, 0.8)
    assert FieldNorms(out.u0).lp(q) <= FieldNorms(raw.u0).lp(q) * (1.0 + 1e-12)


def test_mollifier_strength_monotone_in_eps(grid1d):
    g = grid1d(32)
    raw = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5, v0_kind="zero")
    devs = []
    for eps in (0.1, 0.3, 0.6):
        out = mollify_initial_data(raw, eps)
        devs.append(np.abs(out.u0.values - raw.u0.values).max())
    assert devs[0] < devs[1] < devs[2]


def test_mollifier_eps_zero_is_identity(grid1d):
    g = grid1d(16)
    raw = build_initial_data(g, family="cosine", v0_kind="u0_squared")
    assert mollify_initial_data(raw, 0.0) is raw


def test_mollifier_include_v_flag(grid1d):
    g = grid1d(16)
    raw = build_initial_data(g, family="cosine", v0_kind="u0_squared")
    out = mollify_initial_data(raw, 0.5, include_v=False)
    np.testing.assert_array_equal(out.v0.values, raw.v0.values)
    out2 = mollify_initial_data(raw, 0.5, include_v=True)
    assert np.abs(out2.v0.values - raw.v0.values).max() > 0.0


@pytest.mark.parametrize("eps", [1.0, -0.1, 2.0])
def test_mollifier_rejects_bad_eps(grid1d, eps):
    raw = build_initial_data(grid1d(8), family="constant")
    with pytest.raises(ValueError, match="eps"):
        mollify_initial_data(raw, eps)


# ----------------------------------------------------------- initial data


@pytest.mark.parametrize("cells", [(16, 16), (9, 12)])
def test_initial_data_keep_the_grid_reflections_bit_for_bit(cells):
    g = build_grid("cartesian-2d", extents=(1.0, 2.0), cells=cells)
    u0 = build_initial_data(g, family="cosine", amplitude=0.5, v0_kind="zero").u0.values
    x, y = g.center_mesh()
    np.testing.assert_allclose(u0, 1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y / 2.0),
                               rtol=0.0, atol=1e-15)
    # cos(pi x / L) is odd about the center of each axis, so the product is
    # even under reflecting both
    assert np.array_equal(u0, u0[::-1, ::-1])
    bump = build_initial_data(g, family="gaussian", amplitude=2.0, v0_kind="zero").u0.values
    assert np.array_equal(bump, bump[::-1]) and np.array_equal(bump, bump[:, ::-1])


@pytest.mark.parametrize(
    "kw,match",
    [
        (dict(amplitude=0.1, v0_kind="u0_pow_theta", theta=8000),
         r"v0 = u0\*\*theta \(u0_pow_theta\) overflows at theta=8000 \(max u0"),
        (dict(base=1e160, v0_kind="u0_squared"), r"v0 = u0\*\*2 \(u0_squared\) overflows \(max u0"),
    ],
    ids=["u0_pow_theta", "u0_squared"],
)
def test_overflowing_initial_signal_is_named(kw, match):
    # 1.1**8000 and (1e160)**2 are beyond the largest double; the error names
    # v0 and its kind instead of numpy's overflow warning and a generic
    # non-finite message
    with pytest.raises(ValueError, match=match):
        build_initial_data(unit_grid(1, 8), **kw)


def test_cosine_family_values(grid1d):
    g = grid1d(32)
    init = build_initial_data(g, family="cosine", base=2.0, amplitude=0.5,
                              v0_kind="u0_pow_theta", theta=1.5)
    x = g.axis_centers(0)
    np.testing.assert_allclose(init.u0.values, 2.0 + 0.5 * np.cos(math.pi * x), rtol=1e-15)
    np.testing.assert_allclose(init.v0.values, init.u0.values**1.5, rtol=1e-15)


def test_cosine_family_radial(grid1d):
    g = build_grid("radial-n", extents=(2.0,), cells=(16,), n=3)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.25, v0_kind="zero")
    r = g.axis_centers(0)
    np.testing.assert_allclose(init.u0.values, 1.0 + 0.25 * np.cos(math.pi * r / 2.0), rtol=1e-15)


def test_cosine_family_radial_is_exact():
    # the product formula over the one radial axis gives cos(pi r / R) bit for bit
    g = build_grid("radial-n", extents=(1.0,), cells=(256,), n=3)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.1, v0_kind="zero")
    assert np.array_equal(init.u0.values, 1.0 + 0.1 * np.cos(np.pi * g.axis_centers(0)))


def test_cosine_2d_separable():
    g = build_grid("cartesian-2d", extents=(1.0, 2.0), cells=(8, 8))
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5, v0_kind="zero")
    X, Y = g.center_mesh()
    expect = 1.0 + 0.5 * np.cos(math.pi * X) * np.cos(math.pi * Y / 2.0)
    np.testing.assert_allclose(init.u0.values, expect, rtol=1e-15)


def test_gaussian_family_peaks_at_center(grid1d):
    g = grid1d(64)
    init = build_initial_data(g, family="gaussian", base=1.0, amplitude=3.0,
                              width=0.1, v0_kind="zero")
    peak = int(np.argmax(init.u0.values))
    assert abs(g.axis_centers(0)[peak] - 0.5) <= g.spacing[0]
    assert init.u0.values.max() <= 4.0 + 1e-12
    assert np.all(init.v0.values == 0.0)


def test_constant_family_and_v0_kinds(grid1d):
    g = grid1d(8)
    init = build_initial_data(g, family="constant", base=2.5, v0_kind="constant", v0_value=0.7)
    np.testing.assert_allclose(init.u0.values, 2.5)
    np.testing.assert_allclose(init.v0.values, 0.7)
    init2 = build_initial_data(g, family="constant", base=3.0, v0_kind="u0_squared")
    np.testing.assert_allclose(init2.v0.values, 9.0)

    # the four kinds are two computations: zero is the constant 0.0, and
    # u0_squared is u0_pow_theta at theta = 2, bit for bit and in dtype
    def v0(g, kind, **kw):
        return build_initial_data(g, base=1.5, amplitude=0.5, v0_kind=kind, **kw).v0.values

    for g in (unit_grid(1, 8), unit_grid(2, 8), unit_grid(3, 8)):
        for a, b in [(v0(g, "zero"), v0(g, "constant", v0_value=0.0)),
                     (v0(g, "u0_squared"), v0(g, "u0_pow_theta", theta=2.0))]:
            assert a.dtype == b.dtype == np.float64 and a.shape == g.shape
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(family="triangle"), "family"),
        (dict(v0_kind="cube"), "v0 kind"),
        (dict(family="cosine", base=1.0, amplitude=1.5), "amplitude"),
        (dict(family="gaussian", width=0.0), "width"),
        (dict(family="gaussian", width=1.5), "width"),
        (dict(family="constant", base=0.0), "base > 0"),
        (dict(v0_kind="u0_pow_theta", theta=None), "theta"),
        (dict(v0_kind="constant", v0_value=-1.0), "v0"),
        (dict(base=-1.0), "base"),
    ],
)
def test_build_initial_data_validation(grid1d, kw, msg):
    with pytest.raises(ValueError, match=msg):
        build_initial_data(grid1d(8), **kw)
