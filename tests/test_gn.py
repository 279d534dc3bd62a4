"""Interpolation-inequality checks: exponent algebra, ratios, ensembles.

Exponents are pinned against Fraction arithmetic; ratios against continuum
closed forms (constant fields, cos(pi x)); the ensemble against its seeding
contract (determinism, prefix stability, grid-independent recipes); the
one-pass estimator against the per-ratio definitions it replaces, and its
merged interleaved shares against the one pass, bit for bit.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import fluxks.gn as gn
from fluxks.gn import (
    ConstantEstimates,
    GN2Exponents,
    GNExponents,
    density_step_set,
    ensemble,
    estimate_constants,
    gn2_exponent,
    gn2_ratio,
    gn_exponent,
    gn_ratio,
    merge_estimates,
    poincare_ratio,
    signal_grad_step_set,
    signal_l2_step_set,
)
from fluxks.grid import (
    FieldNorms,
    build_grid,
    laplacian_values,
    unit_grid,
)


def quasi_lp(g, f, p):
    # the Lebesgue functional at any positive index, quasi-norms included
    return FieldNorms(g, f).lp(p)


def gradient_lp_norm(g, f, p):
    return FieldNorms(g, f).grad_lp(p)


def frac_a(p, q, r, n):
    num = Fraction(1, 1) / q - Fraction(1, 1) / p
    den = Fraction(1, 1) / q + Fraction(1, n) - Fraction(1, 1) / r
    return num / den


# ----------------------------------------------------------- exponent algebra


@pytest.mark.parametrize(
    "p,q,r,n",
    [(4, 2, 2, 1), (2, 1, 2, 2), (6, 2, 2, 3), (3, 2, 2, 2), (5, 2, 2, 1)],
)
def test_gn_exponent_matches_fraction_arithmetic(p, q, r, n):
    expected = float(frac_a(Fraction(p), Fraction(q), Fraction(r), n))
    assert gn_exponent(p, q, r, n) == pytest.approx(expected, abs=1e-12)


def test_gn_exponent_hand_values():
    assert gn_exponent(4.0, 2.0, 2.0, 1) == pytest.approx(0.25, abs=1e-15)
    assert gn_exponent(2.0, 1.0, 2.0, 2) == pytest.approx(0.5, abs=1e-15)
    # Sobolev endpoint: a = 1 exactly
    assert gn_exponent(6.0, 2.0, 2.0, 3) == pytest.approx(1.0, abs=1e-12)
    # p = inf contributes 1/p = 0
    assert gn_exponent(math.inf, 2.0, 2.0, 2) == pytest.approx(1.0, abs=1e-15)


def test_gn_exponent_rejections():
    with pytest.raises(ValueError, match="outside"):
        gn_exponent(2.0, 4.0, 2.0, 1)  # a < 0
    with pytest.raises(ValueError, match="denominator"):
        gn_exponent(4.0, 2.0, 1.0, 2)  # 1/2 + 1/2 - 1 = 0
    with pytest.raises(ValueError, match="positive"):
        gn_exponent(-2.0, 2.0, 2.0, 1)


def test_gn2_exponent_hand_values():
    assert gn2_exponent(2.0, 2.0, 1) == pytest.approx(0.5, abs=1e-15)
    assert gn2_exponent(2.0, 2.0, 2) == pytest.approx(0.5, abs=1e-15)
    assert gn2_exponent(math.inf, 2.0, 2) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="outside"):
        gn2_exponent(1.0, 2.0, 2)  # b = 0
    with pytest.raises(ValueError, match="degenerate denominator"):
        gn2_exponent(2.0, math.inf, 4)  # 0 + 2/4 - 1/2 = 0


def test_exponent_dataclass_validation():
    with pytest.raises(ValueError, match="r must be >= 1"):
        GNExponents(p_hat=2.0, q_hat=2.0, r_hat=0.5, s_hat=2.0, n=1)
    with pytest.raises(ValueError, match="positive"):
        GNExponents(p_hat=-1.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    with pytest.raises(ValueError, match="2 <= r <= q"):
        GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=3.0, s_hat=2.0, n=1)
    with pytest.raises(ValueError, match="2 <= r <= q"):
        GN2Exponents(p_hat=2.0, q_hat=4.0, r_hat=1.5, s_hat=2.0, n=1)
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    assert ex.to_dict()["a"] == pytest.approx(0.25, abs=1e-15)


# -------------------------------------------------------------------- norms


def test_quasi_lp_extends_lp(grid1d):
    g = grid1d(64)
    f = 4.0 * np.ones(64)
    assert quasi_lp(g, f, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert quasi_lp(g, f, math.inf) == 4.0
    # (sum 4^{1/2} h)^2 = 2^2 on the unit interval, exactly for dyadic h
    assert quasi_lp(g, f, 0.5) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError, match="positive"):
        quasi_lp(g, f, 0.0)


def pow_form(g, f, p):
    # the Lebesgue functional written with a fractional power per cell
    return float(np.sum(np.abs(f) ** p * g.cell_weights) ** (1.0 / p))


@pytest.mark.parametrize("n,cells", [(1, 64), (2, 16), (3, 32)])
def test_quasi_lp_matches_the_pow_form(n, cells):
    # lp takes exp(p log |f|) in place of |f| ** p; 2 and inf stay exact
    g = unit_grid(n, cells)
    for f in ensemble(g, 64, seed=2):
        for p in (0.5, 2.0 / 3.0, 0.8, 2.5, 3.0):
            assert quasi_lp(g, f, p) == pytest.approx(pow_form(g, f, p), rel=1e-13, abs=0.0)
        assert quasi_lp(g, f, 2.0) == float(np.sum(f**2 * g.cell_weights)) ** 0.5
        assert quasi_lp(g, f, math.inf) == float(np.max(np.abs(f)))


def test_quasi_lp_of_a_spike_with_exact_zeros():
    # log 0 = -inf and exp(-inf) = 0: the zero cells drop out with no warning
    g = unit_grid(1, 256)
    x = g.axis_centers(0)
    f = np.exp(-((x - 0.5) ** 2) / (2.0 * 0.005**2))
    assert np.count_nonzero(f == 0.0) > 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.5, 2.0 / 3.0, 0.8, 2.5, 3.0):
            assert quasi_lp(g, f, p) == pytest.approx(pow_form(g, f, p), rel=1e-13, abs=0.0)


# ------------------------------------------------------------------- ratios


def test_gn_ratio_constant_field(grid1d):
    # zero gradient kills the interpolation term; on a unit-measure domain
    # the s-term makes the ratio exactly 1, independent of the constant
    g = grid1d(64)
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    for c in (1.0, 7.0):
        f = c * np.ones(64)
        assert gn_ratio(FieldNorms(g, f), ex) == pytest.approx(1.0, rel=1e-14)


def test_gn_ratio_scale_invariant(grid1d):
    g = grid1d(64)
    x = g.axis_centers(0)
    f = 1.0 + np.cos(np.pi * x) ** 2
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    base = gn_ratio(FieldNorms(g, f), ex)
    scaled = gn_ratio(FieldNorms(g, 7.0 * f), ex)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_gn_ratio_zero_field_rejected(grid1d):
    g = grid1d(16)
    f = np.zeros(16)
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    with pytest.raises(ValueError, match="zero right-hand side"):
        gn_ratio(FieldNorms(g, f), ex)


def test_gn2_ratio_cosine_closed_form(grid1d):
    # f = cos(pi x), all indices 2, n = 1, b = 1/2:
    # ratio -> pi / (pi + 2) in the continuum, second-order in h
    g = grid1d(256)
    x = g.axis_centers(0)
    f = np.cos(np.pi * x)
    ex = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    assert gn2_ratio(FieldNorms(g, f), ex) == pytest.approx(math.pi / (math.pi + 2.0), rel=1e-4)


# ----------------------------------------------------------------- ensemble


def test_ensemble_seeding_contract(grid1d):
    g = grid1d(64)
    with pytest.raises(ValueError, match="size"):
        ensemble(g, 0, seed=0)
    a = ensemble(g, 8, seed=3)
    b = ensemble(g, 8, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # enlarging keeps the prefix: draws are consumed member by member
    big = ensemble(g, 16, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, big))
    other = ensemble(g, 8, seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a, other))
    assert all(np.all(np.isfinite(m)) for m in big)


@pytest.mark.parametrize(
    "grid",
    [
        unit_grid(1, 64),
        unit_grid(2, 16),
        unit_grid(3, 32),
        build_grid("cartesian-2d", extents=(2.0, 0.5), cells=(12, 8)),
    ],
    ids=["1d", "2d", "radial-3", "2d-rectangle"],
)
def test_ensemble_matches_dense_mesh_sampling(grid):
    # the members are sampled on a sparse mesh; each must equal its recipe,
    # drawn from the same rng, evaluated on the dense cell-center mesh
    rng = np.random.default_rng(5)
    mesh = [m / e for m, e in zip(grid.center_mesh(), grid.extents)]
    for i, f in enumerate(ensemble(grid, 24, seed=5)):
        fn = gn._FAMILIES[i % len(gn._FAMILIES)](rng)
        dense = np.asarray(fn(*mesh), dtype=np.float64) * np.ones(grid.shape)
        assert np.array_equal(f, dense)


def test_ensemble_recipes_are_grid_independent(grid1d):
    # same seed on a finer grid samples the same analytic functions, so
    # their integrals converge instead of chasing resolution
    gc, gf = grid1d(128), grid1d(256)
    coarse = ensemble(gc, 6, seed=11)
    fine = ensemble(gf, 6, seed=11)
    for fc, ff in zip(coarse, fine):
        ic = float(np.sum(fc * gc.cell_weights))
        if_ = float(np.sum(ff * gf.cell_weights))
        assert if_ == pytest.approx(ic, rel=1e-3, abs=1e-6)


def test_constant_estimates_finite_and_refinement_stable(grid1d):
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    ex2 = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    coarse = estimate_constants(grid1d(128), (ex,), (ex2,), size=40, seed=7)
    fine = estimate_constants(grid1d(256), (ex,), (ex2,), size=40, seed=7)
    (c1,), (c2,) = coarse.gn, fine.gn
    assert math.isfinite(c1) and c1 > 0.0
    assert abs(c2 - c1) <= 0.15 * c1
    (d1,), (d2,) = coarse.gn2, fine.gn2
    assert math.isfinite(d1) and d1 > 0.0
    assert abs(d2 - d1) <= 0.15 * d1


# --------------------------------------------------------- one-pass estimate


def reference_gn_ratio(g, f, exps):
    # the first-form ratio written directly on the grid norms
    a = exps.a
    grad = gradient_lp_norm(g, f, exps.r_hat)
    rhs = grad**a * quasi_lp(g, f, exps.q_hat) ** (1.0 - a) + quasi_lp(g, f, exps.s_hat)
    return quasi_lp(g, f, exps.p_hat) / rhs


def reference_gn2_ratio(g, f, exps):
    b = exps.b
    lap_l2 = float(np.sqrt(np.sum(laplacian_values(g, f) ** 2 * g.cell_weights)))
    rhs = (lap_l2**b + quasi_lp(g, f, exps.r_hat) ** b) * quasi_lp(g, f, exps.q_hat) ** (1.0 - b)
    rhs += quasi_lp(g, f, exps.s_hat)
    return gradient_lp_norm(g, f, exps.p_hat) / rhs


@pytest.mark.parametrize("n,cells", [(1, 64), (2, 16), (3, 32)])
def test_one_pass_equals_per_ratio_definitions(n, cells):
    grid = unit_grid(n, cells)
    theta, p, q1, q2 = 1.5, 1.2, 2.5, 3.0
    gn_sets = (
        density_step_set(n, p, q1),
        signal_l2_step_set(n, theta, q1),
        signal_grad_step_set(n, theta, q2),
    )
    gn2_sets = (
        GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=n),
        GN2Exponents(p_hat=3.0, q_hat=3.0, r_hat=2.5, s_hat=1.0, n=n),
    )
    size, seed = 30, 4
    members = ensemble(grid, size, seed)
    est = estimate_constants(grid, gn_sets, gn2_sets, size=size, seed=seed)

    for exps, got in zip(gn_sets, est.gn, strict=True):
        assert got == max(gn_ratio(FieldNorms(grid, f), exps) for f in members)
        assert got == max(reference_gn_ratio(grid, f, exps) for f in members)
        assert got == estimate_constants(grid, (exps,), size=size, seed=seed).gn[0]
    for exps, got in zip(gn2_sets, est.gn2, strict=True):
        assert got == max(gn2_ratio(FieldNorms(grid, f), exps) for f in members)
        assert got == max(reference_gn2_ratio(grid, f, exps) for f in members)
        assert got == estimate_constants(grid, gn2_sets=(exps,), size=size, seed=seed).gn2[0]

    best = 0.0
    for f in members:
        if gradient_lp_norm(grid, f, 2.0) == 0.0:
            continue
        best = max(best, poincare_ratio(FieldNorms(grid, f)))
    assert est.poincare == best > 0.0
    assert est.poincare == estimate_constants(grid, size=size, seed=seed).poincare


def test_one_pass_rejects_zero_member_and_empty_ensemble(grid1d, monkeypatch):
    g = grid1d(16)
    with pytest.raises(ValueError, match="size"):
        estimate_constants(g, size=0)
    zero = np.zeros(16)
    monkeypatch.setattr(gn, "_members", lambda grid, size, seed, share: iter([zero]))
    ex = GNExponents(p_hat=4.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    ex2 = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    with pytest.raises(ValueError, match="gn_ratio: zero right-hand side"):
        estimate_constants(g, gn_sets=(ex,))
    with pytest.raises(ValueError, match="gn2_ratio: zero right-hand side"):
        estimate_constants(g, gn2_sets=(ex2,))
    # the zero member has no gradient, so the poincare sup skips it
    assert estimate_constants(g).poincare == 0.0


@pytest.mark.parametrize("n,cells", [(1, 32), (2, 8), (3, 16)])
def test_merged_shares_equal_the_one_pass(n, cells):
    grid = unit_grid(n, cells)
    gn_sets = (density_step_set(n, 1.2, 2.5), signal_grad_step_set(n, 1.5, 3.0))
    gn2_sets = (GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=n),)
    empty = ConstantEstimates(gn=(0.0, 0.0), gn2=(0.0,), poincare=0.0)
    for size in (1, 3, 7, 200):
        whole = estimate_constants(grid, gn_sets, gn2_sets, size=size, seed=5)
        for k in (1, 2, 3, 4):
            parts = [
                estimate_constants(grid, gn_sets, gn2_sets, size, 5, share=(j, k))
                for j in range(k)
            ]
            # shares past the last member are empty and estimate zeros
            assert [p == empty for p in parts] == [j >= size for j in range(k)]
            assert merge_estimates(parts) == whole, (size, k)


def test_shares_hold_the_serial_members(grid2d):
    grid = grid2d(8)
    members = ensemble(grid, 11, 3)
    for j in range(3):
        share = list(gn._members(grid, 11, 3, (j, 3)))
        assert len(share) == len(members[j::3])
        for f, g in zip(share, members[j::3]):
            assert np.array_equal(f, g)


# ----------------------------------------------------------------- poincare


def test_poincare_ratio_eigenfunction(grid1d):
    g = grid1d(256)
    x = g.axis_centers(0)
    f = np.cos(np.pi * x)
    assert poincare_ratio(FieldNorms(g, f)) == pytest.approx(1.0 / math.pi, rel=1e-4)
    with pytest.raises(ValueError, match="constant"):
        poincare_ratio(FieldNorms(g, np.ones(256)))


def test_poincare_estimate_saturates_at_first_eigenvalue(grid1d):
    # the sharp constant on the unit interval is 1/pi; the fourier members
    # contain the extremizing mode, so the estimate lands on it from below
    est = estimate_constants(grid1d(128), size=40, seed=7).poincare
    assert 0.25 <= est <= (1.0 / math.pi) * 1.01


# ---------------------------------------------------------------- step sets


def test_density_step_set_fields():
    ex = density_step_set(2, 1.2, 2.5)
    assert ex.p_hat == pytest.approx(2.5, rel=1e-15)
    assert ex.q_hat == pytest.approx(0.8, rel=1e-15)
    assert ex.r_hat == 2.0 and ex.n == 2
    assert ex.s_hat == ex.q_hat
    assert ex.a == pytest.approx(0.68, rel=1e-12)
    with pytest.raises(ValueError, match="p < 2"):
        density_step_set(2, 2.0, 2.5)


def test_signal_l2_step_set_fields():
    # n=2, theta=1.5, q1=2.5: admissible r window is (1, 4), midpoint 2.5
    ex = signal_l2_step_set(2, 1.5, 2.5)
    assert ex.p_hat == pytest.approx(3.0, rel=1e-15)
    assert ex.q_hat == pytest.approx(0.8, rel=1e-15)
    assert ex.a == pytest.approx(11.0 / 15.0, rel=1e-12)
    with pytest.raises(ValueError, match="empty r window"):
        signal_l2_step_set(2, 2.0, 1.0)  # Young cap 2/3 < 1


def test_signal_grad_step_set_fields():
    ex = signal_grad_step_set(2, 1.5, 3.0)
    assert ex.p_hat == pytest.approx(2.0, rel=1e-15)
    assert ex.q_hat == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert ex.s_hat == ex.q_hat and ex.r_hat == 2.0
    assert ex.a == pytest.approx(2.0 / 3.0, rel=1e-12)
