"""Exponent algebra and feasibility audits.

Worked point used throughout (hand arithmetic): n = 2, theta = 1.5, p = 1.2,
q = r = 2 gives a* = 2*(2*2 + 0) / (2*(2 - 0.4)) = 2.5, b* = 0.5, and
closure value 2 * 2.5 * 0.5 * 0.2 = 0.5 < 2.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from fluxks.regimes import (
    _Q_MARGINS,
    CRITICAL_BOUNDARY_RTOL,
    ExponentAudit,
    RegimeSpec,
    a_star,
    audit,
    b_star,
    condition_1d_value,
    condition_2ab,
    critical_exponent,
    q_ranges,
    relative_p,
    s_rule,
)


# ------------------------------------------------------------- closed forms


def test_critical_exponent_hand_values():
    assert critical_exponent(2, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert critical_exponent(1, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert critical_exponent(3, 2.0) == pytest.approx(1.2, abs=1e-15)
    assert critical_exponent(2, 1.5) == pytest.approx(1.5, abs=1e-15)


def test_critical_exponent_monotone_in_ntheta():
    vals = [critical_exponent(1, th) for th in (1.1, 1.5, 2.0, 4.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)


def test_critical_exponent_rejects_subunit_product():
    with pytest.raises(ValueError, match="n\\*theta > 1"):
        critical_exponent(1, 1.0)
    with pytest.raises(ValueError):
        critical_exponent(1, 0.5)


def test_relative_p_affine():
    pc = critical_exponent(2, 1.5)
    assert relative_p(2, 1.5, 1.0) == pytest.approx(pc, abs=1e-15)
    assert relative_p(2, 1.5, 0.4) == pytest.approx(1.2, abs=1e-15)
    # f > 1 is supercritical but allowed
    assert relative_p(2, 1.5, 1.2) > pc
    with pytest.raises(ValueError):
        relative_p(2, 1.5, 0.0)


def test_a_star_b_star_worked_point():
    assert a_star(2, 1.2, 2.0, 2.0) == pytest.approx(2.5, abs=1e-15)
    assert b_star(2, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert condition_2ab(2, 1.2, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)


def test_a_star_rejects_degenerate_denominator():
    # r = n*(p-1) collapses the interpolation
    with pytest.raises(ValueError, match="a_star"):
        a_star(2, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        b_star(2, 0.0)


def test_b_star_is_exactly_half_at_r_two():
    # r = 2 is the gradient witness's closed end: b_star >= 1/2 must hold there
    # to the bit, which (1/2 + 1/n - 1/r) / (2/n) misses for n in {3, 5, 6, 7}
    for n in range(1, 9):
        assert b_star(n, 2.0) == 0.5


def test_condition_1d_hand_value():
    # (theta - 1/r)(p - 1) + (1 - 1/q) at theta=2, p=2.1, q=r=2
    assert condition_1d_value(2.0, 2.1, 2.0, 2.0) == pytest.approx(2.15, abs=1e-14)
    with pytest.raises(ValueError):
        condition_1d_value(2.0, 2.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        condition_1d_value(2.0, 2.1, 2.0, 1.0)


# ----------------------------------------------------------------- s rule


def test_s_rule_max_norm_branch():
    rule = s_rule(1, 1.8, 2.0)  # p above (2 theta + 1)/(2 theta - 1) = 5/3
    assert rule.infinite
    assert math.isinf(rule.value)


def test_s_rule_finite_branch_1d():
    rule = s_rule(1, 1.5, 2.0)
    assert not rule.infinite
    assert rule.min_exclusive == pytest.approx(1.5, abs=1e-15)  # max(1, 3*0.5)
    assert rule.default == pytest.approx(3.0, abs=1e-15)
    assert rule.value == rule.default


def test_s_rule_finite_branch_2d():
    rule = s_rule(2, 1.2, 1.5)
    assert not rule.infinite
    assert rule.min_exclusive == pytest.approx(2.0, abs=1e-15)  # max(2, 4*0.2)
    assert rule.default == pytest.approx(3.0, abs=1e-15)


def test_s_rule_default_exceeds_bound():
    for n in (1, 2, 3, 5):
        for p in (1.1, 1.5, 1.9):
            rule = s_rule(n, p, 1.5)
            if not rule.infinite:
                assert rule.default > rule.min_exclusive
                assert rule.default >= 2.0


def test_s_rule_1d_threshold_is_two_at_and_below_theta_half():
    # (2 theta + 1)/(2 theta - 1) has its pole at theta = 1/2 and is negative
    # below it; the threshold there is its limit from above, min(2, +inf) = 2
    for theta in (0.5, 0.3, 0.1):
        assert not s_rule(1, 1.5, theta).infinite
        assert not s_rule(1, 1.99, theta).infinite
        assert s_rule(1, 2.0, theta).infinite
        assert s_rule(1, 2.5, theta).infinite
    assert not s_rule(1, 1.99, 0.5 + 1e-9).infinite


# ----------------------------------------------------------------- q ranges


def test_q_ranges_worked_point():
    r = q_ranges(RegimeSpec(n=2, theta=1.5, p=1.2))
    lo, hi = r.density_window
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(4.0, abs=1e-14)  # 2(2-p)/(n(p-1))
    assert r.signal_l2_min == pytest.approx(1.0, abs=1e-15)
    assert r.signal_grad_min == pytest.approx(2.0, abs=1e-15)


def test_q_ranges_window_closes_at_large_p():
    # p >= min(2, 1 + 2/n) leaves no density window
    assert q_ranges(RegimeSpec(n=2, theta=2.0, p=2.0 + 1e-9)).density_window is None
    assert q_ranges(RegimeSpec(n=3, theta=2.0, p=1.7)).density_window is None


def test_q_ranges_window_shrinks_with_p():
    prev = math.inf
    for p in (1.1, 1.2, 1.3, 1.4):
        hi = q_ranges(RegimeSpec(n=2, theta=1.5, p=p)).density_window[1]
        assert hi < prev
        prev = hi


# -------------------------------------------------------------------- audit


def test_audit_reference_witnesses():
    # deterministic witness search at the worked point
    rep = audit(RegimeSpec(n=2, theta=1.5, p=1.2))
    assert rep.subcritical and rep.feasible
    assert rep.route == "entropy"
    assert rep.chosen_q == pytest.approx(3.0, abs=1e-12)
    assert rep.chosen_r == pytest.approx(2.0, abs=1e-12)
    assert rep.chosen_q_f1 == pytest.approx(2.5, abs=1e-12)
    assert rep.a_star == pytest.approx(3.75, abs=1e-12)
    assert rep.b_star == pytest.approx(0.5, abs=1e-12)
    assert rep.condition_2ab == pytest.approx(0.75, abs=1e-12)
    assert rep.condition_1d is None


def test_audit_witnesses_satisfy_reported_algebra():
    rep = audit(RegimeSpec(n=2, theta=1.5, p=1.2))
    assert rep.a_star == pytest.approx(
        a_star(2, 1.2, rep.chosen_q, rep.chosen_r), abs=1e-14
    )
    assert rep.condition_2ab == pytest.approx(
        condition_2ab(2, 1.2, rep.chosen_q, rep.chosen_r), abs=1e-14
    )


def test_audit_semigroup_route_1d():
    # n=1, theta=2, p=1.8: entropy p-window closed, semigroup attains < 1
    rep = audit(RegimeSpec(n=1, theta=2.0, p=1.8))
    assert rep.feasible
    assert rep.route == "semigroup-1d"
    assert rep.condition_1d < 1.0
    assert rep.condition_1d == pytest.approx(
        condition_1d_value(2.0, 1.8, rep.chosen_q, rep.chosen_r), abs=1e-14
    )
    assert rep.a_star is None and rep.condition_2ab is None


def test_audit_1d_entropy_route_small_p():
    rep = audit(RegimeSpec(n=1, theta=2.0, p=1.3))
    assert rep.feasible
    assert rep.route == "entropy"


def test_audit_supercritical_reported_not_thrown():
    rep = audit(RegimeSpec(n=1, theta=2.0, p=2.5))
    assert not rep.subcritical
    assert not rep.feasible
    assert rep.route is None
    assert any("supercritical" in note for note in rep.notes)
    # 1d reports the semigroup value's infimum (theta - 1)(p - 1) as a diagnostic
    assert rep.condition_1d == 1.5


def test_audit_critical_boundary_flag():
    pc = critical_exponent(1, 2.0)
    rep = audit(RegimeSpec(n=1, theta=2.0, p=pc))
    assert rep.critical_boundary
    assert not rep.subcritical
    assert not rep.feasible
    rep_in = audit(RegimeSpec(n=1, theta=2.0, p=pc - 1e-6))
    assert not rep_in.critical_boundary
    assert rep_in.subcritical


def test_audit_sublinear_theta_has_no_route():
    # subcritical p but theta <= 1: no boundedness route is claimed
    rep = audit(RegimeSpec(n=2, theta=0.8, p=1.5))
    assert rep.subcritical
    assert not rep.feasible
    assert any("theta <= 1" in note for note in rep.notes)


def test_audit_lattice_all_feasible_with_invariants():
    # every strictly subcritical point with theta > 1 must close
    for n in (1, 2, 3, 5):
        for theta in (1.1, 1.5, 2.0, 4.0):
            for frac in (0.5, 0.9):
                spec = RegimeSpec(n=n, theta=theta, p=relative_p(n, theta, frac))
                rep = audit(spec)
                assert rep.feasible, (n, theta, frac, rep.notes)
                if rep.route == "entropy":
                    assert rep.a_star > 1.0
                    assert 0.5 <= rep.b_star < 1.0
                    assert rep.condition_2ab < 2.0
                else:
                    assert rep.route == "semigroup-1d"
                    assert n == 1
                    assert rep.condition_1d < 1.0


def test_audit_near_critical_regression():
    # closure infimum migrates to large r near the boundary; the witness
    # search has to follow it
    spec = RegimeSpec(n=2, theta=1.05, p=relative_p(2, 1.05, 0.99))
    rep = audit(spec)
    assert rep.feasible, rep.notes
    assert rep.condition_2ab < 2.0


def _witnesses_pass(rep: ExponentAudit) -> bool:
    # every constraint of the reported route, through the helper formulas
    n, theta, p = rep.spec.n, rep.spec.theta, rep.spec.p
    q, r = rep.chosen_q, rep.chosen_r
    if rep.route == "semigroup-1d":
        value = condition_1d_value(theta, p, q, r)
        return q > 1.0 and r > 1.0 and value < 1.0 and rep.condition_1d == value
    ranges = rep.q_ranges
    lo, hi = ranges.density_window
    q1 = rep.chosen_q_f1
    return (
        max(lo, ranges.signal_l2_min) < q1 < hi and q1 != 1.0
        and q > max(1.0, ranges.signal_grad_min)
        and r > max(2.0, n) * (p - 1.0)
        and rep.a_star == a_star(n, p, q, r) > 1.0
        and 0.5 <= rep.b_star == b_star(n, r) < 1.0
        and rep.condition_2ab == condition_2ab(n, p, q, r) < 2.0
    )


@pytest.mark.parametrize(
    "n, theta, p, route",
    [
        # 3.3e-8 below p_c = 1.5, where the q slack is under the smallest margin
        (2, 1.5, 1.49999995, "entropy"),
        # 1e-10 below p_c = 2, closer than any r on a ladder toward 1
        (1, 2.0, 1.9999999999, "semigroup-1d"),
        # p_c = 3, where a ladder rung r = 1 + 2^-8 once left q rounded to 1
        (1, 1.5, 2.984555984555984, "semigroup-1d"),
    ],
)
def test_audit_certifies_points_a_hair_below_p_c(n, theta, p, route):
    rep = audit(RegimeSpec(n=n, theta=theta, p=p))
    assert rep.subcritical and rep.feasible
    assert rep.route == route
    assert rep.notes == ()
    assert _witnesses_pass(rep)


def test_audit_names_a_semigroup_slack_below_double_precision():
    # theta = 1 + 1e-6 puts p_c near 1e6, and 1e-11 below it the slack
    # 1 - (theta - 1)(p - 1) is about 1e-11.  Every float r > 1 makes r's
    # term (1 - 1/r)(p - 1) at least about 2.2e-16 * 1e6, beyond the slack
    theta = 1.0 + 1e-6
    rep = audit(RegimeSpec(n=1, theta=theta, p=relative_p(1, theta, 1.0 - 1e-11)))
    assert rep.subcritical and not rep.feasible
    assert rep.notes == ("semigroup slack below double precision: no float r above 1",)


_P_DRAW = hs.one_of(
    hs.tuples(hs.just("fraction"), hs.floats(0.01, 1.5)),
    hs.tuples(hs.just("fraction"), hs.integers(1, 11).map(lambda k: 1.0 - 10.0**-k)),
    # p_c * (1 + t * CRITICAL_BOUNDARY_RTOL): on the boundary for |t| <= 1
    hs.tuples(hs.just("rtol"), hs.floats(-3.0, 3.0)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=hs.integers(1, 7), theta=hs.floats(0.3, 30.0), where=_P_DRAW)
@example(n=2, theta=1.0, where=("fraction", 0.5))  # theta = 1 exactly
@example(n=2, theta=1.25, where=("rtol", -1.0))
def test_audit_feasible_exactly_below_p_c_with_theta_above_one(n, theta, where):
    assume(n * theta > 1.0)
    pc = critical_exponent(n, theta)
    kind, value = where
    p = relative_p(n, theta, value) if kind == "fraction" else pc * (1.0 + value * CRITICAL_BOUNDARY_RTOL)
    boundary = abs(p - pc) <= CRITICAL_BOUNDARY_RTOL * pc
    rep = audit(RegimeSpec(n=n, theta=theta, p=p))
    assert rep.critical_boundary == boundary
    assert rep.feasible == (theta > 1.0 and p < pc and not boundary), rep
    if rep.feasible:
        assert _witnesses_pass(rep), rep


# -- the lattice search that the closed forms replaced, kept as an oracle

_R_SWEEP_POINTS = 33
_SEMIGROUP_R_LADDER = tuple(
    [2.0, 1.5, 1.25, 1.1, 1.05, 1.02, 1.01] + [1.0 + 2.0**-k for k in range(7, 31)]
)


def _exact_closure(n, p, q, r):
    # condition_2ab in exact rational arithmetic on the float inputs
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    return (n * q + 2 - n) * (p - 1) * ((n + 2) * r - 2 * n) / (4 * (r - n * (p - 1)))


def _search_gradient_witness(n, p, q_min):
    # (q, r): q = q_min plus the largest margin for which some r on a lattice
    # over the r window, or on geometric ladders toward its ends, closes.  The
    # closure is confirmed in exact arithmetic: in floats, r = 36 at n = 2,
    # theta = 1.05, fraction 0.9, and every r at n = 2, theta = 1.25, p = 1.5
    # (where p - 1 = 2/(n + 2) makes f(r) constant), sit on a closure of
    # exactly 2 that rounds below it
    r_lo = max(2.0, max(2.0, float(n)) * (p - 1.0))
    r_hi = 2.0 * n / (n - 2.0) if n >= 3 else max(64.0, r_lo + 64.0)
    if r_hi <= r_lo:
        return None
    ts = np.linspace(0.0, 1.0, _R_SWEEP_POINTS)[1:-1]
    r_candidates = [r_lo + t * (r_hi - r_lo) for t in ts]
    if r_lo == 2.0 and 2.0 < r_hi:
        r_candidates.insert(0, 2.0)
    r_candidates += [r_lo * (1.0 + 2.0**-k) for k in range(1, 45)]
    if n >= 3:
        r_candidates += [r_hi - (r_hi - r_lo) * 2.0**-k for k in range(1, 45)]
    else:
        r_candidates += [float(2**k) for k in range(7, 41)]
    for dq in _Q_MARGINS:
        q = q_min + dq
        for r in r_candidates:
            try:
                if b_star(n, r) < 0.5 or b_star(n, r) >= 1.0:
                    continue
                if a_star(n, p, q, r) <= 1.0:
                    continue
                if condition_2ab(n, p, q, r) < 2.0 and _exact_closure(n, p, q, r) < 2:
                    return (q, r)
            except ValueError:
                continue
    return None


def _search_semigroup_witness(theta, p):
    # (q, r) on the first r rung with room for a q above 1, or None
    for margin in (0.01, 0.0):
        for r in _SEMIGROUP_R_LADDER:
            budget = 1.0 - (theta - 1.0 / r) * (p - 1.0)
            if budget <= margin:
                continue
            q = 0.5 * (1.0 + (1.0 / (1.0 - budget) if budget < 1.0 else 4.0))
            if q > 1.0:
                return (q, r)
    return None


def test_audit_agrees_with_the_lattice_search_wherever_it_finds_a_witness():
    points = [
        (n, theta, relative_p(n, theta, f))
        for n in (1, 2, 3, 4, 5)
        for theta in (1.05, 1.1, 7.0 / 6.0, 1.25, 1.5, 2.0, 3.0, 4.0, 7.0)
        for f in (0.1, 0.3, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6)
    ]
    points.append((2, 1.25, 1.5))
    found = 0
    for n, theta, p in points:
        rep = audit(RegimeSpec(n=n, theta=theta, p=p))
        route = None
        if rep.chosen_q_f1 is not None:
            q_min = max(1.0, rep.q_ranges.signal_grad_min)
            witness = _search_gradient_witness(n, p, q_min)
            if witness is not None:
                route = "entropy"
                assert rep.chosen_q == witness[0], (n, theta, p)
        if route is None and n == 1 and _search_semigroup_witness(theta, p) is not None:
            route = "semigroup-1d"
        if route is not None:
            found += 1
            assert rep.route == route, (n, theta, p)
            assert _witnesses_pass(rep), (n, theta, p)
    assert found == len(points)


def test_audit_deterministic():
    a = audit(RegimeSpec(n=2, theta=1.5, p=1.2))
    b = audit(RegimeSpec(n=2, theta=1.5, p=1.2))
    assert a == b


def test_audit_to_dict_keys():
    d = audit(RegimeSpec(n=2, theta=1.5, p=1.2)).to_dict()
    expected = {
        "n", "theta", "p", "p_critical", "subcritical", "critical_boundary",
        "s_rule", "q_ranges", "route", "feasible", "chosen_q", "chosen_r",
        "chosen_q_f1", "a_star", "b_star", "condition_2ab", "condition_1d",
        "notes",
    }
    assert set(d.keys()) == expected
    assert d["route"] == "entropy"
    assert isinstance(d["s_rule"], dict) and isinstance(d["q_ranges"], dict)


@pytest.mark.parametrize(
    "kw",
    [dict(n=0, theta=1.5, p=1.2), dict(n=2, theta=0.0, p=1.2), dict(n=2, theta=1.5, p=1.0)],
)
def test_regime_spec_validation(kw):
    with pytest.raises(ValueError):
        RegimeSpec(**kw)
