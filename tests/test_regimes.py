"""Exponent algebra and feasibility audits.

Worked point used throughout (hand arithmetic): n = 2, theta = 1.5, p = 1.2,
q = r = 2 gives a* = 2*(2*2 + 0) / (2*(2 - 0.4)) = 2.5, b* = 0.5, and
closure value 2 * 2.5 * 0.5 * 0.2 = 0.5 < 2.
"""

import math

import pytest

from fluxks.regimes import (
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


def test_audit_semigroup_route_skips_a_rung_whose_q_rounds_to_one():
    # at theta=1.5, p=2.984555984555984 (p_c = 3) the rung r = 1 + 2^-8 puts
    # the lead (theta - 1/r)(p - 1) within an ulp of 1, where half the slack
    # rounds q to 1 (condition_1d_value rejects it): that rung is skipped
    theta, p = 1.5, 2.984555984555984
    rep = audit(RegimeSpec(n=1, theta=theta, p=p))
    assert rep.route == "semigroup-1d"
    assert rep.chosen_q > 1.0 and rep.chosen_r == 1.0 + 2.0**-9
    assert rep.condition_1d < 1.0
    assert rep.condition_1d == condition_1d_value(theta, p, rep.chosen_q, rep.chosen_r)


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
    # 1d keeps the best semigroup value as a diagnostic
    assert rep.condition_1d is not None


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
