"""Monitors: mass, positivity, dissipation fit, classification, eps ladder.

Synthetic series pin the arithmetic: a constant series must report
C/c = F(0) exactly, an exponentially decaying one passes with C = 0, and a
flat series with a terminal spike must fail once the spike leaves the 99%
coverage quantile.
"""

import math

import numpy as np
import pytest

from fluxks.functionals import FunctionalRecord
from fluxks.grid import build_grid
from fluxks.model import InitialData, ModelParams, build_initial_data
from fluxks.monitors import (
    EPS_REFINEMENT_SLACK,
    MIN_DISSIPATION_RECORDS,
    RegimeVerdict,
    Verdict,
    check_dissipation_inequality,
    check_mass,
    check_positivity,
    classify,
    eps_refinement,
)
from fluxks.stepper import RunStatus, SimState, StepControls, simulate


def mk_rec(t, mass=1.0, u_linf=1.0, F1=1.0, F2=1.0):
    return FunctionalRecord(
        t=t, mass=mass, uq={2.0: 1.0}, u_linf=u_linf, v_l2=0.0, gradv_l2=0.0,
        gradv_ls=0.0, v_w1s=0.0, lap_v_l2=0.0, dissip_u={2.0: 0.0},
        F1=F1, F2=F2, clamped_mass_cumulative=0.0,
    )


def series(ts, fn, **kw):
    return [mk_rec(t, **{k: v for k, v in kw.items()}, F2=fn(t)) for t in ts]


# ------------------------------------------------------------------- mass


def test_check_mass_constant_passes():
    recs = [mk_rec(t) for t in np.linspace(0, 1, 20)]
    v = check_mass(recs)
    assert v.passed and v.worst_violation == 0.0
    assert v.details["reference_mass"] == 1.0


def test_check_mass_flags_jump():
    recs = [mk_rec(t) for t in np.linspace(0, 1, 10)]
    recs[6] = mk_rec(recs[6].t, mass=1.0 + 1e-6)
    v = check_mass(recs)
    assert not v.passed
    assert v.worst_violation == pytest.approx(1e-6, rel=1e-6)
    assert v.location == recs[6].t
    assert check_mass(recs, rtol=1e-5).passed


def test_check_mass_validation():
    with pytest.raises(ValueError):
        check_mass([])
    with pytest.raises(ValueError, match="positive"):
        check_mass([mk_rec(0.0, mass=0.0)])


def test_check_mass_reference_run(reference_run):
    v = check_mass(reference_run.records)
    assert v.passed, v.summary()
    assert v.worst_violation <= 1e-10


# -------------------------------------------------------------- positivity


def test_check_positivity_passes_and_flags(grid1d):
    g = grid1d(8)
    good = SimState(g, u=np.full(8, 1.0), v=np.full(8, 0.0), t=0.0, step_index=0)
    assert check_positivity([good]).passed
    vals = np.ones(8)
    vals[3] = -1e-6
    bad = SimState(g, u=vals, v=np.full(8, 0.0), t=0.7, step_index=1)
    v = check_positivity([good, bad])
    assert not v.passed
    assert v.worst_violation == pytest.approx(1e-6, rel=1e-12)
    assert v.location == 0.7
    with pytest.raises(ValueError):
        check_positivity([])


def test_check_positivity_reference_run(reference_run):
    v = check_positivity(reference_run.states)
    assert v.passed, v.summary()


# ------------------------------------------------------------- dissipation


def test_dissipation_equilibrium_exact_ratio():
    # constant F: quotients are exactly c*F, so C/c == F(0) for every c
    recs = series(np.linspace(0.0, 5.0, 40), lambda t: 8.0)
    v = check_dissipation_inequality(recs, which="F2")
    assert v.passed
    assert v.details["C_over_c"] == pytest.approx(8.0, rel=1e-12)
    assert v.details["F0"] == 8.0
    assert v.details["coverage"] >= 0.99
    # bound carries the 5% headroom over the stationary level
    assert v.details["bound"] == pytest.approx(8.0 * 1.05, rel=1e-12)


def test_dissipation_decaying_series_needs_no_source():
    recs = series(np.linspace(0.0, 6.0, 60), lambda t: 5.0 * math.exp(-t))
    v = check_dissipation_inequality(recs, which="F2")
    assert v.passed
    assert v.details["C"] == 0.0
    assert v.details["bound"] == pytest.approx(5.0 * 1.05, rel=1e-12)


def test_dissipation_flags_terminal_spike():
    # flat at 1 with a final ramp to 100: the ramp quotients fall outside
    # the 99% coverage, leaving the stationary bound, which the sup violates
    ts = np.linspace(0.0, 30.0, 300)
    f = np.ones(300)
    f[-2], f[-1] = 50.0, 100.0
    recs = [mk_rec(t, F2=val) for t, val in zip(ts, f)]
    v = check_dissipation_inequality(recs, which="F2")
    assert not v.passed
    assert v.worst_violation > 0.0
    assert v.location == pytest.approx(30.0)


def test_dissipation_f1_field_and_window():
    ts = np.linspace(0.0, 10.0, 50)
    recs = [mk_rec(t, F1=3.0, F2=1e6 * (1.0 + t)) for t in ts]
    v = check_dissipation_inequality(recs, which="F1")
    assert v.passed  # F2 garbage must not leak into the F1 check
    narrowed = check_dissipation_inequality(recs, which="F1", window=(0.0, 5.0))
    assert narrowed.passed
    with pytest.raises(ValueError, match="records"):
        check_dissipation_inequality(recs, which="F1", window=(0.0, 0.5))


def test_dissipation_validation():
    recs = [mk_rec(t) for t in np.linspace(0, 1, MIN_DISSIPATION_RECORDS - 1)]
    with pytest.raises(ValueError, match="records"):
        check_dissipation_inequality(recs)
    recs = [mk_rec(t) for t in np.linspace(0, 1, 12)]
    with pytest.raises(ValueError, match="which"):
        check_dissipation_inequality(recs, which="F3")


def test_dissipation_reference_run_both_functionals(reference_run):
    for which in ("F1", "F2"):
        v = check_dissipation_inequality(reference_run.records, which=which)
        assert v.passed, v.summary()


def test_verdict_summary_and_to_dict():
    v = Verdict(name="demo", passed=False, worst_violation=0.25, location=1.5,
                details={"k": 1})
    s = v.summary()
    assert "demo" in s and "FAIL" in s and "t=1.5" in s
    assert v.to_dict()["details"] == {"k": 1}


# ----------------------------------------------------------------- classify


def test_classify_flat_series_bounded():
    recs = [mk_rec(t, u_linf=2.0) for t in np.linspace(0, 10, 30)]
    v = classify(recs, RunStatus.COMPLETED)
    assert v.classification == "Bounded"
    assert v.sup_u_linf == 2.0
    assert v.terminal_status == "Completed"


def test_classify_exponential_growth():
    recs = [mk_rec(t, u_linf=math.exp(0.3 * t)) for t in np.linspace(0, 20, 40)]
    v = classify(recs, RunStatus.COMPLETED)
    assert v.classification == "Growing"
    assert v.growth_rate_estimate > 0.0
    assert "doubling" in v.reason


def test_classify_too_few_records():
    recs = [mk_rec(t) for t in np.linspace(0, 1, 5)]
    v = classify(recs, RunStatus.COMPLETED)
    assert v.classification == "Inconclusive"
    assert v.reason == "too few records"


def test_classify_terminal_statuses_dominate():
    recs = [mk_rec(t, u_linf=1.0) for t in np.linspace(0, 1, 30)]
    v = classify(recs, RunStatus.BLOWUP_SUSPECTED)
    assert v.classification == "BlowUpSuspected"
    v2 = classify(recs, RunStatus.NUMERICAL_FAILURE)
    assert v2.classification == "Inconclusive"
    assert "failure" in v2.reason


def test_classify_flat_with_outlier_is_not_bounded():
    # sup over 10x the tail median blocks the Bounded verdict
    recs = [mk_rec(t, u_linf=1.0) for t in np.linspace(0, 10, 40)]
    recs[30] = mk_rec(recs[30].t, u_linf=50.0)
    v = classify(recs, RunStatus.COMPLETED)
    assert v.classification != "Bounded"


def test_classify_downsampling_invariance(reference_run):
    full = classify(reference_run.records, reference_run.status)
    half = classify(reference_run.records[::2], reference_run.status)
    assert full.classification == half.classification == "Bounded"


def test_classify_deterministic():
    recs = [mk_rec(t, u_linf=1.0 + 0.01 * t) for t in np.linspace(0, 10, 30)]
    a = classify(recs, RunStatus.COMPLETED)
    b = classify(recs, RunStatus.COMPLETED)
    assert a == b


def test_regime_verdict_invariants():
    with pytest.raises(ValueError, match="classification"):
        RegimeVerdict("Diverging", 1.0, 0.0, "Completed", "", {})
    with pytest.raises(ValueError, match="BlowUpSuspected"):
        RegimeVerdict("BlowUpSuspected", 1.0, 0.0, "Completed", "", {})
    keys = set(RegimeVerdict("Bounded", 1.0, 0.0, "Completed", "r", {}).to_dict())
    assert keys == {
        "classification", "sup_u_linf", "growth_rate_estimate",
        "terminal_status", "reason", "stats",
    }


# ----------------------------------------------------------- eps refinement


def eps_setup(cells=64):
    g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    initial = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                                 v0_kind="u0_squared")
    controls = StepControls(t_end=0.5)
    return initial, controls


def test_eps_refinement_validation():
    initial, controls = eps_setup(16)
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    with pytest.raises(ValueError, match=">= 3"):
        eps_refinement(initial, params, controls, [1e-2, 1e-3])
    with pytest.raises(ValueError, match="decreasing"):
        eps_refinement(initial, params, controls, [1e-3, 1e-2, 1e-4])
    with pytest.raises(ValueError, match="\\[0, 1\\)"):
        eps_refinement(initial, params, controls, [2.0, 1e-2, 1e-3])


def test_eps_refinement_p2_distances_vanish():
    # p = 2 removes eps from the flux entirely: the ladder runs are
    # bit-identical and every distance is exactly zero
    initial, controls = eps_setup()
    params = ModelParams(chi=1.0, p=2.0, theta=2.0, eps=1e-2, n=1)
    v = eps_refinement(initial, params, controls, [1e-2, 1e-3, 1e-4])
    assert v.passed
    assert v.details["distances"] == [0.0, 0.0]
    assert v.details["statuses"] == ["Completed"] * 3
    assert v.location == v.details["t_compare"] == controls.t_end


def test_eps_refinement_contracting_ladder():
    initial, controls = eps_setup()
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-2, n=1)
    v = eps_refinement(initial, params, controls, [1e-2, 1e-3, 1e-4])
    assert v.passed, v.details
    d = v.details["distances"]
    assert len(d) == 2 and d[0] > 0.0
    assert d[1] <= EPS_REFINEMENT_SLACK * d[0]


def test_eps_refinement_compares_at_fixed_horizon():
    # long boundedness horizons must not leak into the refinement study:
    # the ladder is compared after one signal relaxation unit
    initial, _ = eps_setup(16)
    controls = StepControls(t_end=50.0)
    params = ModelParams(chi=1.0, p=2.0, theta=2.0, eps=1e-2, n=1)
    v = eps_refinement(initial, params, controls, [1e-2, 1e-3, 1e-4])
    assert v.details["t_compare"] == 1.0
    assert v.location == 1.0
