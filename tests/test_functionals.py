"""Entropy functionals, dissipation integrals, and the CSV renderer.

Constant states give exact hand values: on the unit interval with u = 2,
v = 3, q = 2, c = 1 the pair functional is 4 + 9 = 13; any constant state
has zero dissipation and zero gradient energy.
"""

import io
import math

import numpy as np
import pytest
from conftest import reference_setup
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from fluxks import functionals
from fluxks.functionals import (
    CSV_SCALAR_COLUMNS,
    FunctionalRecord,
    MonitorSettings,
    Sample,
    csv_columns,
    record,
    records_to_csv,
    sample,
    write_records_csv,
)
from fluxks.grid import (
    FieldNorms,
    build_grid,
    integrate,
    laplacian_values,
    unit_grid,
)
from fluxks.model import ModelParams, build_initial_data
from fluxks.regimes import relative_p, s_rule
from fluxks.stepper import SimState, StepControls, simulate


def const_state(grid, u_val, v_val, t=0.0):
    return SimState(
        grid,
        u=np.full(grid.shape, u_val),
        v=np.full(grid.shape, v_val),
        t=t,
        step_index=0,
    )


# ------------------------------------------------------------- integrals


def test_density_integral_constant(grid1d):
    g = grid1d(16)
    u = np.full(g.shape, 2.0)
    norms = FieldNorms(g, u)
    assert norms.integral(3.0) == pytest.approx(8.0, abs=1e-13)
    assert norms.integral(1.0) == pytest.approx(integrate(g, u), abs=1e-14)
    with pytest.raises(ValueError):
        norms.integral(0.0)


def f_record(grid, u, v, q_f1=2.0, c_f1=1.0, q_f2=2.0):
    # the record of one state, with F1 and F2 at the given indices
    st = SimState(grid, u=u, v=v, t=0.0, step_index=0)
    return record(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=q_f1, q_f2=q_f2, c_f1=c_f1))


def test_entropy_f1_hand_values(grid1d):
    g = grid1d(16)
    u1, v0 = np.full(g.shape, 1.0), np.full(g.shape, 0.0)
    assert f_record(g, u1, v0, 2.0, 1.0).F1 == pytest.approx(1.0, abs=1e-13)
    # q < 1 flips the density sign: -1 + 2*1 = 1
    v1 = np.full(g.shape, 1.0)
    assert f_record(g, u1, v1, 0.5, 2.0).F1 == pytest.approx(1.0, abs=1e-13)
    u2, v3 = np.full(g.shape, 2.0), np.full(g.shape, 3.0)
    assert f_record(g, u2, v3, 2.0, 1.0).F1 == pytest.approx(13.0, abs=1e-12)


def test_entropy_f2_constant_state(grid1d):
    g = grid1d(32)
    u = np.full(g.shape, 2.0)
    v = np.full(g.shape, 4.0)
    assert f_record(g, u, v, q_f2=3.0).F2 == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(ValueError, match="q_f2 must exceed 1"):
        MonitorSettings(q_f2=1.0)


def test_entropy_f2_cosine_gradient_energy():
    # int |grad cos(pi x)|^2 = pi^2/2.  The discrete face energy is exactly
    # A^2 (1/2 + h sin^2(pi h)) with A = (2/h) sin(pi h / 2): the interior
    # trapezoid sum of sin^2 telescopes to 1/2 and the two boundary faces
    # carry the copied interior slope A sin(pi h) at half-cell weight.
    for cells in (64, 128):
        g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
        u = np.full(g.shape, 1.0)
        (x,) = g.center_mesh()
        val = f_record(g, u, np.cos(math.pi * x)).F2
        h = 1.0 / cells
        amp = 2.0 / h * math.sin(math.pi * h / 2.0)
        closed = amp * amp * (0.5 + h * math.sin(math.pi * h) ** 2)
        assert val == pytest.approx(1.0 + closed, abs=1e-12)
        # and the continuum limit is reached at second order overall
        assert abs(val - (1.0 + math.pi**2 / 2.0)) < 2.0 * h**2 * math.pi**4 / 24.0


def test_dissipation_constant_is_zero(grid1d):
    g = grid1d(16)
    assert FieldNorms(g, np.full(g.shape, 5.0)).dissipation_integral(2.0) == 0.0


def test_dissipation_q2_linear_field_exact(grid1d):
    # q = 2 drops the density factor; grad(1 + x) = 1 and the face
    # quadrature tiles the domain, so the integral is exactly 1
    g = grid1d(50)
    (x,) = g.center_mesh()
    assert FieldNorms(g, 1.0 + x).dissipation_integral(2.0) == pytest.approx(1.0, abs=1e-13)


def face_density(values, axis):
    # per face of one axis, the mean of its two cells; a boundary face takes
    # its own cell
    cells = np.moveaxis(values, axis, 0)
    dens = np.concatenate([cells[:1], 0.5 * (cells[:-1] + cells[1:]), cells[-1:]])
    return np.moveaxis(dens, 0, axis)


def test_dissipation_matches_brute_force():
    q = 2.6
    for g in (build_grid("cartesian-1d", extents=(1.0,), cells=(24,)),
              build_grid("cartesian-2d", extents=(1.0, 0.7), cells=(7, 5)),
              build_grid("radial-n", extents=(1.0,), cells=(24,), n=3)):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.5, 2.0, size=g.shape)
        norms = FieldNorms(g, u)
        brute = sum(float(np.sum(face_density(u, a) ** (q - 2.0) * grads**2 * fw))
                    for a, (grads, fw) in enumerate(zip(norms.faces, g.face_weights)))
        assert norms.dissipation_integral(q) == pytest.approx(brute, rel=1e-15), g.mode


def test_dissipation_floor_keeps_negative_powers_finite(grid1d):
    g = grid1d(16)
    vals = np.ones(16)
    vals[5] = 0.0  # zero cell forces the face floor into play
    norms = FieldNorms(g, vals)
    out = norms.dissipation_integral(1.5)
    assert math.isfinite(out) and out >= 0.0
    with pytest.raises(ValueError):
        norms.dissipation_integral(0.0)


# ----------------------------------------------------------------- record


def test_record_equilibrium_hand_values(grid1d):
    g = grid1d(32)
    st = const_state(g, 2.0, 4.0)
    rec = record(st, MonitorSettings(q_set=(2.0, 3.0), s=4.0, q_f1=2.0, q_f2=2.0, c_f1=1.0))
    assert rec.mass == pytest.approx(2.0, abs=1e-13)
    assert rec.u_linf == 2.0
    assert rec.uq[2.0] == pytest.approx(4.0, abs=1e-12)
    assert rec.uq[3.0] == pytest.approx(8.0, abs=1e-12)
    assert rec.v_l2 == pytest.approx(16.0, abs=1e-11)
    assert rec.gradv_l2 == 0.0
    assert rec.gradv_ls == 0.0
    assert rec.lap_v_l2 == pytest.approx(0.0, abs=1e-18)
    assert rec.v_w1s == pytest.approx(4.0, abs=1e-12)
    assert rec.dissip_u[2.0] == 0.0
    assert rec.F1 == pytest.approx(4.0 + 16.0, abs=1e-11)
    assert rec.F2 == pytest.approx(4.0, abs=1e-12)


def test_record_max_norm_branch(grid1d):
    g = grid1d(16)
    st = const_state(g, 1.0, 3.0)
    rec = record(st, MonitorSettings(q_set=(2.0,), s=math.inf, q_f1=2.0, q_f2=2.0, c_f1=1.0))
    assert rec.gradv_ls == 0.0
    assert rec.v_w1s == 3.0  # max(||v||_inf, max |grad v|)


def test_record_f2_additivity_is_exact(grid1d, reference_run):
    # F2 must equal uq[q_f2] + gradv_l2 as floats, not just approximately
    _, _, params, _ = reference_setup()
    q_f2 = MonitorSettings().resolve(params).q_f2
    for rec in reference_run.records[:: max(1, len(reference_run.records) // 7)]:
        assert rec.F2 == rec.uq[q_f2] + rec.gradv_l2


def test_record_mass_equals_integral_and_holder(reference_run):
    for rec in reference_run.records:
        for q, val in rec.uq.items():
            if q > 1.0:
                # ||u||_1 <= |Omega|^(1-1/q) ||u||_q on the unit interval
                assert rec.mass <= val ** (1.0 / q) * (1.0 + 1e-12)


def test_record_brute_force_cross_check(grid1d):
    g = grid1d(20)
    rng = np.random.default_rng(12)
    u = rng.uniform(0.2, 2.0, size=20)
    v = rng.uniform(0.0, 1.5, size=20)
    st = SimState(g, u=u, v=v, t=0.3, step_index=7, clamped_mass_cumulative=1e-13)
    s = 3.0
    rec = record(st, MonitorSettings(q_set=(1.5, 2.0), s=s, q_f1=2.0, q_f2=2.0, c_f1=0.5))
    w = g.cell_weights
    assert rec.t == 0.3
    assert rec.mass == pytest.approx(float(np.sum(u * w)), rel=1e-15)
    assert rec.u_linf == float(np.abs(u).max())
    assert rec.uq[1.5] == pytest.approx(float(np.sum(u**1.5 * w)), rel=1e-15)
    assert rec.v_l2 == pytest.approx(float(np.sum(v**2 * w)), rel=1e-15)
    v_norms = FieldNorms(g, v)
    assert rec.gradv_l2 == pytest.approx(v_norms.grad_lp(2.0) ** 2, rel=1e-15)
    assert rec.gradv_ls == pytest.approx(v_norms.grad_lp(s) ** s, rel=1e-15)
    expected_w1s = (v_norms.lp(s) ** s + rec.gradv_ls) ** (1.0 / s)
    assert rec.v_w1s == pytest.approx(expected_w1s, rel=1e-15)
    lap = laplacian_values(g, v)
    assert rec.lap_v_l2 == pytest.approx(float(np.sum(lap**2 * w)), rel=1e-14)
    assert rec.dissip_u[2.0] == pytest.approx(FieldNorms(g, u).dissipation_integral(2.0), rel=1e-15)
    assert rec.F1 == pytest.approx(rec.uq[2.0] + 0.5 * rec.v_l2, rel=1e-14)
    assert rec.F2 == rec.uq[2.0] + rec.gradv_l2
    assert rec.clamped_mass_cumulative == 1e-13


@pytest.mark.parametrize("mode,cells,s", [
    ("cartesian-1d", (24,), 3.0),
    ("cartesian-2d", (6, 5), math.inf),
    ("radial-n", (12,), 2.5),
])
def test_record_builds_one_gradient_per_field(monkeypatch, mode, cells, s):
    # one measurement gradient of u serves every q, one of v both indices;
    # the values equal (==) those of fresh FieldNorms
    import fluxks.grid as grid_mod

    g = build_grid(mode, extents=(1.0,) * len(cells), cells=cells,
                   n=3 if mode == "radial-n" else None)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.2, 2.0, size=g.shape)
    v = rng.uniform(0.0, 1.5, size=g.shape)
    st = SimState(g, u=u, v=v, t=0.1, step_index=1)
    q_set = (1.5, 2.0, 3.0)

    calls = []
    original = grid_mod.gradient_faces

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "gradient_faces", counted)
    rec = record(st, MonitorSettings(q_set=q_set, s=s, q_f1=3.0, q_f2=3.0, c_f1=1.0))
    assert len(calls) == 2
    monkeypatch.undo()

    u_norms = FieldNorms(g, u)
    for q in q_set:
        assert rec.dissip_u[q] == u_norms.dissipation_integral(q)
    v_norms = FieldNorms(g, v)
    assert rec.gradv_l2 == v_norms.grad_integral(2.0)
    if math.isinf(s):
        assert rec.gradv_ls == v_norms.grad_lp(math.inf)
    else:
        assert rec.gradv_ls == v_norms.grad_integral(s)


@pytest.mark.parametrize("q_f1,c_f1", [(1.5, 2.0), (0.5, 0.7), (3.0, 0.0)])
def test_record_f1_reuses_its_integrals(grid1d, q_f1, c_f1):
    # F1 is assembled from the record's own uq[q_f1] and v_l2, bit for bit,
    # and equals F1 from fresh FieldNorms
    g = grid1d(24)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.2, 2.0, size=g.shape)
    v = rng.uniform(0.0, 1.5, size=g.shape)
    st = SimState(g, u=u, v=v, t=0.3, step_index=2)
    monitors = MonitorSettings(q_set=(0.5, 1.5, 2.0, 3.0), s=2.0, q_f1=q_f1, q_f2=3.0, c_f1=c_f1)
    rec = record(st, monitors)
    sign = 1.0 if q_f1 > 1.0 else -1.0
    assert rec.F1 == sign * rec.uq[q_f1] + c_f1 * rec.v_l2
    assert rec.F1 == sign * FieldNorms(g, u).integral(q_f1) + c_f1 * FieldNorms(g, v).integral(2.0)
    # the settings record reads reject q_f1 = 1, where the sign is undefined,
    # and a negative weight
    with pytest.raises(ValueError, match="!= 1"):
        record(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=1.0, q_f2=2.0, c_f1=1.0))
    with pytest.raises(ValueError, match=">= 0"):
        record(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=2.0, q_f2=2.0, c_f1=-1.0))


@pytest.mark.parametrize("unset", ["q_set", "s", "q_f1", "q_f2"])
def test_record_requires_resolved_settings(grid1d, unset):
    st = const_state(grid1d(8), 1.0, 1.0)
    full = dict(q_set=(2.0,), s=2.0, q_f1=2.0, q_f2=2.0)
    monitors = MonitorSettings(**{**full, unset: None})
    with pytest.raises(ValueError, match=r"MonitorSettings\.resolve"):
        record(st, monitors)


def test_monitor_settings_indices_fill_only_unset_fields():
    # n=2, theta=1.2 at p fraction 0.8: the audit's F1 witness lies in (0, 1)
    params = ModelParams(chi=1.0, p=relative_p(2, 1.2, 0.8), theta=1.2, eps=1e-3, n=2)
    rule = MonitorSettings().resolve(params)
    q_set, s, q_f1, q_f2 = rule.q_set, rule.s, rule.q_f1, rule.q_f2
    assert q_f1 == pytest.approx(0.575, abs=1e-12)
    assert q_f2 == pytest.approx(1.65, abs=1e-12)
    assert q_set == (q_f1, q_f2, 2.0)
    assert s == s_rule(2, params.p, 1.2).value
    # explicit fields pass through; the unset ones keep their rule values
    explicit = MonitorSettings(q_set=(3.0, 1.5), s=math.inf, q_f1=1.5, q_f2=3.0)
    assert explicit.q_set == (1.5, 3.0)
    assert explicit.resolve(params) == MonitorSettings((1.5, 3.0), math.inf, 1.5, 3.0)
    assert MonitorSettings(q_f2=3.0).resolve(params) == MonitorSettings((q_f1, 2.0, 3.0), s, q_f1, 3.0)
    assert MonitorSettings(s=4.0, q_set=(2.0,)).resolve(params) == MonitorSettings((2.0,), 4.0, q_f1, q_f2)


# user-set monitor fields, each drawn within what MonitorSettings accepts
_USER_MONITORS = hs.fixed_dictionaries({}, optional={
    "q_set": hs.lists(hs.floats(0.1, 5.0), min_size=1, max_size=4).map(tuple),
    "s": hs.one_of(hs.floats(1.0, 10.0), hs.just(math.inf)),
    "q_f1": hs.floats(0.1, 5.0).filter(lambda q: q != 1.0),
    "q_f2": hs.floats(1.0, 5.0, exclude_min=True),
    "c_f1": hs.floats(0.0, 3.0),
})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=hs.integers(1, 6),
    theta=hs.floats(0.0, 4.0, exclude_min=True),
    p=hs.floats(1.0, 4.0, exclude_min=True),
    user=_USER_MONITORS,
)
@example(n=1, theta=1.0, p=1.5, user={})  # n*theta = 1: no critical exponent
@example(n=2, theta=0.3, p=2.0, user={})
@example(n=6, theta=0.05, p=1.0001, user={"q_f2": 3.0})
@example(n=2, theta=1.2, p=relative_p(2, 1.2, 0.8), user={})  # q_f1 in (0, 1)
@example(n=1, theta=1.5, p=2.984555984555984, user={})  # the semigroup route near p_c = 3
def test_resolve_sets_every_index_keeps_user_fields_and_is_idempotent(n, theta, p, user):
    params = ModelParams(chi=1.0, p=p, theta=theta, eps=1e-3, n=n)
    given_settings = MonitorSettings(**user)
    resolved = given_settings.resolve(params)
    assert None not in (resolved.q_set, resolved.s, resolved.q_f1, resolved.q_f2)
    assert resolved.resolve(params) == resolved
    for name in user:
        assert getattr(resolved, name) == getattr(given_settings, name)
    # a short run records exactly the resolved q_set.  Near p = 1 the rule's
    # F1 index grows like 1/(p - 1), and from about 1750 on int u^q of this
    # data overflows: the first record then raises (a defect of the rule
    # named in CHANGES.md), so the run is made only for indices up to 100
    if max(*resolved.q_set, resolved.q_f1, resolved.q_f2) > 100.0:
        return
    init = build_initial_data(unit_grid(n, 8), family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_pow_theta", theta=theta)
    res = simulate(init, params, StepControls(t_end=1e-3, dt_max=1e-3), monitors=given_settings)
    assert len(res.records) == 2
    for rec in res.records:
        assert tuple(rec.uq) == tuple(rec.dissip_u) == resolved.q_set


# ---------------------------------------------------------------- samples

SAMPLE_FIELDS = ("t", "mass", "u_linf", "gradv_l2", "F2")


def sample_bits(rec):
    return [np.float64(getattr(rec, name)).tobytes() for name in SAMPLE_FIELDS]


@pytest.mark.parametrize("mode,cells,theta,p", [
    ("cartesian-1d", (48,), 2.0, 1.5),
    ("radial-n", (32,), 2.0, 1.1),
    ("cartesian-2d", (16, 12), 1.5, 1.2),
])
def test_sample_equals_record_bit_for_bit_on_run_states(mode, cells, theta, p):
    # every state of a run, and a run that records samples against one that
    # records in full: the five fields carry the same bits
    n = 3 if mode == "radial-n" else len(cells)
    g = build_grid(mode, extents=(1.0,) * len(cells), cells=cells,
                   n=n if mode == "radial-n" else None)
    params = ModelParams(chi=2.0, p=p, theta=theta, eps=1e-3, n=n)
    init = build_initial_data(g, family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_pow_theta", theta=theta)
    controls = StepControls(t_end=0.3, dt_max=0.02)
    full = simulate(init, params, controls, record_every=3, keep_states="all")
    monitors = MonitorSettings().resolve(params)
    assert full.status.value == "Completed" and len(full.states) == 16
    for state in full.states:
        smp = sample(state, monitors)
        assert type(smp) is Sample
        assert sample_bits(smp) == sample_bits(record(state, monitors))
    lean = simulate(init, params, controls, record_every=3, record=sample)
    assert lean.n_steps == full.n_steps and len(lean.records) == len(full.records)
    for smp, rec in zip(lean.records, full.records):
        assert type(smp) is Sample
        assert sample_bits(smp) == sample_bits(rec)


def test_simulate_looks_up_its_default_record_per_call(grid1d, monkeypatch):
    # a wrapper bound to functionals.record after import is what simulate
    # calls by default; a record argument replaces it
    calls = []
    original = functionals.record

    def counted(state, monitors):
        calls.append(state.t)
        return original(state, monitors)

    monkeypatch.setattr(functionals, "record", counted)
    init = build_initial_data(grid1d(16), family="cosine", base=1.0, amplitude=0.5,
                              v0_kind="u0_pow_theta", theta=2.0)
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    controls = StepControls(t_end=0.1, dt_max=0.05)
    res = simulate(init, params, controls, record_every=1)
    assert calls == [rec.t for rec in res.records] and len(calls) == 3
    res = simulate(init, params, controls, record_every=1, record=sample)
    assert len(calls) == 3 and all(type(rec) is Sample for rec in res.records)


def test_sample_rejects_what_a_record_rejects():
    # the same checks and messages as FunctionalRecord's, field by field
    good = dict(t=0.0, mass=1.0, u_linf=1.0, gradv_l2=0.0, F2=1.0)
    Sample(**good)
    Sample(**{**good, "F2": -1.0})  # F2, like F1, may be signed
    for name, bad in (("F2", math.nan), ("F2", math.inf), ("mass", -math.inf),
                      ("mass", -1e-3), ("u_linf", -1.0), ("gradv_l2", -1e-300)):
        with pytest.raises(ValueError) as by_sample:
            Sample(**{**good, name: bad})
        with pytest.raises(ValueError) as by_record:
            FunctionalRecord(**{**good_record_kwargs(), name: bad})
        assert str(by_sample.value) == str(by_record.value)
        assert name in str(by_sample.value)


def test_sample_requires_a_resolved_q_f2(grid1d):
    st = const_state(grid1d(8), 1.0, 1.0)
    with pytest.raises(ValueError, match=r"MonitorSettings\.resolve"):
        sample(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=2.0))
    # q_f2 alone suffices: a sample reads no other index
    assert sample(st, MonitorSettings(q_f2=2.0)).F2 == 1.0


# ------------------------------------------------------------- validation


def good_record_kwargs():
    return dict(
        t=0.0, mass=1.0, uq={2.0: 1.0}, u_linf=1.0, v_l2=0.0, gradv_l2=0.0,
        gradv_ls=0.0, v_w1s=0.0, lap_v_l2=0.0, dissip_u={2.0: 0.0},
        F1=1.0, F2=1.0, clamped_mass_cumulative=0.0,
    )


def test_functional_record_rejects_nonfinite():
    for field, bad in (
        ("mass", math.inf),
        ("u_linf", math.nan),
        ("F2", -math.inf),
        ("v_w1s", math.nan),
    ):
        kw = good_record_kwargs()
        kw[field] = bad
        with pytest.raises(ValueError, match="finite"):
            FunctionalRecord(**kw)
    kw = good_record_kwargs()
    kw["uq"] = {2.0: math.inf}
    with pytest.raises(ValueError, match="finite"):
        FunctionalRecord(**kw)


def test_functional_record_rejects_negative_integrals():
    for field in ("mass", "v_l2", "gradv_l2", "clamped_mass_cumulative"):
        kw = good_record_kwargs()
        kw[field] = -1e-3
        with pytest.raises(ValueError, match=">= 0"):
            FunctionalRecord(**kw)
    kw = good_record_kwargs()
    kw["dissip_u"] = {2.0: -1.0}
    with pytest.raises(ValueError, match=">= 0"):
        FunctionalRecord(**kw)


def test_functional_record_allows_negative_f1():
    # q < 1 branch makes F1 legitimately negative
    kw = good_record_kwargs()
    kw["F1"] = -2.0
    FunctionalRecord(**kw)


# -------------------------------------------------------------------- CSV


def test_csv_scalar_columns_are_the_scalar_fields_in_order():
    # the serialized shape: a reordered or renamed field changes every CSV
    assert CSV_SCALAR_COLUMNS == (
        "t", "mass", "u_linf", "v_l2", "gradv_l2", "gradv_ls", "v_w1s",
        "lap_v_l2", "F1", "F2", "clamped_mass_cumulative",
    )


def test_csv_columns_order_and_q_formatting():
    cols = csv_columns((2.0, 1.5))
    assert cols[: len(CSV_SCALAR_COLUMNS)] == list(CSV_SCALAR_COLUMNS)
    assert cols[len(CSV_SCALAR_COLUMNS):] == ["uq_1.5", "uq_2", "dissip_1.5", "dissip_2"]


def test_csv_roundtrip_and_determinism(grid1d):
    g = grid1d(16)
    recs = []
    rng = np.random.default_rng(2)
    for i in range(3):
        u = rng.uniform(0.5, 1.5, size=16)
        v = rng.uniform(0.0, 1.0, size=16)
        st = SimState(g, u=u, v=v, t=0.1 * i, step_index=i)
        recs.append(record(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=2.0, q_f2=2.0, c_f1=1.0)))
    text1 = records_to_csv(recs, meta_comment="alpha\nbeta")
    text2 = records_to_csv(recs, meta_comment="alpha\nbeta")
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == "# alpha" and lines[1] == "# beta"
    header = lines[2].split(",")
    assert header == csv_columns((2.0,))
    # repr floats parse back to the exact values
    row = lines[3].split(",")
    assert float(row[0]) == recs[0].t
    assert float(row[1]) == recs[0].mass
    assert float(row[header.index("F2")]) == recs[0].F2


def test_csv_rejects_empty():
    with pytest.raises(ValueError):
        records_to_csv([])


def test_write_records_csv_file(tmp_path, grid1d):
    g = grid1d(8)
    st = const_state(g, 1.0, 0.0)
    rec = record(st, MonitorSettings(q_set=(2.0,), s=2.0, q_f1=2.0, q_f2=2.0, c_f1=1.0))
    path = tmp_path / "out.csv"
    write_records_csv([rec], path, meta_comment="meta")
    body = path.read_text()
    assert body == records_to_csv([rec], meta_comment="meta")
