"""Config parsing: strict schema, defaults, lossless effective() round-trip."""

import copy
import json
import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from fluxks.config import RunConfig, parse_config, parse_config_dict
from fluxks.errors import ConfigError, FluxksError
from fluxks.model import mollify_initial_data
from fluxks.regimes import relative_p
from fluxks.stepper import StepControls, simulate
from fluxks.sweep import SweepSpec, parse_sweep_config, parse_sweep_config_dict, sweep_points


def base_cfg(**sections):
    cfg = {
        "grid": {"mode": "cartesian-1d", "extents": [1.0], "cells": [64]},
        "model": {"chi": 1.0, "p": 1.5, "theta": 2.0, "eps": 1e-3},
        "controls": {"t_end": 1.0},
    }
    for key, val in sections.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def test_minimal_config_defaults():
    cfg = parse_config_dict(base_cfg())
    assert cfg.grid.mode == "cartesian-1d"
    assert cfg.grid.cells == (64,) and cfg.grid.extents == (1.0,)
    assert cfg.grid.n == 1 and cfg.model.n == 1
    assert (cfg.initial.family, cfg.initial.base, cfg.initial.amplitude) == ("cosine", 1.0, 0.5)
    assert cfg.initial.v0 == "u0_squared" and cfg.initial.v0_value == 0.0
    assert cfg.controls.dt_max == 0.1
    assert cfg.controls.dt_min == 1e-10
    assert cfg.controls.cfl_safety == 0.4
    assert cfg.controls.blowup_linf_threshold == 1e6
    assert cfg.monitors.q_set is None and cfg.monitors.s is None
    assert cfg.monitors.q_f1 is None and cfg.monitors.q_f2 is None
    assert cfg.monitors.c_f1 == 1.0
    assert cfg.record_every == 5 and cfg.mollify is True


def test_config_error_is_value_error_and_fluxks_error():
    with pytest.raises(ValueError):
        parse_config_dict({})
    with pytest.raises(FluxksError):
        parse_config_dict({})


FULL = base_cfg(
    grid={"mode": "radial-n", "extents": [1.0], "cells": [32], "n": 3},
    model={"n": 3},
    initial={"family": "gaussian", "base": 0.5, "amplitude": 2.0, "width": 0.2,
             "v0": "zero", "v0_value": 0.0},
    controls={"t_end": 0.5, "dt_max": 0.05, "dt_min": 1e-9, "cfl_safety": 0.3,
              "blowup_linf_threshold": 1e5},
    monitors={"q_set": [3, 1.5, 3, 2], "s": "inf", "q_f1": 1.5, "q_f2": 3,
              "c_f1": 2.0},
    record_every=10,
    mollify=False,
)


def test_full_config_and_q_set_normalization():
    cfg = parse_config_dict(copy.deepcopy(FULL))
    assert cfg.grid.n == 3 and cfg.model.n == 3
    assert cfg.monitors.q_set == (1.5, 2.0, 3.0)  # deduped, sorted
    assert cfg.monitors.s == math.inf
    assert cfg.monitors.q_f1 == 1.5 and cfg.monitors.q_f2 == 3.0
    assert cfg.mollify is False


@pytest.mark.parametrize("raw", [base_cfg(), FULL])
def test_effective_round_trip_is_lossless(raw):
    cfg = parse_config_dict(copy.deepcopy(raw))
    echoed = cfg.effective()
    json.dumps(echoed)  # must be JSON-ready, including s = "inf"
    assert parse_config_dict(echoed) == cfg
    if cfg.monitors.s == math.inf:
        assert echoed["monitors"]["s"] == "inf"


def number(lo, hi, exclude_min=False):
    """A JSON number in [lo, hi] (or (lo, hi]), spelled as an integer or a float."""
    floats = hs.floats(lo, hi, exclude_min=exclude_min)
    i_lo, i_hi = math.floor(lo) + 1 if exclude_min else math.ceil(lo), math.floor(hi)
    return hs.integers(i_lo, i_hi) | floats if i_lo <= i_hi else floats


@hs.composite
def some_of(draw, **keys):
    """A dict holding each of ``keys`` one time in two, drawn from its strategy."""
    return {k: draw(v) for k, v in keys.items() if draw(hs.booleans())}


@hs.composite
def valid_run_configs(draw):
    """Valid run configs: every optional key and section may be absent."""
    mode = draw(hs.sampled_from(["cartesian-1d", "cartesian-2d", "radial-n"]))
    rank = 2 if mode == "cartesian-2d" else 1
    grid = {
        "mode": mode,
        "extents": draw(hs.lists(number(0.5, 3.0), min_size=rank, max_size=rank)),
        "cells": draw(hs.lists(hs.sampled_from([4, 8, 12.0, 16]), min_size=rank, max_size=rank)),
    }
    if mode == "radial-n":
        grid["n"] = draw(hs.integers(1, 6))
    else:
        grid.update(draw(some_of(n=hs.sampled_from([None, rank]))))
    model = {
        "chi": draw(number(0.0, 5.0)),
        "p": draw(number(1.0, 3.0, exclude_min=True)),
        "theta": draw(number(0.1, 3.0)),
        "eps": draw(number(0.0, 0.9)),
        **draw(some_of(n=hs.just(grid.get("n") or rank))),
    }
    controls = {
        "t_end": draw(number(0.1, 10.0)),
        **draw(some_of(
            dt_max=number(0.01, 1.0),
            dt_min=hs.floats(1e-10, 1e-3),
            cfl_safety=number(0.1, 1.0),
            blowup_linf_threshold=number(10.0, 1e8),
        )),
    }
    # base >= 1 >= amplitude keeps every family's u0 admissible
    initial = some_of(
        family=hs.sampled_from(["cosine", "gaussian", "constant"]),
        base=number(1.0, 3.0),
        amplitude=number(0.0, 1.0),
        width=number(0.05, 1.0),
        v0=hs.sampled_from(["u0_pow_theta", "u0_squared", "zero", "constant"]),
        v0_value=number(0.0, 2.0),
    )
    monitors = some_of(
        q_set=hs.lists(hs.sampled_from([0.5, 2, 2.0, 3]), min_size=1, max_size=6) | hs.none(),
        s=hs.none() | hs.just("inf") | number(1.0, 8.0),
        q_f1=hs.none() | number(1.0, 4.0, exclude_min=True),
        q_f2=hs.none() | number(1.0, 4.0, exclude_min=True),
        c_f1=number(0.0, 3.0),
    )
    cfg = {"grid": grid, "model": model, "controls": controls}
    # each optional section is present three times in four
    for key, section in (("initial", initial), ("monitors", monitors)):
        if draw(hs.sampled_from([True, True, True, False])):
            cfg[key] = draw(section)
    return {**cfg, **draw(some_of(record_every=hs.integers(1, 50), mollify=hs.booleans()))}


def float_spelled(obj, key=None):
    """``obj`` with every integer spelled as a float, but for the integer keys."""
    if isinstance(obj, dict):
        return {k: float_spelled(v, k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [float_spelled(v, key) for v in obj]
    if type(obj) is int and key not in ("n", "record_every"):
        return float(obj)
    return obj


@settings(max_examples=150, derandomize=True, deadline=None)
@given(valid_run_configs())
def test_effective_round_trip_property(raw):
    cfg = parse_config_dict(raw)
    echoed = json.loads(json.dumps(cfg.effective(), allow_nan=False))
    again = parse_config_dict(echoed)
    assert again == cfg
    assert again.effective() == echoed
    # the echo does not depend on how a number is spelled: 2 and 2.0 echo alike
    respelled = parse_config_dict(float_spelled(raw)).effective()
    assert json.dumps(respelled, sort_keys=True) == json.dumps(echoed, sort_keys=True)


def test_root_and_section_shape_errors():
    with pytest.raises(ConfigError, match="root must be an object"):
        parse_config_dict([1, 2])
    with pytest.raises(ConfigError, match="section 'grid' must be an object"):
        parse_config_dict(base_cfg(grid=[1]))


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda c: c.update(extra=1), r"unknown key\(s\) \['extra'\] in config"),
        (lambda c: c["grid"].update(ghost=1), "in grid"),
        (lambda c: c["model"].update(mu=1), "in model"),
        (lambda c: c.update(initial={"blob": 1}), "in initial"),
        (lambda c: c["controls"].update(t_start=0), "in controls"),
        (lambda c: c.update(monitors={"qset": [2]}), "in monitors"),
    ],
)
def test_unknown_keys_point_at_section(mutate, match):
    cfg = base_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(cfg)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda c: c.pop("grid"), "missing required section 'grid'"),
        (lambda c: c.pop("model"), "missing required section 'model'"),
        (lambda c: c.pop("controls"), "missing required section 'controls'"),
        (lambda c: c["grid"].pop("mode"), "grid.mode"),
        (lambda c: c["model"].pop("chi"), "model.chi"),
        (lambda c: c["controls"].pop("t_end"), "controls.t_end"),
    ],
)
def test_missing_required_pieces(mutate, match):
    cfg = base_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(cfg)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda c: c["controls"].update(t_end=True), "must be a number"),
        (lambda c: c["grid"].update(cells=[64.5]), "must be integers"),
        (lambda c: c["grid"].update(cells=[True]), "must be a number"),
        (lambda c: c["grid"].update(extents=[]), "nonempty array"),
        (lambda c: c.update(mollify=1), "must be a boolean"),
        (lambda c: c.update(record_every="3"), "must be an integer"),
        (lambda c: c.update(monitors={"s": True}), 'must be a number, "inf", or null'),
        (lambda c: c["grid"].update(mode="cartesian-3d"), "grid.mode must be one of"),
        (lambda c: c.update(initial={"family": "ramp"}), "initial.family"),
        (lambda c: c.update(initial={"v0": "cube"}), "initial.v0"),
        (lambda c: c["grid"].update(extents=[math.inf]),
         r"grid\.extents\[0\] must be a finite number"),
        (lambda c: c.update(monitors={"q_set": [2.0, math.nan]}),
         r"monitors\.q_set\[1\] must be a finite number"),
    ],
)
def test_type_and_choice_errors(mutate, match):
    cfg = base_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(cfg)


NON_FINITE_KEYS = [
    "controls.dt_max",
    "controls.blowup_linf_threshold",
    "model.chi",
    "monitors.c_f1",
    "monitors.q_f1",
    "monitors.q_f2",
    "monitors.s",
    "initial.amplitude",
]


@pytest.mark.parametrize("path", NON_FINITE_KEYS)
@pytest.mark.parametrize(
    "literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["1e400", "-1e400", "int-1e400"]
)
def test_config_file_rejects_overflowing_numbers(tmp_path, path, literal):
    # JSON has no infinity, but a number too large for a float reads as one
    # (or as an int no float holds); the error names the key
    section, key = path.split(".")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_cfg(**{section: {key: "BIG"}})).replace('"BIG"', literal),
                 encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"{path} must be a finite number"):
        parse_config(p)


@pytest.mark.parametrize("path", NON_FINITE_KEYS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_dict_rejects_non_finite_numbers(path, bad):
    section, key = path.split(".")
    with pytest.raises(ConfigError, match=rf"{path} must be a finite number"):
        parse_config_dict(base_cfg(**{section: {key: bad}}))


def test_grid_dimension_consistency():
    with pytest.raises(ConfigError, match="grid.n must equal 1"):
        parse_config_dict(base_cfg(grid={"n": 2}))
    with pytest.raises(ConfigError, match="required for mode 'radial-n'"):
        parse_config_dict(base_cfg(grid={"mode": "radial-n"}))
    with pytest.raises(ConfigError, match="must have 2 entries"):
        parse_config_dict(
            base_cfg(grid={"mode": "cartesian-2d", "extents": [1.0], "cells": [8]})
        )
    with pytest.raises(ConfigError, match="does not match the grid dimension"):
        parse_config_dict(base_cfg(model={"n": 2}))


def test_model_and_controls_violations_become_config_errors():
    with pytest.raises(ConfigError, match="model: "):
        parse_config_dict(base_cfg(model={"p": 1.0}))
    with pytest.raises(ConfigError, match="controls: "):
        parse_config_dict(base_cfg(controls={"t_end": -1.0}))


def test_monitor_knob_validation():
    with pytest.raises(ConfigError, match="q_set entries must be positive"):
        parse_config_dict(base_cfg(monitors={"q_set": [2.0, 0.0]}))
    with pytest.raises(ConfigError, match="s must be >= 1"):
        parse_config_dict(base_cfg(monitors={"s": 0.5}))
    with pytest.raises(ConfigError, match='"inf" only'):
        parse_config_dict(base_cfg(monitors={"s": "sup"}))
    with pytest.raises(ConfigError, match="q_f1 must be > 0 and != 1"):
        parse_config_dict(base_cfg(monitors={"q_f1": 1.0}))
    with pytest.raises(ConfigError, match="q_f1 must be > 0 and != 1"):
        parse_config_dict(base_cfg(monitors={"q_f1": -0.5}))
    with pytest.raises(ConfigError, match="q_f2 must exceed 1"):
        parse_config_dict(base_cfg(monitors={"q_f2": 0.5}))
    with pytest.raises(ConfigError, match="c_f1 must be >= 0"):
        parse_config_dict(base_cfg(monitors={"c_f1": -1.0}))
    with pytest.raises(ConfigError, match="record_every must be >= 1"):
        parse_config_dict(base_cfg(record_every=0))


def run_config(cfg: RunConfig):
    # the run of `fluxks simulate`, keeping every state
    return cfg.run(keep_states="all")


def test_monitors_accept_the_q_f1_the_rule_picks_below_one():
    # n=2, theta=1.2 at p fraction 0.8: the rule picks q_f1 = 0.575, up to
    # rounding (0.5749999999999997); set explicitly, that index parses, and a
    # run with the rule's own double records the rule-picked run's F1
    section = {
        "grid": {"mode": "cartesian-2d", "extents": [1.0, 1.0], "cells": [8, 8]},
        "model": {"p": relative_p(2, 1.2, 0.8), "theta": 1.2},
        "initial": {"v0": "u0_pow_theta"},
        "controls": {"t_end": 0.05, "dt_max": 0.01},
        "record_every": 1,
    }
    assert parse_config_dict(base_cfg(**section, monitors={"q_f1": 0.575})).monitors.q_f1 == 0.575
    rule = parse_config_dict(base_cfg(**section))
    q_f1 = rule.monitors.resolve(rule.model).q_f1
    assert q_f1 == pytest.approx(0.575, abs=1e-12)
    pinned = parse_config_dict(base_cfg(**section, monitors={"q_f1": q_f1}))
    by_rule, by_key = run_config(rule), run_config(pinned)
    assert len(by_rule.records) > 2
    assert [r.F1 for r in by_key.records] == [r.F1 for r in by_rule.records]


def test_mollify_follows_the_s_rule_whatever_monitors_s_says():
    # p = 1.5 in 1d puts the s-rule on its finite branch, so the signal is
    # mollified too; monitors.s = "inf" sets the recorded index, not the data
    unset = parse_config_dict(base_cfg(model={"eps": 0.5}, controls={"t_end": 1e-9}))
    max_norm = parse_config_dict(base_cfg(model={"eps": 0.5}, controls={"t_end": 1e-9},
                                          monitors={"s": "inf"}))
    assert max_norm.monitors.s == math.inf
    raw = unset.build_initial(unset.build_grid())
    mollified = mollify_initial_data(raw, 0.5, include_v=True).v0
    assert not np.array_equal(mollified, raw.v0)
    for cfg in (unset, max_norm):
        assert np.array_equal(run_config(cfg).states[0].v, mollified)


def test_parse_time_grid_and_initial_screening():
    # violations that only the builders catch still surface as ConfigError
    with pytest.raises(ConfigError, match="cells"):
        parse_config_dict(base_cfg(grid={"cells": [2]}))
    with pytest.raises(ConfigError, match="amplitude"):
        parse_config_dict(base_cfg(initial={"amplitude": 1.5}))


def test_builders_and_simulate_kwargs(tmp_path, monkeypatch):
    cfg = parse_config_dict(base_cfg(monitors={"q_set": [2.0], "s": 3.0}))
    grid = cfg.build_grid()
    assert grid.mode == "cartesian-1d" and grid.shape == (64,)
    initial = cfg.build_initial(grid)
    assert initial.u0.min() > 0.0
    # `fluxks simulate` hands the config's monitors, cadence and smoothing on
    import fluxks.cli as cli
    import fluxks.config as config

    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(config, "simulate", spy)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_cfg(monitors={"q_set": [2.0], "s": 3.0},
                                        controls={"t_end": 0.01})), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert seen["monitors"] == cfg.monitors
    assert seen["monitors"].q_set == (2.0,) and seen["monitors"].s == 3.0
    assert seen["record_every"] == cfg.record_every and seen["mollify"] == cfg.mollify


def test_parse_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_cfg()), encoding="utf-8")
    assert parse_config(path) == parse_config_dict(base_cfg())
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.json")


# ------------------------------------------------------------------ sweeps

SWEEP = {"n_values": [1], "theta_values": [2.0], "p_values": [0.5]}


def test_step_control_defaults_are_declared_once():
    spec = parse_sweep_config_dict(SWEEP)
    cfg = parse_config_dict(base_cfg())
    for f in fields(StepControls):
        if f.default is not MISSING:
            assert getattr(spec, f.name) == getattr(cfg.controls, f.name) == f.default


def test_sweep_config_keeps_json_numbers_as_given():
    # no coercion: a point id hashes the numbers as the config spells them
    spec = parse_sweep_config_dict({**SWEEP, "theta_values": [2], "t_end": 1})
    assert spec == SweepSpec(n_values=(1,), theta_values=(2,), p_values=(0.5,), t_end=1)
    (pt,) = sweep_points(spec)
    assert type(pt["t_end"]) is int and type(spec.theta_values[0]) is int


@pytest.mark.parametrize(
    "over,match",
    [
        ({"theta_values": ["x"]}, r"sweep\.theta_values\[0\] must be a number"),
        ({"n_values": [1.0]}, r"sweep\.n_values\[0\] must be an integer"),
        ({"p_values": 0.5}, r"sweep\.p_values must be an array"),
        ({"seed": 1.5}, r"sweep\.seed must be an integer"),
        ({"p_mode": 3}, r"sweep\.p_mode must be a string"),
        ({"dt_max": "0.1"}, r"sweep\.dt_max must be a number"),
        ({"amplitude": True}, r"sweep\.amplitude must be a number"),
        ({"cells_2d": 3}, "sweep cells_2d must be >= 4"),
        ({"extra": 1}, r"unknown key\(s\) \['extra'\] in sweep"),
        ({"t_end": 10**400}, r"sweep\.t_end must be a finite number"),
        ({"theta_values": [2.0, math.inf]}, r"sweep\.theta_values\[1\] must be a finite number"),
    ],
)
def test_sweep_config_errors(over, match):
    with pytest.raises(ConfigError, match=match):
        parse_sweep_config_dict({**SWEEP, **over})


def test_sweep_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="sweep config root must be an object"):
        parse_sweep_config_dict([SWEEP])
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    assert parse_sweep_config(path) == parse_sweep_config_dict(SWEEP)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="sweep config .* is not valid JSON"):
        parse_sweep_config(path)
    with pytest.raises(ConfigError, match="cannot read sweep config"):
        parse_sweep_config(tmp_path / "absent.json")


@pytest.mark.parametrize("cells", [32, 33], ids=["even", "odd"])
def test_gaussian_width_whose_square_underflows_is_rejected_at_parse(cells):
    # 2 (width * extent)^2 underflows to 0: an odd grid's centre cell
    # computed 0/0 (NaN data, misnamed as a u0_squared overflow), an even
    # grid divided by zero and lost its bump without an error
    cfg = base_cfg(grid={"cells": [cells]},
                   initial={"family": "gaussian", "width": 1e-200})
    with pytest.raises(ConfigError, match=r"initial\.width = 1e-200 is too small"):
        parse_config_dict(cfg)
