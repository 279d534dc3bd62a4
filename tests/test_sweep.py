"""Sweep driver: lattice expansion, content ids, byte-stable artifacts.

The determinism contract is the load-bearing part: identical specs must
produce byte-identical point files, manifest, and regime map across repeats,
resume, and parallel execution (timings.json is explicitly exempt).
"""

import functools
import json
from dataclasses import fields

import numpy as np
import pytest

from fluxks import runtime, sweep
from fluxks.errors import ConfigError
from fluxks.regimes import critical_exponent, relative_p
from fluxks.runtime import map_in_pool
from fluxks.sweep import (
    SweepSpec,
    canonical_json,
    point_config,
    point_id,
    run_point,
    run_sweep,
    sweep_points,
    write_atomic,
)
from fluxks.sweepdir import (
    POINT_TREE,
    REGIME_MAP_COLUMNS,
    SWEEP_VERSION,
    regime_map_csv,
    regime_map_summary,
)

from conftest import tree_leaves


def tiny_spec(**over):
    kw = dict(
        n_values=(1,),
        theta_values=(2.0,),
        p_values=(0.5, 1.5),
        cells_1d=32,
        t_end=1.0,
        dt_max=0.05,
        record_every=1,
    )
    kw.update(over)
    return SweepSpec(**kw)


# ------------------------------------------------------------- spec + points


@pytest.mark.parametrize(
    "over,match",
    [
        ({"n_values": ()}, "nonempty"),
        ({"n_values": (1.5,)}, "integers"),
        ({"theta_values": (0.0,)}, "positive"),
        ({"p_values": (0.0, 0.5)}, "relative p_values must exceed 0"),
        ({"p_values": (1.0,), "p_mode": "absolute"}, "absolute p_values must exceed 1"),
        ({"p_mode": "scaled"}, "p_mode"),
        ({"chi": -1.0}, "chi"),
        ({"eps": 1.0}, r"eps must lie in \[0, 1\)"),
        ({"amplitude": 1.0}, "amplitude"),
        ({"family": "ramp"}, "family"),
        ({"t_end": -1.0}, "sweep controls"),
        ({"cells_1d": 0}, "cells_1d"),
        ({"record_every": 0}, "record_every"),
        ({"chi": float("nan")}, "chi"),
        ({"theta_values": (float("nan"),)}, "positive"),
        ({"p_values": (float("nan"),)}, "relative p_values must exceed 0"),
        ({"chi": float("inf")}, "chi must be finite"),
        ({"theta_values": (float("inf"),)}, "theta_values must be finite"),
        ({"theta_values": (2.0, float("-inf"))}, "positive"),
        ({"p_values": (0.5, float("inf"))}, "p_values must be finite"),
        ({"p_values": (float("inf"),), "p_mode": "absolute"}, "p_values must be finite"),
        ({"dt_max": float("inf")}, "dt_max must be finite"),
        ({"blowup_linf_threshold": float("inf")}, "blowup_linf_threshold must be finite"),
        ({"dt_max": float("nan")}, "sweep controls"),
        ({"eps": float("nan")}, "eps"),
        # a repeated value would run one point, under one id, more than once
        ({"n_values": (1, 1)}, "sweep n_values must not repeat a value"),
        ({"theta_values": (2, 2.0)}, "sweep theta_values must not repeat a value"),
        ({"p_values": (0.5, 0.8, 0.5)}, "sweep p_values must not repeat a value"),
        ({"p_values": (1.5, 1.5), "p_mode": "absolute"}, "sweep p_values must not repeat"),
    ],
)
def test_spec_validation(over, match):
    with pytest.raises(ConfigError, match=match):
        tiny_spec(**over)


def test_spec_rejects_degenerate_radial_point_grid():
    # the radial cell weights of n = 130 on 256 cells underflow to 0
    with pytest.raises(ConfigError, match="grid.n = 130"):
        tiny_spec(n_values=(1, 130), cells_radial=256)


def test_spec_rejects_a_point_whose_run_config_fails():
    # u0**theta overflows at theta = 8000: the run-config parser rejects that
    # point's initial data, and the error names the point
    with np.errstate(over="ignore"):
        with pytest.raises(ConfigError, match=r"^sweep .*\(point n=1 theta=8000 p="):
            tiny_spec(theta_values=(2.0, 8000), cells_1d=8)


# a changed valid value for every SweepSpec field that is a run setting
CHANGED_RUN_SETTINGS = {
    "chi": 2.0,
    "eps": 2e-3,
    "family": "gaussian",
    "amplitude": 0.2,
    "t_end": 0.5,
    "dt_max": 0.01,
    "dt_min": 1e-9,
    "blowup_linf_threshold": 1e5,
    "record_every": 2,
}


def test_every_point_setting_reaches_the_point_run_config():
    # a field that enters the point id but not the run would name runs that
    # do not differ
    assert set(CHANGED_RUN_SETTINGS) == {f.name for f in fields(SweepSpec)} - sweep._LATTICE_FIELDS
    base = point_config(sweep_points(tiny_spec(p_values=(0.5,)))[0])
    for name, val in CHANGED_RUN_SETTINGS.items():
        (pt,) = sweep_points(tiny_spec(p_values=(0.5,), **{name: val}))
        assert point_config(pt) != base, name


def test_map_in_pool_starts_no_more_workers_than_items(monkeypatch):
    # a fork-started pool forks all its workers at once, whatever the work
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(runtime, "ProcessPoolExecutor", FakePool)
    assert map_in_pool(abs, [-1, -2], 64) == [1, 2]
    assert map_in_pool(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert seen == [2, 2]


def test_sweep_points_relative_mode():
    spec = tiny_spec(n_values=(2, 1), theta_values=(2.0, 1.5))
    pts = sweep_points(spec)
    assert len(pts) == 8
    keys = [(pt["n"], pt["theta"], pt["p"]) for pt in pts]
    assert keys == sorted(keys)
    for pt in pts:
        assert pt["p"] == relative_p(pt["n"], pt["theta"], pt["p_fraction"])
        assert pt["version"] == SWEEP_VERSION
        assert pt["point_id"] == point_id(pt)


def test_sweep_points_absolute_mode():
    spec = tiny_spec(p_values=(1.5,), p_mode="absolute")
    (pt,) = sweep_points(spec)
    assert pt["p"] == 1.5
    p_c = critical_exponent(1, 2.0)
    assert pt["p_fraction"] == (1.5 - 1.0) / (p_c - 1.0)


def test_sweep_points_rejects_degenerate_lattice():
    with pytest.raises(ConfigError, match=r"n \* theta <= 1"):
        sweep_points(tiny_spec(theta_values=(0.5,)))  # n=1, theta=0.5


def test_point_id_contract():
    (pt,) = sweep_points(tiny_spec(p_values=(0.5,)))
    pid = pt.pop("point_id")
    assert len(pid) == 16 and int(pid, 16) >= 0
    shuffled = dict(reversed(list(pt.items())))
    assert point_id(shuffled) == pid  # key order must not matter
    bumped = dict(pt, eps=2e-3)
    assert point_id(bumped) != pid


def test_canonical_json_and_write_atomic(tmp_path):
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})
    target = tmp_path / "out.json"
    write_atomic(target, "payload\n")
    assert target.read_text(encoding="utf-8") == "payload\n"
    assert list(tmp_path.iterdir()) == [target]  # no tmp residue


# ---------------------------------------------------------------- run_point


def test_run_point_subcritical_summary():
    spec = tiny_spec(p_values=(0.5,))
    (pt,) = sweep_points(spec)
    res = run_point(pt)
    assert res["classification"] == "Bounded"
    assert res["expected"] == "Bounded"
    assert res["mismatch"] is False
    assert res["run"]["status"] == "Completed"
    assert res["run"]["mass_drift_rel"] <= 1e-10
    assert res["audit"]["subcritical"] is True
    assert res["point_id"] == pt["point_id"]
    assert "point_id" not in res["point"]
    canonical_json(res)  # summaries must stay JSON-canonicalizable


def test_point_keys_are_the_keys_run_point_writes():
    # load_point counts a file as completed only when it holds POINT_TREE:
    # every top-level key and run key that run_point writes, each leaf of the
    # kind the tree names
    for pt in sweep_points(tiny_spec()):
        res = json.loads(canonical_json(run_point(pt)))
        assert set(res) == set(POINT_TREE) and set(res["run"]) == set(POINT_TREE["run"])
        for path, kind in tree_leaves(POINT_TREE):
            assert runtime.is_kind(functools.reduce(dict.__getitem__, path, res), kind), path


def test_run_point_supercritical_is_exploratory():
    spec = tiny_spec(p_values=(1.5,))
    (pt,) = sweep_points(spec)
    res = run_point(pt)
    assert res["audit"]["subcritical"] is False
    assert res["expected"] == "exploratory"
    assert res["mismatch"] is False  # exploratory points are never flagged


def test_run_point_near_p_one_completes():
    # at p = 1.0001 the F1 index is in the thousands and int u^q_f1 overflows;
    # a point records no F1, so it completes where a full record would raise
    spec = SweepSpec(n_values=(1,), theta_values=(2.0,), p_values=(1.0001,),
                     p_mode="absolute", cells_1d=64, t_end=0.5, amplitude=0.5)
    (pt,) = sweep_points(spec)
    res = run_point(pt)
    assert res["run"]["status"] == "Completed"
    assert res["run"]["F2_max"] == pytest.approx(6.617, abs=1e-3)
    canonical_json(res)


def test_run_point_builds_no_full_record(monkeypatch):
    from fluxks import functionals

    def refuse(state, monitors):
        raise AssertionError("run_point built a full record")

    monkeypatch.setattr(functionals, "record", refuse)
    (pt,) = sweep_points(tiny_spec(p_values=(0.5,)))
    assert run_point(pt)["run"]["status"] == "Completed"


# ---------------------------------------------------------------- run_sweep


def artifact_bytes(out_dir):
    skip = {"timings.json"}
    return {
        f.name: f.read_bytes()
        for f in sorted(out_dir.iterdir())
        if f.name not in skip
    }


def test_run_sweep_artifacts_resume_and_determinism(tmp_path):
    spec = tiny_spec()
    out_a = tmp_path / "a"
    res = run_sweep(spec, out_a)
    assert res.n_run == 2 and res.n_skipped == 0 and res.n_mismatch == 0
    names = {f.name for f in out_a.iterdir()}
    assert {"sweep.json", "regime_map.csv", "timings.json"} <= names
    point_files = [n for n in names if n.endswith(".json") and len(n) == 21]
    assert len(point_files) == 2

    manifest = json.loads((out_a / "sweep.json").read_text(encoding="utf-8"))
    assert manifest["version"] == SWEEP_VERSION
    assert manifest["tool"]["name"] == "fluxks"
    assert manifest["spec"] == json.loads(canonical_json(spec.to_dict()))
    assert [p["point_id"] for p in manifest["points"]] == [
        r["point_id"] for r in res.results
    ]

    header = (out_a / "regime_map.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(REGIME_MAP_COLUMNS)

    # timings.json: per point the wall seconds and, where resource counts
    # them, the minor page faults of the process that ran it
    timings = json.loads((out_a / "timings.json").read_text(encoding="utf-8"))
    ids = {r["point_id"] for r in res.results}
    assert set(timings["points"]) == ids and timings["total_seconds"] > 0.0
    assert ("minor_faults" in timings) == (sweep.resource is not None)
    if sweep.resource is not None:
        assert set(timings["minor_faults"]) == ids
        assert all(isinstance(n, int) and n >= 0 for n in timings["minor_faults"].values())

    # resume: nothing re-runs, artifacts unchanged
    before = artifact_bytes(out_a)
    res2 = run_sweep(spec, out_a)
    assert res2.n_run == 0 and res2.n_skipped == 2
    assert artifact_bytes(out_a) == before
    assert res2.results == res.results

    # fresh directory reproduces every artifact byte for byte
    out_b = tmp_path / "b"
    run_sweep(spec, out_b)
    assert artifact_bytes(out_b) == before

    # parallel execution too
    out_c = tmp_path / "c"
    res_par = run_sweep(spec, out_c, parallelism=2)
    assert res_par.n_run == 2
    assert artifact_bytes(out_c) == before


def test_run_sweep_re_runs_invalid_point_files(tmp_path):
    spec = tiny_spec()
    out = tmp_path / "sweep"
    res = run_sweep(spec, out)
    pid = res.results[0]["point_id"]
    target = out / f"{pid}.json"
    good = target.read_bytes()

    target.write_text("{truncated", encoding="utf-8")
    res2 = run_sweep(spec, out)
    assert res2.n_run == 1 and res2.n_skipped == 1
    assert target.read_bytes() == good

    # valid JSON that is not an object is not a completed point
    target.write_text("[1, 2]", encoding="utf-8")
    res2 = run_sweep(spec, out)
    assert res2.n_run == 1 and res2.n_skipped == 1
    assert target.read_bytes() == good

    # stale version is not resumable either
    stale = json.loads(good)
    stale["version"] = SWEEP_VERSION + 1
    target.write_text(json.dumps(stale), encoding="utf-8")
    res3 = run_sweep(spec, out)
    assert res3.n_run == 1
    assert target.read_bytes() == good


def test_interrupted_sweep_keeps_finished_points(tmp_path, monkeypatch, capsys):
    # the manifest goes first and each point file as its result arrives, so a
    # sweep stopped at its second point keeps the first, reports it and resumes
    from fluxks.cli import main

    spec = tiny_spec()
    real_run_point = sweep.run_point
    calls = []

    def interrupted(point):
        calls.append(point["point_id"])
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return real_run_point(point)

    out = tmp_path / "interrupted"
    monkeypatch.setattr(sweep, "run_point", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_sweep(spec, out)
    monkeypatch.undo()
    assert sorted(f.name for f in out.iterdir()) == sorted(["sweep.json", f"{calls[0]}.json"])

    assert main(["report", "--sweep-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1 points, 0 flagged" in printed
    assert "NOTE: 1 point(s) not yet completed (sweep resumable)" in printed

    resumed = run_sweep(spec, out)
    assert resumed.n_run == 1 and resumed.n_skipped == 1
    assert resumed.results[1]["point_id"] == calls[1]
    whole = tmp_path / "whole"
    run_sweep(spec, whole)
    assert artifact_bytes(out) == artifact_bytes(whole)


def test_run_sweep_rejects_bad_parallelism(tmp_path):
    with pytest.raises(ConfigError, match="parallelism"):
        run_sweep(tiny_spec(), tmp_path / "x", parallelism=0)


# -------------------------------------------------------------- map rendering


def fake_result(n, theta, p, subcritical, classification):
    p_c = critical_exponent(n, theta)
    return {
        "point": {"n": n, "theta": theta, "p": p,
                  "p_fraction": (p - 1.0) / (p_c - 1.0)},
        "point_id": "deadbeefdeadbeef",
        "audit": {"p_critical": p_c, "subcritical": subcritical},
        "run": {"status": "Completed"},
        "classification": classification,
        "expected": "Bounded" if subcritical else "exploratory",
        "mismatch": bool(subcritical and classification != "Bounded"),
    }


def test_regime_map_csv_flags_mismatches():
    results = [
        fake_result(1, 2.0, 1.5, True, "Growing"),
        fake_result(1, 2.0, 2.5, False, "Growing"),
    ]
    lines = regime_map_csv(results).splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[-2:] == ["true", "deadbeefdeadbeef"]
    assert lines[2].split(",")[-2:] == ["false", "deadbeefdeadbeef"]


def test_regime_map_summary_text():
    results = [
        fake_result(1, 2.0, 1.5, True, "Bounded"),
        fake_result(1, 2.0, 2.5, False, "Growing"),
        fake_result(2, 1.5, 1.2, True, "Growing"),
    ]
    text = regime_map_summary(results)
    assert "[exploratory]" in text
    assert "FLAG: subcritical point not Bounded" in text
    assert text.rstrip().endswith(
        "3 points, 1 flagged (subcritical points not classified Bounded)"
    )
