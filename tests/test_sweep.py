"""Sweep driver: lattice expansion, content ids, byte-stable artifacts.

The determinism contract is the load-bearing part: identical specs must
produce byte-identical point files, manifest, and regime map across repeats,
resume, and parallel execution (timings.json is explicitly exempt).
"""

import json

import pytest

from fluxks.errors import ConfigError
from fluxks.regimes import critical_exponent, relative_p
from fluxks.sweep import (
    REGIME_MAP_COLUMNS,
    SWEEP_VERSION,
    SweepSpec,
    canonical_json,
    point_id,
    regime_map_csv,
    regime_map_summary,
    run_point,
    run_sweep,
    sweep_points,
    write_atomic,
)


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
    ],
)
def test_spec_validation(over, match):
    with pytest.raises(ConfigError, match=match):
        tiny_spec(**over)


def test_spec_rejects_degenerate_radial_point_grid():
    # the radial cell weights of n = 130 on 256 cells underflow to 0
    with pytest.raises(ConfigError, match="grid.n = 130"):
        tiny_spec(n_values=(1, 130), cells_radial=256)


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


def test_run_point_supercritical_is_exploratory():
    spec = tiny_spec(p_values=(1.5,))
    (pt,) = sweep_points(spec)
    res = run_point(pt)
    assert res["audit"]["subcritical"] is False
    assert res["expected"] == "exploratory"
    assert res["mismatch"] is False  # exploratory points are never flagged


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

    # stale version is not resumable either
    stale = json.loads(good)
    stale["version"] = SWEEP_VERSION + 1
    target.write_text(json.dumps(stale), encoding="utf-8")
    res3 = run_sweep(spec, out)
    assert res3.n_run == 1
    assert target.read_bytes() == good


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
