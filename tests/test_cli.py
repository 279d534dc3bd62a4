"""CLI contract: subcommands, exit codes, artifact layout, FLUXKS_OUT.

Exit codes under test: 0 clean, 1 failed verdict / flagged map / unstable
constants, 2 abnormal run termination, 3 configuration errors.
"""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluxks.cli as cli
from fluxks.cli import main
from fluxks.monitors import RegimeVerdict
from fluxks.sweep import parse_sweep_config_dict, point_config, run_point, sweep_points
from fluxks.sweepdir import POINT_TREE, REGIME_MAP_COLUMNS, SWEEP_VERSION

from conftest import tree_leaves


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cfg(**over):
    cfg = {
        "grid": {"mode": "cartesian-1d", "extents": [1.0], "cells": [64]},
        "model": {"chi": 1.0, "p": 1.5, "theta": 2.0, "eps": 1e-3},
        "controls": {"t_end": 1.0},
        "record_every": 1,
    }
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def write_overflowing(tmp, **over):
    # a run config whose "BIG" entry is the JSON number 1e400
    path = tmp / "big.json"
    path.write_text(json.dumps(run_cfg(**over)).replace('"BIG"', "1e400"), encoding="utf-8")
    return str(path)


SWEEP_CFG = {
    "n_values": [1],
    "theta_values": [2.0],
    "p_values": [0.5, 1.5],
    "cells_1d": 32,
    "t_end": 1.0,
    "dt_max": 0.05,
    "record_every": 1,
}


# ------------------------------------------------------------------ plumbing


def test_no_command_prints_help(capsys):
    assert main([]) == 3
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_command_is_config_error(capsys):
    assert main(["frobnicate"]) == 3
    assert "error:" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --------------------------------------------------------------------- audit


def test_audit_json_payload(capsys):
    assert main(["audit", "--n", "2", "--theta", "1.5", "--p", "1.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"]["name"] == "fluxks"
    assert payload["route"] == "entropy"
    assert payload["chosen_q"] == 3.0
    assert payload["chosen_q_f1"] == pytest.approx(2.5, rel=1e-12)
    assert payload["a_star"] == pytest.approx(3.75, rel=1e-12)
    assert payload["condition_2ab"] == pytest.approx(0.75, rel=1e-12)


def test_audit_p_fraction(capsys):
    assert main(["audit", "--n", "1", "--theta", "2.0", "--p-fraction", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--n", "1", "--theta", "2.0"],  # neither p nor fraction
        ["audit", "--n", "1", "--theta", "2.0", "--p", "1.5", "--p-fraction", "0.5"],
        ["audit", "--n", "1", "--theta", "2.0", "--p", "0.9"],  # p <= 1
        ["audit", "--theta", "2.0", "--p", "1.5"],  # missing required --n
    ],
)
def test_audit_usage_errors(argv, capsys):
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------ simulate


def test_simulate_happy_path(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    stdout = capsys.readouterr().out
    assert "mass-conservation: pass" in stdout
    assert "classification: Bounded" in stdout

    report = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert set(report) == {
        "tool", "config", "run", "classification", "sup_u_linf", "growth_rate_estimate",
        "reason", "stats", "verdicts", "skipped_checks", "exit_code",
    }
    assert set(report["run"]) == set(POINT_TREE["run"])
    assert report["run"]["status"] == "Completed" and report["exit_code"] == 0
    assert set(report["verdicts"]) == {
        "mass-conservation", "positivity", "dissipation-F1", "dissipation-F2",
    }
    assert all(v["passed"] for v in report["verdicts"].values())
    assert report["classification"] == "Bounded"

    lines = (out / "functionals.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# fluxks ")
    assert lines[1].startswith("# config ")
    echoed = json.loads(lines[1][len("# config "):])
    assert echoed == report["config"]
    assert lines[2].startswith("t,mass,")


@pytest.mark.parametrize("artifact", ["functionals.csv", "run.json"])
def test_simulate_that_cannot_write_an_artifact_exits_3(tmp_path, artifact, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg())
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 3
    assert artifact in capsys.readouterr().err
    assert not (out / f"{artifact}.tmp").exists()


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg())
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "functionals.csv").read_bytes()
    b = (tmp_path / "b" / "functionals.csv").read_bytes()
    assert a == b


def test_simulate_snapshots(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg(controls={"t_end": 0.3}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--snapshots"]) == 0
    lines = (out / "snapshots.txt").read_text(encoding="utf-8").splitlines()
    meta = json.loads((out / "snapshots.meta.json").read_text(encoding="utf-8"))
    assert meta["n_snapshots"] == len(lines) > 2
    for line in lines:
        tokens = line.split()
        assert len(tokens) == 1 + 2 * 64  # t, u cells, v cells
    assert float(lines[0].split()[0]) == 0.0
    assert "C order" in meta["format"]
    assert meta["grid"]["mode"] == "cartesian-1d"


def test_simulate_out_dir_resolution(tmp_path, monkeypatch):
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg(controls={"t_end": 0.1}))
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("FLUXKS_OUT", str(env_dir))
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (env_dir / "run.json").is_file()
    flag_dir = tmp_path / "from-flag"
    assert main(["simulate", "--config", cfg_path, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "run.json").is_file()
    monkeypatch.delenv("FLUXKS_OUT")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (tmp_path / cli.DEFAULT_OUT / "run.json").is_file()


def test_simulate_threshold_trip_exits_2(tmp_path):
    cfg_path = write_json(
        tmp_path / "cfg.json",
        run_cfg(controls={"t_end": 1.0, "blowup_linf_threshold": 1.2}),
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    report = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert report["run"]["status"] == "BlowUpSuspected"
    assert report["exit_code"] == 2
    assert report["skipped_checks"]  # dissipation not evaluated
    assert report["classification"] == "BlowUpSuspected"


def test_simulate_overflowing_production_exits_2(tmp_path):
    # theta * u^(theta-1) at u = 1e200 and theta = 3 is beyond the float
    # range: the step collapses below dt_min instead of raising OverflowError.
    # The monitors are pinned so that the record at t = 0 stays finite
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg(
        grid={"mode": "cartesian-1d", "extents": [1.0], "cells": [16]},
        model={"theta": 3.0},
        initial={"family": "constant", "base": 1e200, "v0": "zero"},
        mollify=False,
        monitors={"q_set": [1.5], "q_f1": 1.5, "q_f2": 1.5},
        controls={"dt_min": 1e-300},
    ))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    report = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert report["run"]["status"] == "BlowUpSuspected"
    assert "dt_min" in report["run"]["message"]


def test_simulate_writes_the_run_block_and_verdict_of_a_sweep_point(tmp_path):
    # run.json and a point file share one run block and spread the same
    # verdict: simulate on a point's effective config records in full, and a
    # point records samples, of the same bits
    verdict_keys = set(RegimeVerdict.__dataclass_fields__)
    for i, point in enumerate(sweep_points(parse_sweep_config_dict(SWEEP_CFG))):
        cfg_path = write_json(tmp_path / f"cfg{i}.json", point_config(point).effective())
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) in (0, 1)
        report = json.loads((out / "run.json").read_text(encoding="utf-8"))
        res = run_point(point)
        assert report["run"] == res["run"]
        assert {k: report[k] for k in verdict_keys} == {k: res[k] for k in verdict_keys}


def test_simulate_growing_classification_exits_1(tmp_path, monkeypatch):
    # the exit-code mapping for Growing is unit-tested by substituting the
    # classifier; driving a real run into sustained growth is a sweep concern
    fake = RegimeVerdict("Growing", 5.0, 0.2, "synthetic", {})
    monkeypatch.setattr("fluxks.monitors.classify", lambda records, status: fake)
    cfg_path = write_json(tmp_path / "cfg.json", run_cfg())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    report = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert report["exit_code"] == 1


@pytest.mark.parametrize(
    "breakage",
    [
        lambda tmp: str(tmp / "absent.json"),
        lambda tmp: write_json(tmp / "bad.json", {"grid": {}}),
        lambda tmp: (lambda p: (p.write_text("{oops"), str(p))[1])(tmp / "nj.json"),
        lambda tmp: write_json(
            tmp / "inf.json", run_cfg(controls={"blowup_linf_threshold": float("inf")})
        ),
        # numbers too large for a float parse to inf: each used to end in a
        # traceback, or (monitors.s) to pick the max-norm branch silently
        lambda tmp: write_overflowing(tmp, controls={"dt_max": "BIG"}),
        lambda tmp: write_overflowing(tmp, controls={"blowup_linf_threshold": "BIG"}),
        lambda tmp: write_overflowing(tmp, monitors={"c_f1": "BIG"}),
        lambda tmp: write_overflowing(tmp, monitors={"q_f2": "BIG"}),
        lambda tmp: write_overflowing(tmp, monitors={"s": "BIG"}),
        # the production bound's factor is a stepper constant, not a key
        lambda tmp: write_json(tmp / "cfl.json", run_cfg(controls={"cfl_safety": 0.4})),
        # bytes that are not UTF-8 ended in a UnicodeDecodeError traceback
        lambda tmp: (lambda p: (p.write_bytes(b"\xff{"), str(p))[1])(tmp / "latin.json"),
    ],
)
def test_simulate_config_errors_exit_3(tmp_path, breakage, capsys):
    assert main(["simulate", "--config", breakage(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- sweep


def test_sweep_cli_and_report_round_trip(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    out = tmp_path / "map"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[exploratory]" in stdout
    assert "ran 2, resumed 0" in stdout
    assert (out / "regime_map.csv").read_text(encoding="utf-8").splitlines()[0] == \
        ",".join(REGIME_MAP_COLUMNS)

    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    assert "ran 0, resumed 2" in capsys.readouterr().out

    # report regenerates the regime map from the point files alone
    original = (out / "regime_map.csv").read_bytes()
    (out / "regime_map.csv").unlink()
    assert main(["report", "--sweep-dir", str(out)]) == 0
    assert (out / "regime_map.csv").read_bytes() == original
    assert "2 points, 0 flagged" in capsys.readouterr().out


def test_report_with_missing_points(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    out = tmp_path / "map"
    main(["sweep", "--config", cfg_path, "--out", str(out)])
    capsys.readouterr()
    manifest = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    pids = [entry["point_id"] for entry in manifest["points"]]
    (out / f"{pids[0]}.json").unlink()
    assert main(["report", "--sweep-dir", str(out)]) == 0
    assert "NOTE: 1 point(s) not yet completed" in capsys.readouterr().out
    (out / f"{pids[1]}.json").unlink()
    assert main(["report", "--sweep-dir", str(out)]) == 3  # nothing to render

    # a truncated point file, or one of another SWEEP_VERSION, is not completed
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    first, second = (out / f"{pid}.json" for pid in pids)
    text = first.read_text(encoding="utf-8")
    first.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["report", "--sweep-dir", str(out)]) == 0
    assert "NOTE: 1 point(s) not yet completed" in capsys.readouterr().out
    stale = json.loads(second.read_text(encoding="utf-8"))
    second.write_text(json.dumps({**stale, "version": SWEEP_VERSION - 1}), encoding="utf-8")
    assert main(["report", "--sweep-dir", str(out)]) == 3
    assert "no completed points" in capsys.readouterr().err


# a value of another JSON kind for a leaf of each kind
OTHER_KIND = {int: "1", float: "2", str: 1, bool: 1, dict: [1]}


def test_point_file_without_its_result_keys_is_not_completed(tmp_path, capsys):
    # a file naming its point and version, but without the keys run_point
    # writes, ended report in KeyError: 'point' and a resumed sweep in
    # KeyError: 'mismatch'; one whose run was {} ended both in KeyError:
    # 'status', and a string theta ended report in a ValueError.  Now a file
    # that lacks a leaf of POINT_TREE, or holds one of another kind, is
    # pending, and the sweep reruns it
    cfg_path = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    out = tmp_path / "map"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    pid = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["points"][0]["point_id"]
    target = out / f"{pid}.json"
    good = target.read_bytes()
    full = json.loads(good)
    # NaN is no JSON number: json.dumps writes it, and a point file holds none;
    # bytes that are not UTF-8 ended report in a UnicodeDecodeError traceback
    partials = [{"point_id": pid, "version": SWEEP_VERSION}, {**full, "run": None},
                {**full, "point": [1]}, {**full, "run": {}}, {**full, "sup_u_linf": math.nan},
                b"\xff" + good]
    for path, kind in tree_leaves(POINT_TREE):
        for mistyped in (False, True):
            partial = json.loads(good)
            parent = functools.reduce(dict.__getitem__, path[:-1], partial)
            if mistyped:
                parent[path[-1]] = OTHER_KIND[kind]
            else:
                del parent[path[-1]]
            partials.append(partial)
    for partial in partials:
        if isinstance(partial, bytes):
            target.write_bytes(partial)
        else:
            write_json(target, partial)
        assert main(["report", "--sweep-dir", str(out)]) == 0
        assert "NOTE: 1 point(s) not yet completed" in capsys.readouterr().out
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        assert "ran 1, resumed 1" in capsys.readouterr().out
        assert target.read_bytes() == good


def test_report_that_cannot_write_its_map_exits_3(tmp_path, capsys):
    # regime_map.csv is a directory: the write fails cleanly and leaves no
    # temp file behind
    cfg_path = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    out = tmp_path / "map"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "regime_map.csv").unlink()
    (out / "regime_map.csv").mkdir()
    assert main(["report", "--sweep-dir", str(out)]) == 3
    assert "regime_map.csv" in capsys.readouterr().err
    assert not (out / "regime_map.csv.tmp").exists()


def test_report_requires_manifest(tmp_path, capsys):
    assert main(["report", "--sweep-dir", str(tmp_path)]) == 3
    assert "no sweep manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest",
    [
        [1],
        {"points": 5},
        {"points": [[1]]},
        {"points": [{"index": 0}]},
        {"points": [{"point_id": 7}]},
    ],
)
def test_report_rejects_malformed_manifest(tmp_path, manifest, capsys):
    write_json(tmp_path / "sweep.json", manifest)
    assert main(["report", "--sweep-dir", str(tmp_path)]) == 3
    assert "sweep manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg,match",
    [
        ({**SWEEP_CFG, "bogus": 1}, "unknown key"),
        ({k: v for k, v in SWEEP_CFG.items() if k != "p_values"}, "missing required"),
        ({**SWEEP_CFG, "n_values": 1}, "must be an array"),
        ({**SWEEP_CFG, "chi": "a"}, "chi"),
        ({**SWEEP_CFG, "cells_1d": 2}, "cells_1d"),
        ({**SWEEP_CFG, "cells_1d": 8.5}, "cells_1d"),
        ({**SWEEP_CFG, "record_every": True}, "record_every"),
        ({**SWEEP_CFG, "chi": float("nan")}, "NaN is not a JSON number"),
        ({**SWEEP_CFG, "cfl_safety": 0.4}, "unknown key(s) ['cfl_safety']"),
        ({**SWEEP_CFG, "seed": 0}, "unknown key(s) ['seed']"),
    ],
)
def test_sweep_config_errors_exit_3(tmp_path, cfg, match, capsys):
    cfg_path = write_json(tmp_path / "sweep.json", cfg)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3
    assert match in capsys.readouterr().err


def test_sweep_with_a_repeated_lattice_value_exits_3_before_any_output(tmp_path, capsys):
    cfg = {**SWEEP_CFG, "n_values": [1, 1], "p_values": [0.5, 0.5]}
    cfg_path = write_json(tmp_path / "sweep.json", cfg)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3
    assert "sweep n_values must not repeat a value" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_uncreatable_out_dir_exits_3(tmp_path, command, under, capsys):
    # --out names an existing file, or a path beneath one
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / "sub" if under else blocker
    cfg = run_cfg(controls={"t_end": 0.1}) if command == "simulate" else SWEEP_CFG
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 3
    assert f"cannot create output directory {out}" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_sweep_rejects_parallelism_zero(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    argv = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
            "--parallelism", "0"]
    assert main(argv) == 3
    assert "parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("n", [125, 400])
def test_simulate_degenerate_radial_grid_exits_3(tmp_path, n, capsys):
    # n = 125 underflows the innermost cell weights, n = 400 overflows the
    # unit-sphere surface; neither may end in a traceback
    cfg = run_cfg(grid={"mode": "radial-n", "cells": [256], "n": n})
    cfg_path = write_json(tmp_path / "run.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert f"grid.n = {n}" in capsys.readouterr().err


def test_sweep_degenerate_radial_grid_exits_3(tmp_path, capsys):
    cfg = {**SWEEP_CFG, "n_values": [130], "cells_radial": 256}
    cfg_path = write_json(tmp_path / "sweep.json", cfg)
    argv = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"), "--parallelism", "1"]
    assert main(argv) == 3
    assert "grid.n = 130" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_with_an_overflowing_point_exits_3_before_any_output(tmp_path, capsys):
    # u0**theta overflows at theta = 8000; the run config of that point is
    # rejected at parse time, so the sweep writes nothing
    cfg = {**SWEEP_CFG, "theta_values": [8000], "p_values": [0.5], "cells_1d": 8}
    cfg_path = write_json(tmp_path / "sweep.json", cfg)
    with np.errstate(over="ignore"):
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3
    assert "theta=8000" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------------------- gn-test


def test_gn_test_small_ensemble(capsys):
    argv = ["gn-test", "--n", "1", "--theta", "2.0", "--p", "1.3",
            "--cells", "64", "--ensemble-size", "12", "--seed", "1"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert set(payload["sets"]) == {
        "density-step", "signal-l2-step", "signal-grad-step",
        "second-form-reference",
    }
    for rep in payload["sets"].values():
        assert rep["stable"] is True
        assert rep["stability"] <= payload["stability_rtol"]
    assert payload["grid"]["refined"] == [128]
    assert payload["ensemble"] == {"size": 12, "seed": 1, "version": 1}
    assert payload["poincare"]["stability"] <= payload["stability_rtol"]


def test_gn_test_constant_only_ensemble_is_not_stable(capsys):
    # the one member is constant: the Poincare supremum and the second form's
    # stay 0, and dividing by that estimate ended in a ZeroDivisionError
    argv = ["gn-test", "--n", "1", "--theta", "2", "--p", "1.5",
            "--ensemble-size", "1", "--seed", "142"]
    assert main(argv) == 1

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["pass"] is False
    assert payload["poincare"] == {"C_est": 0.0, "C_est_refined": 0.0, "stability": None}
    reference = payload["sets"]["second-form-reference"]
    assert reference["stability"] is None and reference["stable"] is False


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--cells", "0"], "cells"),
        (["--cells", "2"], "cells"),
        (["--ensemble-size", "0"], "ensemble-size"),
    ],
)
def test_gn_test_bad_sizes_are_config_errors(capsys, flags, message):
    # a zero cell count must not fall back to the default grid, and no bad
    # size may surface as a traceback with the failed-verdict exit code
    argv = ["gn-test", "--n", "1", "--theta", "2.0", "--p", "1.3",
            "--cells", "16", "--ensemble-size", "4", *flags]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("n", [130, 400])
def test_gn_test_degenerate_radial_grid_is_config_error(capsys, n):
    argv = ["gn-test", "--n", str(n), "--theta", "2.0", "--p", "1.001",
            "--ensemble-size", "4"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n {n} --cells 256" in captured.err


def test_gn_test_negative_seed_is_config_error(capsys):
    # numpy rejects a negative seed with a ValueError traceback (exit 1)
    argv = ["gn-test", "--n", "1", "--theta", "2.0", "--p", "1.3",
            "--cells", "16", "--ensemble-size", "4", "--seed", "-1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be >= 0" in captured.err


@pytest.mark.parametrize("n,cells", [(2, 8), (3, 16)])
def test_gn_test_output_does_not_depend_on_cpu_count(monkeypatch, capsys, n, cells):
    # one CPU runs in-process; more run a pool of interleaved ensemble shares,
    # and with 2 members on 3 CPUs the third share of each grid is empty
    for size, cpu_counts in ((9, (1, 2)), (2, (1, 3))):
        argv = ["gn-test", "--n", str(n), "--theta", "1.5", "--p", "1.1",
                "--cells", str(cells), "--ensemble-size", str(size), "--seed", "2"]
        outputs = []
        for cpus in cpu_counts:
            monkeypatch.setattr(cli, "available_cpus", lambda: cpus)
            code = main(argv)
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert json.loads(outputs[0][1])["ensemble"]["size"] == size


def test_gn_test_share_job_runs_in_a_spawned_process():
    # the job function pickles by import path and its arguments by value, so
    # the pool works under start methods that do not fork
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from fluxks.gn import GN2Exponents, density_step_set, estimate_constants
    from fluxks.grid import unit_grid

    second = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=2)
    job = (unit_grid(2, 8), (density_step_set(2, 1.2, 2.5),), (second,), 7, 3, (1, 2))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        assert pool.submit(cli._estimate_share, job).result(timeout=120) == estimate_constants(*job)


def test_gn_test_needs_entropy_witnesses(capsys):
    # semigroup-route points carry no entropy witnesses to test against
    argv = ["gn-test", "--n", "1", "--theta", "2.0", "--p", "1.8",
            "--cells", "64", "--ensemble-size", "4"]
    assert main(argv) == 3
    assert "entropy witnesses" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--p", "0.9"], "got 0.9"),
    (["--n", "2", "--theta", "0.4"], "n*theta = 0.8"),
])
def test_gn_test_rejected_exponents_are_config_errors(capsys, flags, message):
    # the regime's own ValueError becomes a config error that names the value
    assert main(["gn-test", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _run_fresh(probe: str) -> list[str]:
    # a fresh interpreter shows what the package's imports really pull in
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


SOLVER_MODULES = ("scipy.fft", "scipy.linalg", "scipy.sparse", "fluxks.config",
                  "fluxks.stepper", "fluxks.linalg", "fluxks.sweep", "fluxks.monitors")


def test_non_stepping_commands_load_no_solver(tmp_path):
    # audit, gn-test, report, --help and --version never step, so they load
    # neither the stepping modules nor the scipy parts those import
    sweep_dir = tmp_path / "map"
    assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", SWEEP_CFG),
                 "--out", str(sweep_dir)]) == 0
    probe = (
        "import contextlib, io, sys, fluxks, fluxks.cli\n"
        "runs = [['audit', '--n', '2', '--theta', '1.5', '--p-fraction', '0.6'],\n"
        "        ['gn-test', '--cells', '16', '--ensemble-size', '4'], ['--version'], ['--help'],\n"
        f"        ['report', '--sweep-dir', {str(sweep_dir)!r}]]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = fluxks.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(argv[0], code)\n"
        f"print(sorted(m for m in {SOLVER_MODULES!r} if m in sys.modules))"
    )
    *codes, loaded = _run_fresh(probe)
    assert codes == ["audit 0", "gn-test 0", "--version 0", "--help 0", "report 0"]
    assert loaded == "[]"


def test_import_loads_no_scipy_sparse():
    # scipy.sparse costs import time and resident memory that no code path
    # needs, the stepper included
    probe = (
        "import sys, fluxks.stepper\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        "print('scipy.linalg' in sys.modules, 'scipy.fft' in sys.modules)"
    )
    sparse, loaded = _run_fresh(probe)
    assert loaded == "True True"  # the probe sees the stepper's real imports
    assert sparse == "[]"
