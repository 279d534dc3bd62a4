"""Tests of the benchmark's own code (not part of the package test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_self_times_subtract_merged_children_clipped_to_parent():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap; 3: [9, 12] runs past
    # the root; 4: [1.5, 2] is a grandchild under span 1
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracing.self_times(start, end, parent)
    assert own == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 0.5, 3.0, 3.0, 0.5])


def test_summarize_reports_highest_percentile_with_ten_samples_beyond():
    s = metrics.summarize(range(1, 101))
    assert (s.n, s.p50, s.tail_pct, s.tail) == (100, 50.5, 90.0, 90)
    s = metrics.summarize(range(1, 1001))
    assert (s.tail_pct, s.tail) == (99.0, 990)
    few = metrics.summarize([3.0, 1.0, 2.0])
    assert (few.n, few.p50, few.tail_pct, few.tail) == (3, 2.0, None, None)
    assert metrics.summarize([]).n == 0


def _fluxks_bindings() -> dict:
    return {
        (name, key): val
        for name, mod in sorted(sys.modules.items())
        if name == "fluxks" or name.startswith("fluxks.")
        for key, val in vars(mod).items()
        if callable(val)
    }


def _tiny_run():
    from fluxks import ModelParams, build_grid, build_initial_data, simulate
    from fluxks.stepper import StepControls

    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(32,))
    initial = build_initial_data(grid, family="cosine", base=1.0, amplitude=0.5, v0_kind="u0_squared")
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    return simulate(initial, params, StepControls(t_end=0.05), record_every=2)


def test_tracer_wraps_caller_names_and_restores_originals():
    from fluxks import grid, linalg, model, stepper

    before = _fluxks_bindings()
    init_before = grid.GridFunction.__init__
    solve_before = linalg.HelmholtzSolver.solve
    tracer = tracing.Tracer()
    with tracer:
        # stepper imported regularized_flux: its own name is wrapped too
        assert stepper.regularized_flux is model.regularized_flux
        assert stepper.regularized_flux is not before[("fluxks.model", "regularized_flux")]
        result = _tiny_run()
    assert tracer.absent == []
    assert _fluxks_bindings() == before
    assert grid.GridFunction.__init__ is init_before
    assert linalg.HelmholtzSolver.solve is solve_before

    layers, _ = tracing.layer_metrics(tracer, result.n_steps)
    assert result.n_steps > 0
    assert layers["stepper.step.calls"] == result.n_steps
    assert len(tracer.durations("model.regularized_flux")) == result.n_steps
    assert layers["linalg.solve.calls"] == 2 * result.n_steps
    assert layers["grid.GridFunction.count"] > 0
    assert layers["gn.ensemble.calls"] == 0
    # nothing is recorded once restored
    n_spans = len(tracer.start)
    _tiny_run()
    assert len(tracer.start) == n_spans


def test_removed_layer_is_reported_absent():
    import fluxks.stepper  # noqa: F401

    before = _fluxks_bindings()
    gone = tracing.Layer("stepper.gone", "fluxks.stepper", "no_such_function")
    tracer = tracing.Tracer(layers=tracing.LAYERS + (gone,))
    with tracer:
        pass
    assert tracer.absent == ["fluxks.stepper.no_such_function"]
    assert tracer.durations("stepper.gone") == []
    assert _fluxks_bindings() == before


def _rep(ops: dict) -> dict:
    return {"summary": {"ops": {k: {"failures": f, "fingerprint": fp} for k, (f, fp) in ops.items()}}}


def test_check_counts_failures_and_differing_repeats():
    reps = [
        _rep({"a": ([], "x"), "b": ([], "y")}),
        _rep({"a": ([], "x"), "b": ([], "z")}),
        _rep({"a": (["status NumericalFailure"], "x")}),
    ]
    attempted, failed, problems = run.check(reps)
    assert (attempted, failed) == (6, 3)
    assert any("differ" in p for p in problems)
    assert any("missing" in p for p in problems)

