"""Span tracing at the layer boundaries of ``fluxks``, from outside the package.

A traced layer is a public function or method of ``fluxks``.  ``Tracer.install``
replaces the function under every name that binds it in a loaded ``fluxks``
module, so the wrapper sits at the name each caller looks up:
``regularized_flux`` is patched in ``fluxks.stepper``, which imports it, as well
as in ``fluxks.model``.  Each call records one span -- layer id, start, end and
the index of the enclosing span -- in flat in-memory arrays.
``GridFunction`` constructions are counted instead, because there are too many
for spans.  ``Tracer.restore`` puts every original back.  A layer whose
function no longer exists is listed in ``Tracer.absent`` and reports 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

from metrics import summarize


@dataclass(frozen=True)
class Layer:
    name: str  # span name, e.g. "linalg.solve"
    module: str  # defining module, e.g. "fluxks.linalg"
    attr: str  # attribute path in that module, e.g. "HelmholtzSolver.solve"


LAYERS = (
    Layer("linalg.solve", "fluxks.linalg", "HelmholtzSolver.solve"),
    Layer("stepper.step", "fluxks.stepper", "step"),
    Layer("stepper.choose_dt", "fluxks.stepper", "choose_dt"),
    Layer("model.regularized_flux", "fluxks.model", "regularized_flux"),
    Layer("model.production", "fluxks.model", "production"),
    Layer("functionals.record", "fluxks.functionals", "record"),
    Layer("grid.gradient_lp_norm", "fluxks.grid", "gradient_lp_norm"),
    Layer("grid.laplacian_values", "fluxks.grid", "laplacian_values"),
    Layer("gn.ensemble", "fluxks.gn", "ensemble"),
    Layer("gn.ratio", "fluxks.gn", "gn_ratio"),
    Layer("gn.ratio", "fluxks.gn", "gn2_ratio"),
    Layer("gn.ratio", "fluxks.gn", "poincare_ratio"),
    Layer("sweep.run_point", "fluxks.sweep", "run_point"),
    Layer("sweep.write", "fluxks.sweep", "write_atomic"),
    Layer("monitors.classify", "fluxks.monitors", "classify"),
)
COUNTED = Layer("grid.GridFunction", "fluxks.grid", "GridFunction")


def _solve_observer(fn):
    # HelmholtzSolver.solve returns (x, iterations, relres)
    def observe(obs, args, kwargs, result):
        if isinstance(result, tuple) and len(result) == 3:
            obs.append((result[1], result[2]))

    return observe


def _step_observer(fn):
    # step(state, params, controls, dt, ...): was dt the controls' dt_max?
    params = list(inspect.signature(fn).parameters)
    if "dt" not in params or "controls" not in params:
        return None
    i_dt, i_ctl = params.index("dt"), params.index("controls")

    def observe(obs, args, kwargs, result):
        dt = kwargs["dt"] if "dt" in kwargs else args[i_dt]
        controls = kwargs["controls"] if "controls" in kwargs else args[i_ctl]
        obs.append(dt == controls.dt_max)

    return observe


OBSERVERS = {"linalg.solve": _solve_observer, "stepper.step": _step_observer}


def _resolve(layer: Layer):
    """``(owner, attribute, original)`` or None when the name is gone."""
    owner = sys.modules.get(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans for ``layers`` while installed; see the module docstring."""

    def __init__(self, layers=LAYERS, counted: Layer | None = COUNTED):
        self.layers = tuple(layers)
        self.counted = counted
        self.names: list[str] = sorted({layer.name for layer in self.layers})
        self.absent: list[str] = []
        self.observed: dict[str, list] = {name: [] for name in OBSERVERS}
        self.constructions = 0
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer_id: int, observe, obs):
        name_id, parent, start, end, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(obs, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, original, replacement) -> None:
        # a module-level function is rebound in every fluxks module that
        # imported it; a method only on its class
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "fluxks" or mod_name.startswith("fluxks."))
                for key, val in list(vars(mod).items())
                if val is original
            ]
        for target, key in targets:
            setattr(target, key, replacement)
            self._patched.append((target, key, original))

    def install(self) -> "Tracer":
        for layer in self.layers:
            found = _resolve(layer)
            if found is None:
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            owner, attr, original = found
            factory = OBSERVERS.get(layer.name)
            observe = factory(original) if factory is not None else None
            wrapper = self._wrap(
                original, self.names.index(layer.name), observe, self.observed.get(layer.name)
            )
            self._patch(owner, attr, original, wrapper)
        if self.counted is not None:
            self._install_counter(self.counted)
        return self

    def _install_counter(self, layer: Layer) -> None:
        found = _resolve(layer)
        if found is None or "__init__" not in vars(found[2]):
            self.absent.append(f"{layer.module}.{layer.attr}")
            return
        cls = found[2]
        original_init = vars(cls)["__init__"]

        @functools.wraps(original_init)
        def counting_init(obj, *args, **kwargs):
            self.constructions += 1
            original_init(obj, *args, **kwargs)

        setattr(cls, "__init__", counting_init)
        self._patched.append((cls, "__init__", original_init))

    def restore(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def durations(self, name: str) -> list[float]:
        if name not in self.names:
            return []
        lid = self.names.index(name)
        return [e - s for i, s, e in zip(self.name_id, self.start, self.end) if i == lid]

    def self_seconds(self, name: str) -> float:
        if name not in self.names:
            return 0.0
        lid = self.names.index(name)
        own = self_times(self.start, self.end, self.parent)
        return sum(t for i, t in zip(self.name_id, own) if i == lid)


def span_cost(n: int = 100_000) -> float:
    """Seconds that tracing adds to one call, measured on a wrapped no-op."""

    def noop():
        return None

    wrapped = Tracer(layers=(), counted=None)._wrap(noop, 0, None, None)
    t0 = perf_counter()
    for _ in range(n):
        wrapped()
    t1 = perf_counter()
    for _ in range(n):
        noop()
    t2 = perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``parent[i]`` is the index of span ``i``'s parent, or -1.  Overlapping
    children are merged and clipped to the parent, so no time is removed twice.
    """
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, idx in kids.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for i in sorted(idx, key=lambda j: start[j]):
            lo, hi = max(start[i], lo_p), min(end[i], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def layer_metrics(tracer: Tracer, steps: int) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics that come from spans and counters, and a note on
    the percentile each tail metric reports."""
    m: dict[str, float] = {}

    def timed(name: str, *, calls=False, total=False, p50=False):
        d = tracer.durations(name)
        if calls:
            m[f"{name}.calls"] = len(d)
        if total:
            m[f"{name}.s"] = sum(d)
        if p50:
            m[f"{name}.us_p50"] = summarize(d).p50 * 1e6
        return d

    solves = timed("linalg.solve", calls=True, total=True, p50=True)
    tail = summarize(solves)
    m["linalg.solve.us_p99"] = (tail.tail or 0.0) * 1e6
    obs = tracer.observed["linalg.solve"]
    m["linalg.solve.iters_mean"] = sum(o[0] for o in obs) / len(obs) if obs else 0.0
    m["linalg.solve.relres_max"] = max((o[1] for o in obs), default=0.0)

    timed("stepper.step", calls=True)
    m["stepper.step.self_s"] = tracer.self_seconds("stepper.step")
    timed("stepper.choose_dt", total=True, p50=True)
    at_max = tracer.observed["stepper.step"]
    m["stepper.dt_at_max_frac"] = sum(at_max) / len(at_max) if at_max else 0.0

    timed("model.regularized_flux", total=True, p50=True)
    timed("model.production", total=True)
    timed("functionals.record", calls=True, total=True, p50=True)
    timed("grid.gradient_lp_norm", calls=True, total=True)
    timed("grid.laplacian_values", calls=True)
    m["grid.GridFunction.count"] = tracer.constructions
    m["grid.GridFunction.per_step"] = tracer.constructions / steps if steps else 0.0
    timed("gn.ensemble", calls=True, total=True)
    timed("gn.ratio", calls=True, total=True, p50=True)
    timed("sweep.run_point", calls=True)
    m["sweep.write_s"] = sum(tracer.durations("sweep.write"))
    m["monitors.classify.s"] = sum(tracer.durations("monitors.classify"))
    return m, {"linalg.solve.us_p99": tail.describe()}
