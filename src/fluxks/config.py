"""Declarative run configuration: strict parsing, defaults, lossless echo.

A run config is a JSON object with sections ``grid``, ``model``, ``initial``,
``controls``, ``monitors`` plus the top-level knobs ``record_every`` and
``mollify``.  Parsing is strict: unknown keys anywhere raise
:class:`~fluxks.errors.ConfigError` with a message pointing at the offending
path.  ``effective()`` echoes the config with every default made explicit;
parsing that echo reproduces the identical :class:`RunConfig` (lossless
round-trip).  The monitor index ``s`` may be a number, the string ``"inf"``,
or ``null`` (pick by rule).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .grid import MODES, Grid, build_grid
from .model import INITIAL_FAMILIES, V0_KINDS, InitialData, ModelParams, build_initial_data
from .stepper import StepControls

_TOP_KEYS = frozenset({"grid", "model", "initial", "controls", "monitors", "record_every", "mollify"})
_GRID_KEYS = frozenset({"mode", "extents", "cells", "n"})
_MODEL_KEYS = frozenset({"chi", "p", "theta", "eps", "n"})
_INITIAL_KEYS = frozenset({"family", "base", "amplitude", "width", "v0", "v0_value"})
_CONTROLS_KEYS = frozenset({"t_end", "dt_max", "dt_min", "cfl_safety", "blowup_linf_threshold"})
_MONITORS_KEYS = frozenset({"q_set", "s", "q_f1", "q_f2", "c_f1"})

_MISSING = object()


def _check_keys(section: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _get_section(data: dict, key: str, required: bool) -> dict:
    if key not in data:
        if required:
            raise ConfigError(f"missing required section {key!r}")
        return {}
    sec = data[key]
    if not isinstance(sec, dict):
        raise ConfigError(f"section {key!r} must be an object, got {type(sec).__name__}")
    return sec


def _get_num(sec: dict, key: str, where: str, default=_MISSING) -> float:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    return float(val)


def _get_int(sec: dict, key: str, where: str, default=_MISSING) -> int:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    return val


def _get_bool(sec: dict, key: str, where: str, default=_MISSING) -> bool:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    val = sec[key]
    if not isinstance(val, bool):
        raise ConfigError(f"{where}.{key} must be a boolean, got {val!r}")
    return val


def _get_str(sec: dict, key: str, where: str, default=_MISSING) -> str:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    val = sec[key]
    if not isinstance(val, str):
        raise ConfigError(f"{where}.{key} must be a string, got {val!r}")
    return val


def _get_num_list(sec: dict, key: str, where: str) -> tuple[float, ...]:
    val = sec.get(key)
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{where}.{key} must be a nonempty array of numbers")
    out = []
    for i, item in enumerate(val):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}.{key}[{i}] must be a number, got {item!r}")
        out.append(float(item))
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved single-run configuration (all defaults explicit)."""

    grid_mode: str
    extents: tuple[float, ...]
    cells: tuple[int, ...]
    grid_n: int
    model: ModelParams
    family: str
    base: float
    amplitude: float
    width: float
    v0_kind: str
    v0_value: float
    controls: StepControls
    q_set: tuple[float, ...] | None
    s: float | None
    q_f1: float | None
    q_f2: float | None
    c_f1: float
    record_every: int
    mollify: bool

    def build_grid(self) -> Grid:
        n = self.grid_n if self.grid_mode == "radial-n" else None
        return build_grid(self.grid_mode, extents=self.extents, cells=self.cells, n=n)

    def build_initial(self, grid: Grid) -> InitialData:
        return build_initial_data(
            grid,
            family=self.family,
            base=self.base,
            amplitude=self.amplitude,
            v0_kind=self.v0_kind,
            v0_value=self.v0_value,
            theta=self.model.theta,
            width=self.width,
        )

    def simulate_kwargs(self) -> dict:
        return {
            "record_every": self.record_every,
            "q_set": self.q_set,
            "s": self.s,
            "q_f1": self.q_f1,
            "q_f2": self.q_f2,
            "c_f1": self.c_f1,
            "mollify": self.mollify,
        }

    def effective(self) -> dict:
        """Echo with every defaulted field explicit; JSON-ready, lossless."""
        s_echo: float | str | None = self.s
        if s_echo is not None and math.isinf(s_echo):
            s_echo = "inf"
        return {
            "grid": {
                "mode": self.grid_mode,
                "extents": list(self.extents),
                "cells": list(self.cells),
                "n": self.grid_n,
            },
            "model": {
                "chi": self.model.chi,
                "p": self.model.p,
                "theta": self.model.theta,
                "eps": self.model.eps,
                "n": self.model.n,
            },
            "initial": {
                "family": self.family,
                "base": self.base,
                "amplitude": self.amplitude,
                "width": self.width,
                "v0": self.v0_kind,
                "v0_value": self.v0_value,
            },
            "controls": {
                "t_end": self.controls.t_end,
                "dt_max": self.controls.dt_max,
                "dt_min": self.controls.dt_min,
                "cfl_safety": self.controls.cfl_safety,
                "blowup_linf_threshold": self.controls.blowup_linf_threshold,
            },
            "monitors": {
                "q_set": list(self.q_set) if self.q_set is not None else None,
                "s": s_echo,
                "q_f1": self.q_f1,
                "q_f2": self.q_f2,
                "c_f1": self.c_f1,
            },
            "record_every": self.record_every,
            "mollify": self.mollify,
        }


def parse_config_dict(data: dict) -> RunConfig:
    """Validate a config object; every violation raises :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS, "config")

    gsec = _get_section(data, "grid", required=True)
    _check_keys(gsec, _GRID_KEYS, "grid")
    mode = _get_str(gsec, "mode", "grid")
    if mode not in MODES:
        raise ConfigError(f"grid.mode must be one of {MODES}, got {mode!r}")
    extents = _get_num_list(gsec, "extents", "grid")
    cells_f = _get_num_list(gsec, "cells", "grid")
    if any(int(c) != c for c in cells_f):
        raise ConfigError(f"grid.cells must be integers, got {list(cells_f)}")
    cells = tuple(int(c) for c in cells_f)
    n_axes = 2 if mode == "cartesian-2d" else 1
    dim_default = {"cartesian-1d": 1, "cartesian-2d": 2}.get(mode)
    grid_n = _get_int(gsec, "n", "grid", default=dim_default)
    if grid_n is None:
        raise ConfigError("grid.n is required for mode 'radial-n'")
    if mode != "radial-n" and grid_n != dim_default:
        raise ConfigError(f"grid.n must equal {dim_default} for mode {mode!r}, got {grid_n}")
    if len(extents) != n_axes or len(cells) != n_axes:
        raise ConfigError(
            f"grid.extents and grid.cells must have {n_axes} entr"
            f"{'y' if n_axes == 1 else 'ies'} for mode {mode!r}"
        )

    msec = _get_section(data, "model", required=True)
    _check_keys(msec, _MODEL_KEYS, "model")
    model_n = _get_int(msec, "n", "model", default=grid_n)
    if model_n != grid_n:
        raise ConfigError(f"model.n = {model_n} does not match the grid dimension {grid_n}")
    try:
        model = ModelParams(
            chi=_get_num(msec, "chi", "model"),
            p=_get_num(msec, "p", "model"),
            theta=_get_num(msec, "theta", "model"),
            eps=_get_num(msec, "eps", "model"),
            n=model_n,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    isec = _get_section(data, "initial", required=False)
    _check_keys(isec, _INITIAL_KEYS, "initial")
    family = _get_str(isec, "family", "initial", default="cosine")
    if family not in INITIAL_FAMILIES:
        raise ConfigError(
            f"initial.family must be one of {INITIAL_FAMILIES}, got {family!r}"
        )
    v0_kind = _get_str(isec, "v0", "initial", default="u0_squared")
    if v0_kind not in V0_KINDS:
        raise ConfigError(f"initial.v0 must be one of {V0_KINDS}, got {v0_kind!r}")
    base = _get_num(isec, "base", "initial", default=1.0)
    amplitude = _get_num(isec, "amplitude", "initial", default=0.5)
    width = _get_num(isec, "width", "initial", default=0.1)
    v0_value = _get_num(isec, "v0_value", "initial", default=0.0)

    csec = _get_section(data, "controls", required=True)
    _check_keys(csec, _CONTROLS_KEYS, "controls")
    try:
        controls = StepControls(
            t_end=_get_num(csec, "t_end", "controls"),
            dt_max=_get_num(csec, "dt_max", "controls", default=0.1),
            dt_min=_get_num(csec, "dt_min", "controls", default=1e-10),
            cfl_safety=_get_num(csec, "cfl_safety", "controls", default=0.4),
            blowup_linf_threshold=_get_num(
                csec, "blowup_linf_threshold", "controls", default=1e6
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"controls: {exc}") from exc

    osec = _get_section(data, "monitors", required=False)
    _check_keys(osec, _MONITORS_KEYS, "monitors")
    q_set: tuple[float, ...] | None = None
    if osec.get("q_set") is not None:
        q_set = _get_num_list(osec, "q_set", "monitors")
        if any(q <= 0.0 for q in q_set):
            raise ConfigError(f"monitors.q_set entries must be positive, got {list(q_set)}")
        q_set = tuple(sorted(set(q_set)))
    s_raw = osec.get("s")
    s: float | None
    if s_raw is None:
        s = None
    elif isinstance(s_raw, str):
        if s_raw != "inf":
            raise ConfigError(f'monitors.s accepts the string "inf" only, got {s_raw!r}')
        s = math.inf
    elif isinstance(s_raw, bool) or not isinstance(s_raw, (int, float)):
        raise ConfigError(f'monitors.s must be a number, "inf", or null, got {s_raw!r}')
    else:
        s = float(s_raw)
        if s < 1.0:
            raise ConfigError(f"monitors.s must be >= 1, got {s}")
    q_f1 = osec.get("q_f1")
    q_f2 = osec.get("q_f2")
    for name, val in (("q_f1", q_f1), ("q_f2", q_f2)):
        if val is not None:
            got = _get_num(osec, name, "monitors")
            if got <= 1.0:
                raise ConfigError(f"monitors.{name} must exceed 1, got {got}")
    q_f1 = None if q_f1 is None else float(q_f1)
    q_f2 = None if q_f2 is None else float(q_f2)
    c_f1 = _get_num(osec, "c_f1", "monitors", default=1.0)
    if c_f1 < 0.0:
        raise ConfigError(f"monitors.c_f1 must be >= 0, got {c_f1}")

    record_every = _get_int(data, "record_every", "config", default=5)
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    mollify = _get_bool(data, "mollify", "config", default=True)

    cfg = RunConfig(
        grid_mode=mode,
        extents=extents,
        cells=cells,
        grid_n=grid_n,
        model=model,
        family=family,
        base=base,
        amplitude=amplitude,
        width=width,
        v0_kind=v0_kind,
        v0_value=v0_value,
        controls=controls,
        q_set=q_set,
        s=s,
        q_f1=q_f1,
        q_f2=q_f2,
        c_f1=c_f1,
        record_every=record_every,
        mollify=mollify,
    )
    # surface grid/initial-data violations at parse time, not run time
    try:
        grid = cfg.build_grid()
        cfg.build_initial(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path: str | Path) -> RunConfig:
    """Parse a JSON config file.

    Raises:
        ConfigError: unreadable file, invalid JSON, or any schema violation.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return parse_config_dict(data)
