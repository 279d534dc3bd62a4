"""Declarative run and sweep configuration: strict parsing, defaults, lossless echo.

A run config is a JSON object with sections ``grid``, ``model``, ``initial``,
``controls``, ``monitors`` plus the top-level knobs ``record_every`` and
``mollify``.  A sweep config is a flat JSON object whose keys are the fields
of :class:`~fluxks.sweep.SweepSpec`.  Parsing is strict: unknown keys, values
of the wrong JSON type and numbers no float holds (``1e400``) raise
:class:`~fluxks.errors.ConfigError` with a message pointing at the offending
path.  The ``model`` and ``controls``
sections and the sweep config take their keys, types and defaults from the
fields of the dataclass they build, so each of those settings is declared
once.  ``effective()`` echoes a run config with every default made explicit;
parsing that echo reproduces the identical :class:`RunConfig` (lossless
round-trip).  The monitor index ``s`` may be a number, the string ``"inf"``,
or ``null`` (pick by rule).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .grid import MODES, Grid, build_grid
from .model import INITIAL_FAMILIES, V0_KINDS, InitialData, ModelParams, build_initial_data
from .stepper import StepControls
from .sweep import SweepSpec

_TOP_KEYS = frozenset({"grid", "model", "initial", "controls", "monitors", "record_every", "mollify"})
_GRID_KEYS = frozenset({"mode", "extents", "cells", "n"})
_INITIAL_KEYS = frozenset({"family", "base", "amplitude", "width", "v0", "v0_value"})
_MONITORS_KEYS = frozenset({"q_set", "s", "q_f1", "q_f2", "c_f1"})

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def load_json(path: str | Path, what: str):
    """The JSON value in file ``path``; ``what`` names the file in errors."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {p}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise ConfigError(f"{what} {p} is not valid JSON: {exc}") from exc


def _reject_constant(name: str):
    # Python's json reads NaN and Infinity, which JSON does not define
    raise ValueError(f"{name} is not a JSON number")


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


def _is_kind(val, kind: type) -> bool:
    # a JSON boolean is no number, and a number field accepts a JSON integer
    if isinstance(val, bool):
        return kind is bool
    return isinstance(val, (int, float) if kind is float else kind)


def _check(val, kind: type, path: str) -> None:
    if not _is_kind(val, kind):
        raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {val!r}")
    # a JSON number too large for a float reads as inf (1e400), or as an int
    # that no float holds (1 and 400 zeros); NaN fails the comparison too
    if kind is float and not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {val!r}")


def _get(sec: dict, key: str, where: str, kind, default=MISSING):
    """``sec[key]`` checked against ``kind``, or ``default`` when absent.

    ``kind`` is ``bool``, ``int``, ``float`` (any finite JSON number), ``str``,
    or ``tuple[<one of these>, ...]`` for a JSON array, returned as a tuple.
    The value is validated, never coerced.
    """
    if key not in sec:
        if default is MISSING:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    val = sec[key]
    if get_origin(kind) is tuple:
        if not isinstance(val, list):
            raise ConfigError(f"{where}.{key} must be an array, got {val!r}")
        for i, item in enumerate(val):
            _check(item, get_args(kind)[0], f"{where}.{key}[{i}]")
        return tuple(val)
    _check(val, kind, f"{where}.{key}")
    return val


def _get_floats(sec: dict, key: str, where: str) -> tuple[float, ...]:
    vals = _get(sec, key, where, tuple[float, ...], default=())
    if not vals:
        raise ConfigError(f"{where}.{key} must be a nonempty array of numbers")
    return tuple(float(v) for v in vals)


def _read_fields(cls, sec: dict, where: str, **defaults) -> dict:
    """The fields of dataclass ``cls`` read from ``sec``.

    Its field names are the allowed keys and its annotations the checked
    types; absent keys take ``defaults``, else the declared field defaults.
    """
    _check_keys(sec, frozenset(f.name for f in fields(cls)), where)
    hints = get_type_hints(cls)
    return {
        f.name: _get(sec, f.name, where, hints[f.name], defaults.get(f.name, f.default))
        for f in fields(cls)
    }


def _build_section(cls, sec: dict, where: str, **defaults):
    # a run config holds every number field as a float
    hints = get_type_hints(cls)
    vals = _read_fields(cls, sec, where, **defaults)
    try:
        return cls(**{k: float(v) if hints[k] is float else v for k, v in vals.items()})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
            "model": asdict(self.model),
            "initial": {
                "family": self.family,
                "base": self.base,
                "amplitude": self.amplitude,
                "width": self.width,
                "v0": self.v0_kind,
                "v0_value": self.v0_value,
            },
            "controls": asdict(self.controls),
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
    mode = _get(gsec, "mode", "grid", str)
    if mode not in MODES:
        raise ConfigError(f"grid.mode must be one of {MODES}, got {mode!r}")
    extents = _get_floats(gsec, "extents", "grid")
    cells_f = _get_floats(gsec, "cells", "grid")
    if any(int(c) != c for c in cells_f):
        raise ConfigError(f"grid.cells must be integers, got {list(cells_f)}")
    cells = tuple(int(c) for c in cells_f)
    n_axes = 2 if mode == "cartesian-2d" else 1
    dim_default = {"cartesian-1d": 1, "cartesian-2d": 2}.get(mode)
    grid_n = _get(gsec, "n", "grid", int, default=dim_default)
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
    model = _build_section(ModelParams, msec, "model", n=grid_n)
    if model.n != grid_n:
        raise ConfigError(f"model.n = {model.n} does not match the grid dimension {grid_n}")

    isec = _get_section(data, "initial", required=False)
    _check_keys(isec, _INITIAL_KEYS, "initial")
    family = _get(isec, "family", "initial", str, default="cosine")
    if family not in INITIAL_FAMILIES:
        raise ConfigError(
            f"initial.family must be one of {INITIAL_FAMILIES}, got {family!r}"
        )
    v0_kind = _get(isec, "v0", "initial", str, default="u0_squared")
    if v0_kind not in V0_KINDS:
        raise ConfigError(f"initial.v0 must be one of {V0_KINDS}, got {v0_kind!r}")
    base = float(_get(isec, "base", "initial", float, default=1.0))
    amplitude = float(_get(isec, "amplitude", "initial", float, default=0.5))
    width = float(_get(isec, "width", "initial", float, default=0.1))
    v0_value = float(_get(isec, "v0_value", "initial", float, default=0.0))

    csec = _get_section(data, "controls", required=True)
    controls = _build_section(StepControls, csec, "controls")

    osec = _get_section(data, "monitors", required=False)
    _check_keys(osec, _MONITORS_KEYS, "monitors")
    q_set: tuple[float, ...] | None = None
    if osec.get("q_set") is not None:
        q_set = _get_floats(osec, "q_set", "monitors")
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
        s = float(_get(osec, "s", "monitors", float))
        if s < 1.0:
            raise ConfigError(f"monitors.s must be >= 1, got {s}")
    q_fs = []
    for name in ("q_f1", "q_f2"):
        q = None if osec.get(name) is None else float(_get(osec, name, "monitors", float))
        if q is not None and q <= 1.0:
            raise ConfigError(f"monitors.{name} must exceed 1, got {q}")
        q_fs.append(q)
    q_f1, q_f2 = q_fs
    c_f1 = float(_get(osec, "c_f1", "monitors", float, default=1.0))
    if c_f1 < 0.0:
        raise ConfigError(f"monitors.c_f1 must be >= 0, got {c_f1}")

    record_every = _get(data, "record_every", "config", int, default=5)
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    mollify = _get(data, "mollify", "config", bool, default=True)

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
    return parse_config_dict(load_json(path, "config"))


def parse_sweep_config_dict(data: dict) -> SweepSpec:
    """Validate a sweep config object; every violation raises :class:`ConfigError`.

    Numbers keep their JSON type: the point ids hash them as given.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"sweep config root must be an object, got {type(data).__name__}")
    return SweepSpec(**_read_fields(SweepSpec, data, "sweep"))


def parse_sweep_config(path: str | Path) -> SweepSpec:
    """Parse a JSON sweep config file; errors as in :func:`parse_config`."""
    return parse_sweep_config_dict(load_json(path, "sweep config"))
