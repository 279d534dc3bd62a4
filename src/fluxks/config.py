"""Declarative run configuration: strict parsing, defaults, lossless echo.

A run config is a JSON object with sections ``grid``, ``model``, ``initial``,
``controls``, ``monitors`` plus the top-level knobs ``record_every`` and
``mollify``: the fields of :class:`RunConfig`.  :func:`parse_config_dict` is
the one validator of run settings: ``fluxks simulate`` reads a config file
through it, and a sweep builds each lattice point's config through it (see
:func:`fluxks.sweep.point_config`).  Parsing is strict: unknown keys, values
of the wrong JSON type and numbers no float holds (``1e400``) raise
:class:`~fluxks.errors.ConfigError` with a message pointing at the offending
path.  Each section takes its keys, types, defaults and choices from the
fields of the dataclass it builds (:func:`read_fields`), so each setting is
declared once.  ``effective()`` echoes a run config with every default made
explicit; parsing that echo reproduces the identical :class:`RunConfig`
(lossless round-trip).  The monitor index ``s`` may be a number, the string
``"inf"``, or ``null`` (pick by rule).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .functionals import MonitorSettings
from .grid import Grid, build_grid
from .model import InitialData, InitialSettings, ModelParams, build_initial_data
from .runtime import is_kind, load_json
from .stepper import DEFAULT_MOLLIFY, DEFAULT_RECORD_EVERY, SimResult, StepControls, simulate

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _check_keys(section: dict, cls, where: str) -> None:
    allowed = {f.name for f in fields(cls)}
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


def _check(val, kind: type, path: str) -> None:
    if not is_kind(val, kind):
        raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {val!r}")
    # a JSON number too large for a float reads as inf (1e400), or as an int
    # that no float holds (1 and 400 zeros); NaN fails the comparison too
    if kind is float and not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {val!r}")


def _non_null(kind):
    # X for the annotation X | None, else kind itself
    args = get_args(kind)
    return next(a for a in args if a is not type(None)) if type(None) in args else kind


def _get(sec: dict, key: str, where: str, kind, default=MISSING, choices=None):
    """``sec[key]`` checked against ``kind``, or ``default`` when absent.

    ``kind`` is ``bool``, ``int``, ``float`` (any finite JSON number), ``str``,
    or ``tuple[<one of these>, ...]`` for a nonempty JSON array, returned as a
    tuple; ``X | None`` also admits null.  A value outside ``choices`` (when
    given) is an error.  The value is validated, never coerced.
    """
    path = f"{where}.{key}"
    if key not in sec:
        if default is MISSING:
            raise ConfigError(f"missing required key {path}")
        return default
    val = sec[key]
    if val is None and type(None) in get_args(kind):
        return None
    kind = _non_null(kind)
    if get_origin(kind) is tuple:
        if not isinstance(val, list):
            raise ConfigError(f"{path} must be an array, got {val!r}")
        if not val:
            raise ConfigError(f"{path} must be a nonempty array")
        for i, item in enumerate(val):
            _check(item, get_args(kind)[0], f"{path}[{i}]")
        return tuple(val)
    _check(val, kind, path)
    if choices is not None and val not in choices:
        raise ConfigError(f"{path} must be one of {choices}, got {val!r}")
    return val


# the resolved annotations of a dataclass, looked up once per class
_field_types = functools.cache(get_type_hints)


def read_fields(cls, sec: dict, where: str, **defaults) -> dict:
    """The fields of dataclass ``cls`` read from ``sec``.

    Its field names are the allowed keys, its annotations the checked types
    and its ``choices`` metadata the admitted values; absent keys take
    ``defaults``, else the declared field defaults.
    """
    _check_keys(sec, cls, where)
    hints = _field_types(cls)
    return {
        f.name: _get(sec, f.name, where, hints[f.name], defaults.get(f.name, f.default),
                     f.metadata.get("choices"))
        for f in fields(cls)
    }


def _as_float(val, kind):
    # a run config holds every number of a float field as a float
    kind = _non_null(kind)
    if val is None or kind not in (float, tuple[float, ...]):
        return val
    return float(val) if kind is float else tuple(float(v) for v in val)


def _build_section(cls, sec: dict, where: str, **defaults):
    hints = _field_types(cls)
    vals = read_fields(cls, sec, where, **defaults)
    try:
        return cls(**{k: _as_float(v, hints[k]) for k, v in vals.items()})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class GridSettings:
    """The ``grid`` section: the arguments of :func:`~fluxks.grid.build_grid`,
    which checks them.  A parsed config holds the built grid's values, so
    ``n`` is explicit for every mode."""

    mode: str
    extents: tuple[float, ...]
    # read as numbers, so that 64.0 spells 64; build_grid requires integers
    cells: tuple[float, ...]
    n: int | None = None


def _json_lists(items) -> dict:
    # asdict's dict_factory: arrays echo as JSON-ready lists
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved single-run configuration (all defaults explicit): one
    field per top-level key."""

    grid: GridSettings
    model: ModelParams
    initial: InitialSettings
    controls: StepControls
    monitors: MonitorSettings
    record_every: int = DEFAULT_RECORD_EVERY
    mollify: bool = DEFAULT_MOLLIFY

    def build_grid(self) -> Grid:
        return build_grid(**asdict(self.grid))

    def build_initial(self, grid: Grid) -> InitialData:
        kwargs = asdict(self.initial)
        kwargs["v0_kind"] = kwargs.pop("v0")
        return build_initial_data(grid, theta=self.model.theta, **kwargs)

    def run(self, keep_states: str, record: Callable | None = None) -> SimResult:
        """Simulate this config; ``keep_states`` and ``record`` as in
        :func:`~fluxks.stepper.simulate`."""
        return simulate(
            self.build_initial(self.build_grid()), self.model, self.controls,
            record_every=self.record_every, monitors=self.monitors,
            mollify=self.mollify, keep_states=keep_states, record=record,
        )

    def effective(self) -> dict:
        """Echo with every defaulted field explicit; JSON-ready, lossless."""
        echo = asdict(self, dict_factory=_json_lists)
        if self.monitors.s == math.inf:
            echo["monitors"]["s"] = "inf"
        return echo


def _read_monitors(sec: dict) -> MonitorSettings:
    # s also admits the string "inf", which its field type cannot say
    s = sec.get("s")
    if isinstance(s, str) and s != "inf":
        raise ConfigError(f'monitors.s accepts the string "inf" only, got {s!r}')
    if not (s is None or isinstance(s, str) or is_kind(s, float)):
        raise ConfigError(f'monitors.s must be a number, "inf", or null, got {s!r}')
    if s != "inf":
        return _build_section(MonitorSettings, sec, "monitors")
    return replace(_build_section(MonitorSettings, {**sec, "s": None}, "monitors"), s=math.inf)


def parse_config_dict(data: dict) -> RunConfig:
    """Validate a config object; every violation raises :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, RunConfig, "config")

    grid_args = read_fields(GridSettings, _get_section(data, "grid", True), "grid")
    try:
        grid = build_grid(**grid_args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = _build_section(ModelParams, _get_section(data, "model", True), "model", n=grid.n)
    if model.n != grid.n:
        raise ConfigError(f"model.n = {model.n} does not match the grid dimension {grid.n}")
    initial = _build_section(InitialSettings, _get_section(data, "initial", False), "initial")
    controls = _build_section(StepControls, _get_section(data, "controls", True), "controls")
    monitors = _read_monitors(_get_section(data, "monitors", False))
    record_every = _get(data, "record_every", "config", int, RunConfig.record_every)
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")

    cfg = RunConfig(
        # the built grid resolves n and normalizes the extents and cells
        grid=GridSettings(mode=grid.mode, extents=grid.extents, cells=grid.shape, n=grid.n),
        model=model,
        initial=initial,
        controls=controls,
        monitors=monitors,
        record_every=record_every,
        mollify=_get(data, "mollify", "config", bool, RunConfig.mollify),
    )
    # surface initial-data violations at parse time, not run time
    try:
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

