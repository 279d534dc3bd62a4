"""Declarative run and sweep configuration: strict parsing, defaults, lossless echo.

A run config is a JSON object with sections ``grid``, ``model``, ``initial``,
``controls``, ``monitors`` plus the top-level knobs ``record_every`` and
``mollify``: the fields of :class:`RunConfig`.  A sweep config is a flat JSON
object whose keys are the fields of :class:`~fluxks.sweep.SweepSpec`.  Parsing
is strict: unknown keys, values of the wrong JSON type and numbers no float
holds (``1e400``) raise :class:`~fluxks.errors.ConfigError` with a message
pointing at the offending path.  Each section, and the sweep config, takes its
keys, types, defaults and choices from the fields of the dataclass it builds,
so each setting is declared once.  ``effective()`` echoes a run config with
every default made explicit; parsing that echo reproduces the identical
:class:`RunConfig` (lossless round-trip).  The monitor index ``s`` may be a
number, the string ``"inf"``, or ``null`` (pick by rule).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .functionals import DEFAULT_C_F1
from .grid import Grid, build_grid
from .model import InitialData, InitialSettings, ModelParams, build_initial_data
from .stepper import DEFAULT_MOLLIFY, DEFAULT_RECORD_EVERY, StepControls
from .sweep import SweepSpec

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


def _read_fields(cls, sec: dict, where: str, **defaults) -> dict:
    """The fields of dataclass ``cls`` read from ``sec``.

    Its field names are the allowed keys, its annotations the checked types
    and its ``choices`` metadata the admitted values; absent keys take
    ``defaults``, else the declared field defaults.
    """
    _check_keys(sec, cls, where)
    hints = get_type_hints(cls)
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
    hints = get_type_hints(cls)
    vals = _read_fields(cls, sec, where, **defaults)
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


@dataclass(frozen=True)
class MonitorSettings:
    """The ``monitors`` section: the functional indices and the F1 weight of
    :func:`~fluxks.stepper.simulate`; an index left ``None`` is picked by
    rule there.  ``q_set`` is kept sorted and free of duplicates."""

    q_set: tuple[float, ...] | None = None
    s: float | None = None
    q_f1: float | None = None
    q_f2: float | None = None
    c_f1: float = DEFAULT_C_F1

    def __post_init__(self) -> None:
        if self.q_set is not None:
            if not all(q > 0.0 for q in self.q_set):
                raise ValueError(f"q_set entries must be positive, got {list(self.q_set)}")
            object.__setattr__(self, "q_set", tuple(sorted(set(self.q_set))))
        if self.s is not None and not self.s >= 1.0:
            raise ValueError(f"s must be >= 1, got {self.s}")
        for name in ("q_f1", "q_f2"):
            q = getattr(self, name)
            if q is not None and not q > 1.0:
                raise ValueError(f"{name} must exceed 1, got {q}")
        if not self.c_f1 >= 0.0:
            raise ValueError(f"c_f1 must be >= 0, got {self.c_f1}")


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

    def simulate_kwargs(self) -> dict:
        return {
            **asdict(self.monitors),
            "record_every": self.record_every,
            "mollify": self.mollify,
        }

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
    if not (s is None or isinstance(s, str) or _is_kind(s, float)):
        raise ConfigError(f'monitors.s must be a number, "inf", or null, got {s!r}')
    if s != "inf":
        return _build_section(MonitorSettings, sec, "monitors")
    return replace(_build_section(MonitorSettings, {**sec, "s": None}, "monitors"), s=math.inf)


def parse_config_dict(data: dict) -> RunConfig:
    """Validate a config object; every violation raises :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, RunConfig, "config")

    grid_args = _read_fields(GridSettings, _get_section(data, "grid", True), "grid")
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
