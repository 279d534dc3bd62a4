"""The README's configuration examples and key tables match the parsers."""

import json
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from fluxks.config import RunConfig, parse_config_dict
from fluxks.sweep import SweepSpec, parse_sweep_config_dict
from fluxks.sweepdir import POINT_TREE

from conftest import tree_leaves

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

TYPE_NAMES = {
    "array of integers": tuple[int, ...],
    "array of numbers": tuple[float, ...],
    "integer": int,
    "number": float,
    "string": str,
}


def json_blocks():
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README, re.S)]


def test_readme_config_examples_parse():
    run_example, sweep_example = json_blocks()
    cfg = parse_config_dict(run_example)
    assert cfg.grid.cells == (256,) and cfg.controls.t_end == 20.0
    spec = parse_sweep_config_dict(sweep_example)
    assert spec.theta_values == (1.5, 2.0, 3.0) and spec.cells_2d == 128


def test_readme_sweep_key_table_matches_spec():
    # four columns: the point-file table's rows have three
    rows = re.findall(r"^\| `(\w+)` \| ([a-z ]+) \| ([^|]+?) \| [^|]+ \|$", README, re.M)
    table = {key: (kind, default) for key, kind, default in rows}
    hints = get_type_hints(SweepSpec)
    assert list(table) == [f.name for f in fields(SweepSpec)]
    for f in fields(SweepSpec):
        kind, default = table[f.name]
        assert TYPE_NAMES[kind] == hints[f.name], f.name
        if f.default is MISSING:
            assert default == "required", f.name
        else:
            assert json.loads(default.strip("`")) == f.default, f.name


RUN_TYPE_NAMES = {**TYPE_NAMES, "boolean": bool, 'number, "inf"': float}


def run_kind(name: str):
    if name.endswith(" or null"):
        return RUN_TYPE_NAMES[name[: -len(" or null")]] | None
    return RUN_TYPE_NAMES[name]


def test_readme_run_config_key_table_matches_config():
    rows = re.findall(
        r"^\| (`\w+`|top level) \| `(\w+)` \| ([a-z ,\"]+) \| (.+?) \|", README, re.M
    )
    table = {(sec.strip("`"), key): (kind, default) for sec, key, kind, default in rows}
    expected = []
    top_hints = get_type_hints(RunConfig)
    for top in fields(RunConfig):
        section = top_hints[top.name]
        if is_dataclass(section):
            hints = get_type_hints(section)
            expected += [(top.name, f, hints[f.name]) for f in fields(section)]
        else:
            expected.append(("top level", top, section))
    assert list(table) == [(sec, f.name) for sec, f, _ in expected]
    for sec, f, hint in expected:
        kind, default = table[sec, f.name]
        assert run_kind(kind) == hint, (sec, f.name)
        if (sec, f.name) == ("model", "n"):
            assert default == "`grid.n`"  # the config fills it in from the grid
        elif f.default is MISSING:
            assert default == "required", (sec, f.name)
        else:
            assert json.loads(default.strip("`")) == f.default, (sec, f.name)


POINT_TYPE_NAMES = {**RUN_TYPE_NAMES, "object": dict}


def test_readme_point_file_table_is_the_point_tree():
    # the point-file table lists each leaf of POINT_TREE, run block included,
    # by its dotted path, with its JSON type
    rows = re.findall(r"^\| `([\w.]+)` \| ([a-z]+) \| [^|]+ \|$", README, re.M)
    assert [(key, POINT_TYPE_NAMES[kind]) for key, kind in rows] == [
        (".".join(path), kind) for path, kind in tree_leaves(POINT_TREE)
    ]
