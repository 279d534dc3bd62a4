"""The README's configuration examples and sweep key table match the parsers."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

from fluxks.config import parse_config_dict, parse_sweep_config_dict
from fluxks.sweep import SweepSpec

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
    assert cfg.cells == (256,) and cfg.controls.t_end == 20.0
    spec = parse_sweep_config_dict(sweep_example)
    assert spec.theta_values == (1.5, 2.0, 3.0) and spec.cells_2d == 128


def test_readme_sweep_key_table_matches_spec():
    rows = re.findall(r"^\| `(\w+)` \| ([a-z ]+) \| (.+?) \|", README, re.M)
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
