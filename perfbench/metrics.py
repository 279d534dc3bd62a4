"""Metric tables and the summary statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are read from ``BENCHMARK.json`` at the
repository root: each is a tuple of (name, unit, better).

``END_TO_END`` is what a ``--trace 0`` run puts in its JSON result.
``steps``, ``us_per_step`` and ``failed_frac`` are end-to-end numbers too and
every run prints them, but they are 0 or undefined on ``gn-test-2d`` (no time
steps) and ``failed_frac`` is 0 on a correct run, so they cannot carry a
regression bound, which is a share of the median.  ``steps`` and
``us_per_step`` therefore travel in the ``--trace 1`` result with the layer
metrics, and ``failed_frac`` is ``failed / attempted`` of every result.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _table(key: str) -> tuple[tuple[str, str, str], ...]:
    return tuple((m["name"], m["unit"], m["better"]) for m in BENCHMARK[key])


END_TO_END = _table("end_to_end")
PER_LAYER = _table("per_layer")

# printed on every run next to END_TO_END
REPORTED_ONLY = (
    ("steps", "count"),
    ("us_per_step", "us"),
    ("failed_frac", "ratio"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORTED_ONLY + PER_LAYER}

# a tail percentile is reported only with at least this many samples above it
MIN_BEYOND = 10
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Summary:
    """Median and tail of a sample; ``tail_pct`` is None when no percentile
    on the ladder has ``MIN_BEYOND`` samples above it."""

    n: int
    p50: float
    tail_pct: float | None
    tail: float | None

    def describe(self) -> str:
        if self.n == 0:
            return "n=0"
        if self.tail_pct is None:
            return f"n={self.n}, p50 only"
        return f"n={self.n}, p{self.tail_pct:g}={self.tail:.6g}"


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def summarize(values) -> Summary:
    """Median plus the highest ladder percentile that has at least
    ``MIN_BEYOND`` samples beyond its rank."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return Summary(0, 0.0, None, None)
    p50 = statistics.median(vals)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return Summary(n, p50, pct, nearest_rank(vals, pct))
    return Summary(n, p50, None, None)
