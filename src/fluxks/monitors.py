"""Run monitors: conservation, positivity, dissipation inequalities, regimes.

The dissipation monitor turns the differential inequality
``dF/dt + c*F <= C`` into a machine check on the recorded series: for each
``c`` in a short scan over a decade around 1 it fits the smallest ``C >= 0``
covering at least 99% of the interior difference quotients, then requires the
series to stay below ``max(F(0), C/c)`` with 5% headroom.  On an equilibrium
series this returns ``C/c`` equal to ``F(0)`` exactly; on an exponentially
decaying series it passes with ``C = 0``.

``classify`` reduces a run to one of ``Bounded``, ``Growing``,
``BlowUpSuspected``, ``Inconclusive`` from the terminal status and the tail
of the ``||u||_inf`` series; ``eps_refinement`` replays one configuration
over a decreasing regularization ladder and checks that successive solutions
contract in ``L^2``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .functionals import FunctionalRecord, Sample, sample
from .grid import FieldNorms
from .model import InitialData, ModelParams
from .stepper import RunStatus, SimResult, SimState, StepControls, simulate

# scan for the damping coefficient: one decade centered on 1
DISSIPATION_C_SCAN = tuple(np.logspace(-0.5, 0.5, 11))
DISSIPATION_COVERAGE = 0.99
DISSIPATION_HEADROOM = 1.05
MIN_DISSIPATION_RECORDS = 10

# classify: tail trend counted flat below this fraction of the tail median,
# and a run must at least double to count as growing
TREND_FLAT_RTOL = 0.01
GROWTH_DOUBLING = 2.0
SUP_OVER_MEDIAN_MAX = 10.0

EPS_REFINEMENT_SLACK = 1.10
# regularization ladders are compared after one signal relaxation unit: the
# limit being probed is a finite-interval property of the approximation
# family, and on long horizons the distance measures which attractor each
# regularization selects instead
EPS_COMPARISON_HORIZON = 1.0

CLASSIFICATIONS = ("Bounded", "Growing", "BlowUpSuspected", "Inconclusive")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one monitor; ``passed`` implies ``worst_violation`` is
    within the monitor's tolerance."""

    name: str
    passed: bool
    worst_violation: float
    location: float | None
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = "" if self.location is None else f" at t={self.location:.6g}"
        return f"{self.name}: {status} (worst {self.worst_violation:.3e}{where})"


@dataclass(frozen=True)
class RegimeVerdict:
    """Qualitative classification of one run."""

    classification: str
    sup_u_linf: float
    growth_rate_estimate: float
    reason: str
    stats: dict

    def __post_init__(self) -> None:
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def check_mass(records: Sequence[FunctionalRecord], rtol: float = 1e-10) -> Verdict:
    """Relative mass drift against the first record."""
    if not records:
        raise ValueError("check_mass needs at least one record")
    m0 = records[0].mass
    if m0 <= 0.0:
        raise ValueError("reference mass must be positive")
    devs = [abs(r.mass - m0) / m0 for r in records]
    worst = int(np.argmax(devs))
    return Verdict(
        name="mass-conservation",
        passed=devs[worst] <= rtol,
        worst_violation=devs[worst],
        location=records[worst].t,
        details={"reference_mass": m0, "rtol": rtol},
    )


def check_positivity(states: Sequence[SimState]) -> Verdict:
    """Cell-wise nonnegativity of both fields over the sampled states."""
    if not states:
        raise ValueError("check_positivity needs at least one state")
    worst = 0.0
    where = None
    for st in states:
        m = min(float(st.u.min()), float(st.v.min()))
        if m < worst:
            worst = m
            where = st.t
    return Verdict(
        name="positivity",
        passed=worst >= 0.0,
        worst_violation=-worst,
        location=where,
        details={},
    )


def check_dissipation_inequality(
    records: Sequence[FunctionalRecord],
    which: str = "F2",
    window: tuple[float, float] | None = None,
) -> Verdict:
    """Fit ``dF/dt + c*F <= C`` on the recorded series and check boundedness.

    Args:
        records: functional series (>= ``MIN_DISSIPATION_RECORDS`` entries).
        which: ``"F1"`` or ``"F2"``.
        window: optional time window restricting the fit.

    Raises:
        ValueError: unknown functional, or series too short.
    """
    if which not in ("F1", "F2"):
        raise ValueError(f"which must be 'F1' or 'F2', got {which!r}")
    recs = list(records)
    if window is not None:
        recs = [r for r in recs if window[0] <= r.t <= window[1]]
    if len(recs) < MIN_DISSIPATION_RECORDS:
        raise ValueError(
            f"dissipation check needs >= {MIN_DISSIPATION_RECORDS} records, got {len(recs)}"
        )
    t = np.array([r.t for r in recs])
    f = np.array([getattr(r, which) for r in recs])
    df = (f[2:] - f[:-2]) / (t[2:] - t[:-2])
    f_in = f[1:-1]

    best = None
    for c in DISSIPATION_C_SCAN:
        vals = df + c * f_in
        c_big = float(np.quantile(vals, DISSIPATION_COVERAGE, method="higher"))
        big_c = max(0.0, c_big)
        bound = max(f[0], big_c / c) * DISSIPATION_HEADROOM
        excess = float(np.max(f)) - bound
        ok = math.isfinite(big_c) and excess <= 0.0
        cand = (not ok, bound, c, big_c, excess)
        if best is None or cand < best:
            best = cand
    failed, bound, c, big_c, excess = best
    t_worst = float(t[int(np.argmax(f))])
    coverage = float(np.mean(df + c * f_in <= big_c))
    return Verdict(
        name=f"dissipation-{which}",
        passed=not failed,
        worst_violation=excess,
        location=t_worst,
        details={
            "c": float(c),
            "C": float(big_c),
            "bound": float(bound),
            "C_over_c": float(big_c / c),
            "F0": float(f[0]),
            "coverage": coverage,
        },
    )


def classify(records: Sequence[FunctionalRecord | Sample], status: RunStatus) -> RegimeVerdict:
    """Classify a run from its terminal status and the tail of ``||u||_inf``.

    The verdict is invariant under downsampling the records by small factors:
    all statistics are scale-free trend measures, not step counts.
    """
    sup_all = float(max(r.u_linf for r in records)) if records else 0.0
    if status == RunStatus.BLOWUP_SUSPECTED:
        return RegimeVerdict("BlowUpSuspected", sup_all, 0.0, "terminal status", {})
    if status == RunStatus.NUMERICAL_FAILURE:
        return RegimeVerdict(
            "Inconclusive", sup_all, 0.0, "numerical failure before t_end", {}
        )
    series = np.array([r.u_linf for r in records])
    times = np.array([r.t for r in records])
    if len(series) < 8:
        return RegimeVerdict(
            "Inconclusive",
            sup_all,
            0.0,
            "too few records",
            {"n_records": len(series)},
        )
    half = len(series) // 2
    seg, seg_t = series[half:], times[half:]
    median = float(np.median(seg))
    sup = float(np.max(seg))
    slope = float(np.polyfit(seg_t, seg, 1)[0]) if seg_t[-1] > seg_t[0] else 0.0
    trend_change = slope * (seg_t[-1] - seg_t[0])
    head = float(np.mean(series[: min(3, len(series))]))
    tail = float(np.mean(series[-min(3, len(series)) :]))
    stats = {
        "tail_median": median,
        "tail_sup": sup,
        "tail_trend_change": trend_change,
        "start_mean": head,
        "end_mean": tail,
    }
    flat = trend_change <= TREND_FLAT_RTOL * max(median, 1e-300)
    if flat and sup <= SUP_OVER_MEDIAN_MAX * median:
        return RegimeVerdict(
            "Bounded",
            sup_all,
            slope,
            "flat-or-decreasing tail with controlled sup",
            stats,
        )
    if slope > 0.0 and tail >= GROWTH_DOUBLING * head:
        return RegimeVerdict(
            "Growing",
            sup_all,
            slope,
            "positive trend with at least doubling",
            stats,
        )
    return RegimeVerdict("Inconclusive", sup_all, slope, "no clear trend", stats)


def eps_refinement(
    initial: InitialData,
    params: ModelParams,
    controls: StepControls,
    eps_list: Sequence[float],
) -> Verdict:
    """Replay one configuration over a strictly decreasing regularization ladder.

    All runs start from the *same* raw initial data (no per-eps mollification),
    so the comparison isolates the flux-regularization limit.  Successive
    ``L^2`` distances at the fixed comparison time
    ``min(t_end, EPS_COMPARISON_HORIZON)`` must be nonincreasing within a 10%
    slack.  Each run records :func:`~fluxks.functionals.sample`, which forms
    no F1: the comparison reads only its status and final ``u``.

    Raises:
        ValueError: fewer than 3 entries or not strictly decreasing.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 3:
        raise ValueError(f"eps_refinement needs >= 3 eps values, got {len(eps)}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"eps values must be strictly decreasing, got {eps}")
    if any(not (0.0 <= e < 1.0) for e in eps):
        raise ValueError("eps values must lie in [0, 1)")

    t_compare = min(controls.t_end, EPS_COMPARISON_HORIZON)
    cmp_controls = replace(controls, t_end=t_compare)
    finals: list[np.ndarray] = []
    statuses = []
    for e in eps:
        res: SimResult = simulate(
            initial,
            replace(params, eps=e),
            cmp_controls,
            record=sample,
            mollify=False,
            keep_states="ends",
        )
        statuses.append(res.status.value)
        finals.append(res.final_state.u)
    dists = [
        math.sqrt(FieldNorms(initial.grid, a - b).integral(2.0))
        for a, b in zip(finals, finals[1:])
    ]
    ok = all(s == RunStatus.COMPLETED.value for s in statuses)
    worst = 0.0
    for d_prev, d_next in zip(dists, dists[1:]):
        ok_pair = d_next <= EPS_REFINEMENT_SLACK * d_prev
        if not ok_pair:
            ok = False
        worst = max(worst, d_next - EPS_REFINEMENT_SLACK * d_prev)
    return Verdict(
        name="eps-refinement",
        passed=ok,
        worst_violation=worst,
        location=t_compare,
        details={
            "eps": eps,
            "distances": dists,
            "statuses": statuses,
            "t_compare": t_compare,
        },
    )
