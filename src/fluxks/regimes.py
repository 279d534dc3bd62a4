"""Exponent algebra: criticality, integrability bookkeeping, feasibility audits.

For ambient dimension ``n`` and production exponent ``theta`` the flux
exponent ``p`` is subcritical when ``p < p_c = n*theta/(n*theta - 1)``.  In
the subcritical regime boundedness is certified through one of two routes:

* the entropy route: an ``L^q`` window for the density estimate combined
  with signal-energy couplings, quantified by the derived exponents
  ``a_star`` and ``b_star`` and the closure condition
  ``2 * a_star * b_star * (p - 1) < 2``;
* the one-dimensional semigroup route (only ``n = 1``), quantified by
  ``(theta - 1/r) * (p - 1) + (1 - 1/q) < 1``.

Both constraint systems have closed-form infima, so :func:`audit` decides
each route by a predicate and places its witnesses at stated points.  For
``theta > 1`` a route exists exactly below ``p_c``, and the binding
constraint at ``p_c`` is:

* semigroup: the value's infimum ``(theta - 1)*(p - 1)`` (as q, r -> 1+)
  reaches 1 at ``p = theta/(theta - 1)``, which is ``p_c`` for ``n = 1``;
* entropy, ``n >= 2``: the density window's top ``2(2 - p)/(n(p - 1))``
  meets the signal-``L^2`` floor ``2*theta - 4/n`` at ``p_c``.  The closure
  ``condition_2ab`` rises in the gradient witness's ``q`` and is monotone
  in its ``r``.  Where it falls in ``r`` (``p - 1 >= 2/(n + 2)``), its
  infimum at the floor of ``q`` reaches 2 at ``p_c`` as well; where it
  rises, the gradient system alone stays satisfiable above ``p_c``.

The formula helpers (:func:`a_star`, :func:`b_star`, :func:`condition_2ab`,
:func:`condition_1d_value`) check the witnesses, and hand arithmetic at any
point, admissible or not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

CRITICAL_BOUNDARY_RTOL = 1e-12

# the gradient witness's q: the largest margin above its floor that keeps the
# closure's infimum below 2, else half the slack
_Q_MARGINS = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class RegimeSpec:
    """A point in parameter space to audit: ``n >= 1``, ``theta > 0``, ``p > 1``."""

    n: int
    theta: float
    p: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError(f"theta > 0 required, got {self.theta}")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"p > 1 required, got {self.p}")


def critical_exponent(n: int, theta: float) -> float:
    """Critical flux exponent ``n*theta / (n*theta - 1)``.

    Raises:
        ValueError: ``n * theta <= 1`` (no critical exponent).
    """
    nt = n * theta
    if nt <= 1.0:
        raise ValueError(f"critical exponent needs n*theta > 1, got n*theta = {nt}")
    return nt / (nt - 1.0)


def relative_p(n: int, theta: float, fraction: float) -> float:
    """Flux exponent at an affine fraction of the admissible interval.

    ``fraction = f`` maps to ``p = 1 + f * (p_c - 1)``, so every
    ``f in (0, 1)`` lands strictly inside ``(1, p_c)``.

    Raises:
        ValueError: ``fraction <= 0`` (p would leave the model range p > 1).
    """
    if fraction <= 0.0:
        raise ValueError(f"relative p fraction must be positive, got {fraction}")
    return 1.0 + fraction * (critical_exponent(n, theta) - 1.0)


@dataclass(frozen=True)
class SRule:
    """Integrability order for the signal-gradient norm in the extensibility test.

    ``infinite`` selects the max-norm branch (``n = 1`` with large ``p``);
    otherwise any finite ``s > min_exclusive`` with ``s >= 2`` is admissible
    and ``default`` is the canonical choice.
    """

    infinite: bool
    min_exclusive: float | None
    default: float | None

    @property
    def value(self) -> float:
        return math.inf if self.infinite else float(self.default)

    def to_dict(self) -> dict:
        return asdict(self)


def _p_limit_1d(theta: float) -> float:
    # min(2, (2*theta+1)/(2*theta-1)): the second term falls from +inf at
    # theta = 1/2, so at and below 1/2 the limit is 2
    if theta <= 0.5:
        return 2.0
    return min(2.0, (2.0 * theta + 1.0) / (2.0 * theta - 1.0))


def s_rule(n: int, p: float, theta: float) -> SRule:
    """Select the gradient-integrability order for the given regime.

    ``s = inf`` iff ``n = 1`` and ``p >= min(2, (2*theta+1)/(2*theta-1))``
    (``p >= 2`` for ``theta <= 1/2``, the limit as ``theta`` falls to 1/2);
    otherwise ``s`` is finite with ``s > max(n, (n+2)*(p-1))`` and ``s >= 2``
    (default: that bound, floored at 2, plus one).
    """
    if n == 1 and p >= _p_limit_1d(theta):
        return SRule(infinite=True, min_exclusive=None, default=None)
    bound = max(float(n), (n + 2.0) * (p - 1.0))
    return SRule(infinite=False, min_exclusive=bound, default=max(bound, 2.0) + 1.0)


@dataclass(frozen=True)
class QRanges:
    """Admissible ``q`` windows for the entropy functionals.

    ``density_window``: open interval (1 excluded) where the density ``L^q``
    estimate closes; ``None`` when ``p >= min(2, 1 + 2/n)``.
    ``signal_l2_min``: lower bound forced by the signal ``L^2`` coupling.
    ``signal_grad_min``: lower bound forced by the signal-gradient coupling.
    """

    density_window: tuple[float, float] | None
    signal_l2_min: float
    signal_grad_min: float

    def to_dict(self) -> dict:
        return {**asdict(self), "density_window_excludes": 1.0}


def q_ranges(spec: RegimeSpec) -> QRanges:
    """Compute the three ``q`` constraints at a parameter point."""
    n, theta, p = spec.n, spec.theta, spec.p
    if p < min(2.0, 1.0 + 2.0 / n):
        lo = max(0.0, 1.0 - 2.0 / n)
        hi = 2.0 * (2.0 - p) / (n * (p - 1.0))
        window: tuple[float, float] | None = (lo, hi)
    else:
        window = None
    signal_l2 = max(0.0, 2.0 * theta - 4.0 / n, 2.0 * theta - 1.0 - 2.0 / n)
    signal_grad = 2.0 * theta - 2.0 / n
    return QRanges(window, signal_l2, signal_grad)


# -- closed-form exponent helpers (hand-checkable at any point)


def a_star(n: int, p: float, q: float, r: float) -> float:
    """Interpolation power ``r*(n*q + 2 - n) / (2*(r - n*(p-1)))``.

    Raises:
        ValueError: ``r <= n*(p-1)`` (degenerate denominator).
    """
    den = r - n * (p - 1.0)
    if den <= 0.0:
        raise ValueError(f"a_star requires r > n*(p-1), got r={r}, n*(p-1)={n * (p - 1.0)}")
    return r * (n * q + 2.0 - n) / (2.0 * den)


def b_star(n: int, r: float) -> float:
    """Interpolation power ``(1/2 + 1/n - 1/r) / (2/n) = ((n+2)*r - 2n) / (4r)``
    (the second form, exactly 1/2 at ``r = 2``)."""
    if r <= 0.0:
        raise ValueError(f"b_star requires r > 0, got {r}")
    return ((n + 2.0) * r - 2.0 * n) / (4.0 * r)


def condition_2ab(n: int, p: float, q: float, r: float) -> float:
    """Closure quantity ``2 * a_star * b_star * (p - 1)``; needs to be < 2."""
    return 2.0 * a_star(n, p, q, r) * b_star(n, r) * (p - 1.0)


def condition_1d_value(theta: float, p: float, q: float, r: float) -> float:
    """Semigroup-route quantity ``(theta - 1/r)*(p - 1) + (1 - 1/q)``; needs < 1."""
    if q <= 1.0 or r <= 1.0:
        raise ValueError(f"semigroup condition needs q > 1 and r > 1, got q={q}, r={r}")
    return (theta - 1.0 / r) * (p - 1.0) + (1.0 - 1.0 / q)


@dataclass(frozen=True)
class ExponentAudit:
    """Feasibility report for one parameter point.

    ``route`` is ``"entropy"``, ``"semigroup-1d"``, or ``None``; the starred
    quantities are populated only by the entropy route, ``condition_1d`` only
    by the semigroup route (at ``n = 1``; a supercritical point reports the
    value's infimum).  ``chosen_q`` / ``chosen_r`` are the gradient
    functional witnesses, ``chosen_q_f1`` the density-functional witness.
    """

    spec: RegimeSpec
    p_critical: float
    subcritical: bool
    critical_boundary: bool
    s_rule: SRule
    q_ranges: QRanges
    route: str | None
    feasible: bool
    chosen_q: float | None = None
    chosen_r: float | None = None
    chosen_q_f1: float | None = None
    a_star: float | None = None
    b_star: float | None = None
    condition_2ab: float | None = None
    condition_1d: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        # the spec is flattened to n, theta, p; nested results serialize
        # through their own to_dict
        out = asdict(self.spec)
        for f in fields(self):
            if f.name != "spec":
                val = getattr(self, f.name)
                out[f.name] = val.to_dict() if hasattr(val, "to_dict") else val
        return out


def _density_witness(ranges: QRanges) -> float | None:
    # q for the density functional: inside the window, above the signal-L2
    # floor, never equal to 1; prefer the branch above 1.
    if ranges.density_window is None:
        return None
    lo = max(ranges.density_window[0], ranges.signal_l2_min)
    hi = ranges.density_window[1]
    if hi > max(lo, 1.0):
        return 0.5 * (max(lo, 1.0) + hi)
    if min(hi, 1.0) > lo:
        return 0.5 * (lo + min(hi, 1.0))
    return None


def _gradient_witness(n: int, p: float, ranges: QRanges) -> tuple[float, float] | None:
    # joint (q, r) witness for the gradient functional, below p_c with
    # theta > 1.  The r window is 2 <= r (b_star >= 1/2), r > max(2, n)(p - 1)
    # (below p_c that is under 2) and r < 2n/(n - 2) for n >= 3 (b_star < 1);
    # a_star > 1 there for every q > 1.  The closure condition_2ab is
    # g(q)*f(r), g = (n*q + 2 - n)(p - 1)/4 rising in q and
    # f = (n + 2) + k/(r - n(p - 1)), monotone in r by the sign of k.
    pm = p - 1.0
    q_min = max(1.0, ranges.signal_grad_min)
    c = n * pm
    k = (n + 2.0) * c - 2.0 * n
    r_hi = 2.0 * n / (n - 2.0) if n >= 3 else math.inf
    # f rises (k <= 0): r = 2 attains the infimum; f falls: the infimum is
    # the limit at the open end r_hi (n + 2 for r_hi = inf), never attained
    f_inf = 4.0 / (2.0 - c) if k <= 0.0 else n + 2.0 + k / (r_hi - c)
    q_star = (8.0 / (pm * f_inf) + n - 2.0) / n  # g(q_star) * f_inf = 2
    if q_star <= q_min:
        return None
    dq = next((m for m in _Q_MARGINS if q_min + m < q_star), 0.5 * (q_star - q_min))
    q = q_min + dq
    if k <= 0.0:
        return (q, 2.0)
    # the r where the closure sits halfway between its infimum and 2
    g = (n * q + 2.0 - n) * pm / 4.0
    f_mid = 0.5 * (f_inf + 2.0 / g)
    return (q, max(2.0, c + k / (f_mid - n - 2.0)))


def _semigroup_witness(theta: float, p: float) -> tuple[float, float] | None:
    # (q, r) below p_c: a quarter of the slack 1 - (theta - 1)(p - 1) goes to
    # r's term (1 - 1/r)(p - 1) and a quarter to q's term 1 - 1/q, so the
    # value sits at 1 - slack/2.  On this route p - 1 exceeds a quarter of the
    # slack, so r is finite; None where r's share rounds r to 1 (a slack under
    # about 4e-16 * (p - 1), only for theta within 1e-4 of 1).
    quarter = 0.25 * (1.0 - (theta - 1.0) * (p - 1.0))
    r = 1.0 / (1.0 - quarter / (p - 1.0))
    return (1.0 / (1.0 - quarter), r) if r > 1.0 else None


def audit(spec: RegimeSpec) -> ExponentAudit:
    """Deterministic feasibility audit of one parameter point.

    Returns an :class:`ExponentAudit`; the supercritical and infeasible
    outcomes are reported, not thrown.

    Raises:
        ValueError: ``n * theta <= 1`` (no critical exponent, see
            :func:`critical_exponent`).
    """
    n, theta, p = spec.n, spec.theta, spec.p
    pc = critical_exponent(n, theta)
    boundary = abs(p - pc) <= CRITICAL_BOUNDARY_RTOL * max(1.0, pc)
    subcritical = (p < pc) and not boundary
    rule = s_rule(n, p, theta)
    ranges = q_ranges(spec)
    notes: list[str] = []
    if boundary:
        notes.append("p sits on the critical boundary: flagged supercritical by convention")

    route: str | None = None
    q1 = None
    q = r = cond1d = None
    stars = {}

    if theta <= 1.0:
        notes.append("theta <= 1: outside the superlinear production regime, no route attempted")
    else:
        if not subcritical:
            notes.append("supercritical: no boundedness route applies")
        elif n != 1 or p < _p_limit_1d(theta):
            q1 = _density_witness(ranges)
            grad_witness = _gradient_witness(n, p, ranges)
            if q1 is not None and grad_witness is not None:
                route = "entropy"
                q, r = grad_witness
                # the starred quantities belong to the entropy route alone
                stars = {
                    "a_star": a_star(n, p, q, r),
                    "b_star": b_star(n, r),
                    "condition_2ab": condition_2ab(n, p, q, r),
                }
        if route is None and n == 1:
            # the semigroup value at the witnesses of a subcritical point; a
            # supercritical one reports its infimum (theta - 1)(p - 1)
            witness = _semigroup_witness(theta, p) if subcritical else None
            if witness is not None:
                route = "semigroup-1d"
                q, r = witness
                cond1d = condition_1d_value(theta, p, q, r)
            elif subcritical:
                notes.append("semigroup slack below double precision: no float r above 1")
            else:
                cond1d = (theta - 1.0) * (p - 1.0)

    return ExponentAudit(
        spec=spec,
        p_critical=pc,
        subcritical=subcritical,
        critical_boundary=boundary,
        s_rule=rule,
        q_ranges=ranges,
        route=route,
        feasible=route is not None,
        chosen_q=q,
        chosen_r=r,
        chosen_q_f1=q1,
        condition_1d=cond1d,
        notes=tuple(notes),
        **stars,
    )
