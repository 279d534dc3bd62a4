"""One-sided numerical verification of the interpolation inequalities.

Two inequality families back the a priori estimates:

* first form: ``||f||_{p} <= C ||grad f||_{r}^a ||f||_{q}^{1-a} + C ||f||_{s}``
  with ``a = (1/q - 1/p) / (1/q + 1/n - 1/r)``;
* second form (no-flux version): ``||grad f||_{p} <= C (||lap f||_2^b +
  ||f||_{r}^b) ||f||_{q}^{1-b} + C ||f||_{s}`` with
  ``b = (1/q + 1/n - 1/p) / (1/q + 2/n - 1/2)``.

Verification is one-sided by design: a finite, refinement-stable supremum of
the left/right ratio over a seeded adversarial ensemble certifies a usable
constant; it cannot prove the inequality false.  Ensemble members are analytic
recipes drawn independently of the grid, so re-running with the same seed on a
finer grid evaluates the *same* functions: the constant estimate is
grid-convergent, not resolution-chasing.  Indices below 1 appear legitimately
(the density functionals use ``L^{2/q}`` with ``q > 2``).  The ratios
:func:`gn_ratio`, :func:`gn2_ratio` and :func:`poincare_ratio` take the
:class:`fluxks.grid.FieldNorms` of a field, which admits quasi-norm indices
in ``(0, 1)``, so every ratio of one field shares its norms.

:func:`estimate_constants` is the one estimator.  It computes every
requested supremum, first-form, second-form and Poincare, in one streamed
pass over a grid's ensemble: each member is sampled, one ``FieldNorms``
computes its norms once for all of its ratios, and it is dropped before the
next is drawn, so memory does not grow with the ensemble size.  Name every
index set of a grid in one call rather than making one pass per constant.

A supremum is a max, so the pass also splits across processes.  Its
``share=(j, k)`` keyword runs it over one interleaved share of the ensemble,
the members ``i`` with ``i % k == j``; the default ``(0, 1)`` is the whole
ensemble.  Each share replays the cheap scalar recipe draws of every member
but samples and takes norms only of its own, so its members are exactly
those of the whole ensemble.  :func:`merge_estimates` takes the max of each
entry over the shares, which is the serial result bit for bit.
``fluxks gn-test`` runs ``k`` shares of each grid on a pool of ``k``
processes, ``k`` being the CPUs it may run on, so its output is
byte-identical for any CPU count, and memory per process still does not grow
with the ensemble size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import FieldNorms, Grid, integrate

ENSEMBLE_VERSION = 1
EXPONENT_TOL = 1e-12


def _inv(x: float) -> float:
    if x == math.inf:
        return 0.0
    if x <= 0.0:
        raise ValueError(f"Lebesgue index must be positive or inf, got {x}")
    return 1.0 / x


def gn_exponent(p_hat: float, q_hat: float, r_hat: float, n: int) -> float:
    """Interpolation power ``a`` of the first inequality form.

    Raises:
        ValueError: zero denominator or ``a`` outside ``[0, 1]`` (beyond a
            1e-12 rounding margin, which is clamped).
    """
    num = _inv(q_hat) - _inv(p_hat)
    den = _inv(q_hat) + 1.0 / n - _inv(r_hat)
    if den == 0.0:
        raise ValueError("gn_exponent: degenerate denominator 1/q + 1/n - 1/r = 0")
    a = num / den
    if a < -EXPONENT_TOL or a > 1.0 + EXPONENT_TOL:
        raise ValueError(f"gn_exponent: a = {a} outside [0, 1]")
    return min(max(a, 0.0), 1.0)


def gn2_exponent(p_hat: float, q_hat: float, n: int) -> float:
    """Interpolation power ``b`` of the second (no-flux) inequality form.

    Raises:
        ValueError: ``b`` outside ``[1/2, 1]`` beyond rounding.
    """
    num = _inv(q_hat) + 1.0 / n - _inv(p_hat)
    den = _inv(q_hat) + 2.0 / n - 0.5
    if den == 0.0:
        raise ValueError("gn2_exponent: degenerate denominator")
    b = num / den
    if b < 0.5 - EXPONENT_TOL or b > 1.0 + EXPONENT_TOL:
        raise ValueError(f"gn2_exponent: b = {b} outside [1/2, 1]")
    return min(max(b, 0.5), 1.0)


@dataclass(frozen=True)
class _IndexTuple:
    # the Lebesgue indices of one inequality and the dimension
    p_hat: float
    q_hat: float
    r_hat: float
    s_hat: float
    n: int


@dataclass(frozen=True)
class GNExponents(_IndexTuple):
    """Index tuple for the first form; ``a`` is derived on construction."""

    def __post_init__(self) -> None:
        if self.r_hat != math.inf and self.r_hat < 1.0:
            raise ValueError(f"gradient index r must be >= 1, got {self.r_hat}")
        for name in ("p_hat", "q_hat", "s_hat"):
            val = getattr(self, name)
            if val != math.inf and val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        gn_exponent(self.p_hat, self.q_hat, self.r_hat, self.n)  # validates

    @property
    def a(self) -> float:
        return gn_exponent(self.p_hat, self.q_hat, self.r_hat, self.n)

    def to_dict(self) -> dict:
        return {**asdict(self), "a": self.a}


@dataclass(frozen=True)
class GN2Exponents(_IndexTuple):
    """Index tuple for the second form; ``b`` is derived on construction."""

    def __post_init__(self) -> None:
        if not (2.0 <= self.r_hat <= self.q_hat):
            raise ValueError(
                f"second-form indices need 2 <= r <= q, got r={self.r_hat}, q={self.q_hat}"
            )
        gn2_exponent(self.p_hat, self.q_hat, self.n)  # validates

    @property
    def b(self) -> float:
        return gn2_exponent(self.p_hat, self.q_hat, self.n)

    def to_dict(self) -> dict:
        return {**asdict(self), "b": self.b}


def gn_ratio(norms: FieldNorms, exps: GNExponents) -> float:
    """Left/right ratio of the first form with ``C = 1`` for the field of ``norms``.

    Raises:
        ValueError: identically zero field (zero right-hand side).
    """
    lhs = norms.lp(exps.p_hat)
    a = exps.a
    rhs = norms.grad_lp(exps.r_hat) ** a * norms.lp(exps.q_hat) ** (1.0 - a)
    rhs += norms.lp(exps.s_hat)
    if rhs == 0.0:
        raise ValueError("gn_ratio: zero right-hand side (f vanishes identically)")
    return lhs / rhs


def gn2_ratio(norms: FieldNorms, exps: GN2Exponents) -> float:
    """Left/right ratio of the second form with ``C = 1`` for the field of ``norms``."""
    lhs = norms.grad_lp(exps.p_hat)
    b = exps.b
    lap_l2 = math.sqrt(norms.lap_integral())
    rhs = (lap_l2**b + norms.lp(exps.r_hat) ** b) * norms.lp(exps.q_hat) ** (1.0 - b)
    rhs += norms.lp(exps.s_hat)
    if rhs == 0.0:
        raise ValueError("gn2_ratio: zero right-hand side (f vanishes identically)")
    return lhs / rhs


def poincare_ratio(norms: FieldNorms) -> float:
    """``||f - mean||_2 / ||grad f||_2``, the Poincare quotient of the field of ``norms``."""
    grid, values = norms.grid, norms.values
    mean = integrate(grid, values) / grid.measure
    num = math.sqrt(FieldNorms(grid, values - mean).integral(2.0))
    den = norms.grad_lp(2.0)
    if den == 0.0:
        raise ValueError("poincare_ratio: constant function has zero gradient")
    return num / den


# -- seeded adversarial ensemble -------------------------------------------


def _fourier_member(rng: np.random.Generator, n_modes: int = 8):
    terms = int(rng.integers(2, 7))
    ks = [tuple(int(k) for k in rng.integers(0, n_modes + 1, size=2)) for _ in range(terms)]
    coeffs = [float(rng.normal(0.0, 1.0 / (1.0 + kx * kx + ky * ky))) for kx, ky in ks]
    shift = float(rng.normal(0.0, 0.5))

    def fn(*coords):
        total = np.zeros_like(coords[0]) + shift
        for (kx, ky), c in zip(ks, coeffs):
            term = np.cos(kx * np.pi * coords[0])
            if len(coords) > 1:
                term = term * np.cos(ky * np.pi * coords[1])
            total = total + c * term
        return total

    return fn


def _polynomial_member(rng: np.random.Generator):
    deg = int(rng.integers(1, 5))
    coeffs = rng.normal(0.0, 1.0, size=deg + 1)

    def fn(*coords):
        x = coords[0]
        if len(coords) > 1:
            x = 0.5 * (coords[0] + coords[1])
        return sum(float(c) * x**k for k, c in enumerate(coeffs))

    return fn


def _near_constant_member(rng: np.random.Generator):
    base = float(rng.uniform(0.5, 2.0))
    wiggle = 1e-6 * float(rng.uniform(0.5, 2.0))

    def fn(*coords):
        return base + wiggle * np.cos(np.pi * coords[0])

    return fn


def _spike_member(rng: np.random.Generator):
    center = rng.uniform(0.15, 0.85, size=2)
    width = float(rng.uniform(0.02, 0.08))

    def fn(*coords):
        d2 = (coords[0] - center[0]) ** 2
        if len(coords) > 1:
            d2 = d2 + (coords[1] - center[1]) ** 2
        return np.exp(-d2 / (2.0 * width * width))

    return fn


_FAMILIES = (_fourier_member, _polynomial_member, _near_constant_member, _spike_member)


def _members(grid: Grid, size: int, seed: int, share: tuple[int, int] = (0, 1)):
    # the members of ensemble(), one at a time; with share (j, k) only the
    # members i with i % k == j, the recipes of the others drawn and dropped so
    # that every member comes from the same draws as in the whole ensemble
    if size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {size}")
    index, count = share
    rng = np.random.default_rng(seed)
    # a sparse mesh: the recipes broadcast it to the field shape, and each
    # axis factor is evaluated once per axis instead of once per cell
    axes = [grid.axis_centers(a) / e for a, e in enumerate(grid.extents)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    for i in range(size):
        fn = _FAMILIES[i % len(_FAMILIES)](rng)
        if i % count != index:
            continue
        values = np.empty(grid.shape)
        values[...] = fn(*mesh)
        if not np.any(values):
            values += 1.0
        yield values


def ensemble(grid: Grid, size: int, seed: int) -> list[np.ndarray]:
    """Seeded test functions: analytic recipes sampled on the grid, as arrays.

    The recipes (versioned by ``ENSEMBLE_VERSION``) are drawn before touching
    the grid, so the same seed on a refined grid yields the same functions.
    Coordinates are rescaled to the unit box for sampling.
    """
    return list(_members(grid, size, seed))


@dataclass(frozen=True)
class ConstantEstimates:
    """Ensemble suprema of one grid, in the order the index sets were given."""

    gn: tuple[float, ...]
    gn2: tuple[float, ...]
    poincare: float


def estimate_constants(
    grid: Grid,
    gn_sets: tuple[GNExponents, ...] = (),
    gn2_sets: tuple[GN2Exponents, ...] = (),
    size: int = 200,
    seed: int = 0,
    share: tuple[int, int] = (0, 1),
) -> ConstantEstimates:
    """Suprema of every ratio over the seeded ensemble, in one pass.

    ``gn`` and ``gn2`` hold the supremum of :func:`gn_ratio` for each of
    ``gn_sets`` and of :func:`gn2_ratio` for each of ``gn2_sets``.
    ``poincare`` is the supremum of :func:`poincare_ratio` over the
    non-constant members.  Every supremum starts from 0.  Each member is
    sampled once and dropped after its ratios are folded in.  With
    ``share=(j, k)`` only the members ``i`` with ``i % k == j`` are taken;
    when there are none (``j >= size``) every entry is 0.

    Raises:
        ValueError: ``size < 1``, or a member with a zero right-hand side.
    """
    gn, gn2, poincare = [0.0] * len(gn_sets), [0.0] * len(gn2_sets), 0.0
    for values in _members(grid, size, seed, share):
        norms = FieldNorms(grid, values)
        gn = [max(b, gn_ratio(norms, exps)) for b, exps in zip(gn, gn_sets)]
        gn2 = [max(b, gn2_ratio(norms, exps)) for b, exps in zip(gn2, gn2_sets)]
        if norms.grad_lp(2.0) != 0.0:
            poincare = max(poincare, poincare_ratio(norms))
    return ConstantEstimates(gn=tuple(gn), gn2=tuple(gn2), poincare=poincare)


def merge_estimates(parts: list[ConstantEstimates]) -> ConstantEstimates:
    """The whole ensemble's estimates from those of its shares.

    Each entry is the max over the shares.  Every ratio is finite, and the max
    of finite floats does not depend on how they are grouped, so the result is
    bit for bit that of the serial pass.
    """
    return ConstantEstimates(
        gn=tuple(map(max, zip(*(p.gn for p in parts)))),
        gn2=tuple(map(max, zip(*(p.gn2 for p in parts)))),
        poincare=max(p.poincare for p in parts),
    )


# -- exponent sets used by the a priori estimates ---------------------------


def density_step_set(n: int, p: float, q1: float) -> GNExponents:
    """Index tuple of the density-step interpolation (first form)."""
    if not (p < 2.0):
        raise ValueError(f"density step needs p < 2, got {p}")
    return GNExponents(
        p_hat=2.0 / (2.0 - p), q_hat=2.0 / q1, r_hat=2.0, s_hat=2.0 / q1, n=n
    )


def signal_l2_step_set(n: int, theta: float, q1: float) -> GNExponents:
    """Index tuple of the signal-energy production coupling (first form).

    The auxiliary index ``r`` is picked deterministically in its admissible
    window (midpoint, window capped at width 8).
    """
    r_lo = max(1.0, 2.0 * n / (n + 2.0))
    caps = [r_lo + 8.0]
    young_gap = 2.0 * theta + 1.0 - 2.0 / n - q1
    if young_gap > 0.0:
        caps.append(2.0 / young_gap)
    if n >= 3:
        caps.append(q1 / ((1.0 - 2.0 / n) * theta))
    r_hi = min(caps)
    if r_hi <= r_lo:
        raise ValueError(
            f"signal-l2 step has empty r window for n={n}, theta={theta}, q1={q1}"
        )
    r_aux = 0.5 * (r_lo + r_hi)
    return GNExponents(
        p_hat=2.0 * theta * r_aux / q1, q_hat=2.0 / q1, r_hat=2.0, s_hat=2.0 / q1, n=n
    )


def signal_grad_step_set(n: int, theta: float, q2: float) -> GNExponents:
    """Index tuple of the gradient-energy production coupling (first form)."""
    return GNExponents(
        p_hat=4.0 * theta / q2, q_hat=2.0 / q2, r_hat=2.0, s_hat=2.0 / q2, n=n
    )
