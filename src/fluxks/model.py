"""Model data: parameters, initial states, chemotactic flux, production, mollifier.

The simulated system couples a cell density ``u`` and a signal ``v``::

    u_t = lap(u) - chi * div( u * (|grad v|^2 + eps)^((p-2)/2) * grad v )
    v_t = lap(v) - v + u^theta

with no-flux boundaries.  ``eps in (0, 1)`` regularizes the flux factor;
``eps = 0`` evaluates the unregularized limit (well defined for ``p >= 1``,
where ``|grad v|^(p-2) grad v -> 0`` as the gradient vanishes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .grid import (
    Grid,
    GridFunction,
    _neg_laplacian_diagonal,
    _slice_axis,
    integrate,
    laplacian_values,
)
from .regimes import RegimeSpec

# Mollifier: fixed number of conservative averaging passes; the kernel weight
# is scaled by eps (see mollify_initial_data).
MOLLIFIER_PASSES = 4
MOLLIFIER_KERNEL_SCALE = 0.5


@dataclass(frozen=True)
class ModelParams:
    """Model constants.

    ``chi >= 0`` (``chi = 0`` is a diagnostic heat/reaction mode; the
    chemotaxis regime has ``chi > 0``), ``p > 1`` flux-limitation exponent,
    ``theta > 0`` production exponent, ``eps in [0, 1)`` regularization,
    ``n >= 1`` ambient dimension (must match the grid).
    """

    chi: float
    p: float
    theta: float
    eps: float
    n: int

    def __post_init__(self) -> None:
        if not (self.chi >= 0.0 and math.isfinite(self.chi)):
            raise ValueError(f"chi must be finite and >= 0, got {self.chi}")
        RegimeSpec(n=self.n, theta=self.theta, p=self.p)  # checks n, theta and p
        if not (0.0 <= self.eps < 1.0):
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


@dataclass(frozen=True)
class InitialData:
    """Initial pair; ``u0 >= 0`` with positive mass, ``v0 >= 0``."""

    u0: GridFunction
    v0: GridFunction

    def __post_init__(self) -> None:
        if self.u0.grid != self.v0.grid:
            raise ValueError("u0 and v0 must share one grid")
        if np.any(self.u0.values < 0.0):
            raise ValueError("u0 must be nonnegative")
        if np.any(self.v0.values < 0.0):
            raise ValueError("v0 must be nonnegative")
        if integrate(self.u0) <= 0.0:
            raise ValueError("u0 must carry positive mass")


def face_gradient_magnitude_sq(grid: Grid, grad_faces) -> list[NDArray[np.float64]]:
    """Squared gradient magnitude at each face of each axis.

    Combines the face-normal component with the mean of the four surrounding
    transverse face values (2d); in one stored axis the normal component is
    the whole gradient.
    """
    mags = []
    for a in range(grid.n_axes):
        g = grad_faces[a]
        m = g * g
        if grid.n_axes == 2:
            b = 1 - a
            other = grad_faces[b]
            # mean over the transverse axis pair, then over the two cell columns
            # adjacent to this face; boundary faces keep only the normal part
            # (they are zeroed downstream anyway, and m + 0 * 0 is m).
            tang_cell = (
                other[_slice_axis(2, b, slice(None, -1))] + other[_slice_axis(2, b, slice(1, None))]
            )
            tang_cell *= 0.5  # cell-centered transverse component
            t = (
                tang_cell[_slice_axis(2, a, slice(None, -1))]
                + tang_cell[_slice_axis(2, a, slice(1, None))]
            )
            t *= 0.5
            t *= t
            m[_slice_axis(2, a, slice(1, -1))] += t
        mags.append(m)
    return mags


def flux_coefficients(grid: Grid, grad_faces, params: ModelParams) -> list[NDArray[np.float64]]:
    """Face flux coefficient ``chi * (|grad v|^2 + eps)^((p-2)/2) * grad v`` per axis.

    ``grad_faces`` are the face gradients of the signal (as from
    :func:`fluxks.grid.gradient_faces`); boundary faces come out zero with them.
    Where ``|grad v|^2 + eps`` is 0 the factor is 0.
    """
    expo = 0.5 * (params.p - 2.0)
    coeffs = []
    for g, m in zip(grad_faces, face_gradient_magnitude_sq(grid, grad_faces)):
        m += params.eps
        coeff = np.power(m, expo, out=m, where=m > 0.0)
        coeff *= params.chi
        coeff *= g
        coeffs.append(coeff)
    return coeffs


def production(u: GridFunction, params: ModelParams) -> GridFunction:
    """Cell-wise signal production ``u^theta`` (``0^theta = 0`` for theta > 0)."""
    return GridFunction(u.grid, u.values**params.theta)


def _mollify_values(grid: Grid, values: NDArray[np.float64], eps: float) -> NDArray[np.float64]:
    # Conservative averaging: each pass is an explicit diffusion step
    #   f <- f + (gamma / max diag(-L)) * lap(f),  gamma = eps * scale < 1,
    # which is doubly stochastic w.r.t. the cell weights: mass is exact,
    # nonnegativity and every L^q norm are nonexpansive, constants are fixed.
    # On a uniform 1d grid the step is gamma * h^2 / 2, i.e. the kernel
    # [gamma/2, 1 - gamma, gamma/2].
    gamma = eps * MOLLIFIER_KERNEL_SCALE
    step = gamma / float(_neg_laplacian_diagonal(grid).max())
    out = values
    for _ in range(MOLLIFIER_PASSES):
        out = out + step * laplacian_values(grid, out)
    return out


def mollify_initial_data(raw: InitialData, eps: float, include_v: bool = True) -> InitialData:
    """Smooth raw initial data; the smoothing strength vanishes with ``eps``.

    On a single Fourier mode the per-pass damping factor is analytic:
    ``1 - eps * MOLLIFIER_KERNEL_SCALE * (1 - cos(k pi h))`` in 1d.  Mass is
    preserved exactly and no ``L^q`` norm grows.  ``include_v=False`` leaves
    the signal untouched (used when the regularity bookkeeping runs through
    max norms and the raw signal is already admissible).

    Raises:
        ValueError: ``eps`` outside ``[0, 1)``.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"mollifier eps must lie in [0, 1), got {eps}")
    if eps == 0.0:
        return raw
    grid = raw.u0.grid
    u = _mollify_values(grid, raw.u0.values, eps)
    # roundoff guard: averaging of nonnegative data is nonnegative
    u = np.maximum(u, 0.0)
    if include_v:
        v = np.maximum(_mollify_values(grid, raw.v0.values, eps), 0.0)
    else:
        v = raw.v0.values
    return InitialData(GridFunction(grid, u), GridFunction(grid, v))


INITIAL_FAMILIES = ("cosine", "gaussian", "constant")
V0_KINDS = ("u0_pow_theta", "u0_squared", "zero", "constant")


@dataclass(frozen=True)
class InitialSettings:
    """The initial-data parameters of :func:`build_initial_data` and their
    defaults, which the ``initial`` section of a run config declares by these
    field names (``v0`` is the function's ``v0_kind``).  A ``choices`` entry
    in a field's metadata lists the values it admits."""

    family: str = field(default="cosine", metadata={"choices": INITIAL_FAMILIES})
    base: float = 1.0
    amplitude: float = 0.5
    width: float = 0.1
    v0: str = field(default="u0_squared", metadata={"choices": V0_KINDS})
    v0_value: float = 0.0


def build_initial_data(
    grid: Grid,
    family: str = InitialSettings.family,
    base: float = InitialSettings.base,
    amplitude: float = InitialSettings.amplitude,
    v0_kind: str = InitialSettings.v0,
    v0_value: float = InitialSettings.v0_value,
    theta: float | None = None,
    width: float = InitialSettings.width,
) -> InitialData:
    """Named initial-data families on any grid mode.

    ``cosine``: ``base + amplitude * prod_a cos(pi x_a / L_a)`` (radial:
    ``cos(pi r / R)``); needs ``|amplitude| <= base``.  ``gaussian``: bump of
    relative width ``width`` at the domain center (radial: at the origin).
    ``constant``: ``base``.  The signal starts at a power of ``u0``
    (``u0**theta`` or ``u0**2``) or at a constant (``0`` or ``v0_value``).

    Raises:
        ValueError: unknown family/kind, parameters leaving ``u0 < 0``, a
            gaussian width whose exponent leaves the float range,
            ``v0_kind="u0_pow_theta"`` without ``theta``, or the power of
            ``u0`` overflowing (the error names the kind).
    """
    if family not in INITIAL_FAMILIES:
        raise ValueError(f"unknown initial family {family!r}; choose from {INITIAL_FAMILIES}")
    if v0_kind not in V0_KINDS:
        raise ValueError(f"unknown v0 kind {v0_kind!r}; choose from {V0_KINDS}")
    if base < 0.0:
        raise ValueError(f"initial base must be >= 0, got {base}")

    if family == "cosine":
        if abs(amplitude) > base:
            raise ValueError(
                f"cosine family needs |amplitude| <= base for u0 >= 0, "
                f"got amplitude={amplitude}, base={base}"
            )
        if grid.mode == "radial-n":
            bump = np.cos(np.pi * grid.axis_centers(0) / grid.extents[0])
        else:
            # cos(pi x / L) = -sin(pi (x - L/2) / L): a one-ulp asymmetry of
            # the data would grow in an aggregating run until one aggregate
            # absorbed its mirror image
            bump = np.ones(grid.shape)
            for offset, length in zip(grid.center_offset_mesh(), grid.extents):
                bump = bump * -np.sin(np.pi * offset / length)
        u0 = base + amplitude * bump
    elif family == "gaussian":
        if base + min(amplitude, 0.0) < 0.0:
            raise ValueError(
                f"gaussian family needs base + min(amplitude, 0) >= 0, "
                f"got amplitude={amplitude}, base={base}"
            )
        if not (0.0 < width <= 1.0):
            raise ValueError(f"gaussian width must lie in (0, 1], got {width}")
        w = width * min(grid.extents)
        if grid.mode == "radial-n":
            d2 = grid.axis_centers(0) ** 2
        else:
            d2 = np.zeros(grid.shape)
            for offset in grid.center_offset_mesh():
                d2 = d2 + offset**2
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:  # an underflowing 2 w^2 gives 0/0 at a centred cell, -inf elsewhere
                exponent = -d2 / (2.0 * w * w)
            except FloatingPointError:
                raise ValueError(f"initial.width = {width} is too small for grid.extents "
                                 f"{list(grid.extents)}: the gaussian's -d^2 / (2 (width * "
                                 "min extent)^2) leaves the float range") from None
        u0 = base + amplitude * np.exp(exponent)
    else:
        if base <= 0.0:
            raise ValueError(f"constant family needs base > 0, got {base}")
        u0 = np.full(grid.shape, float(base))

    if v0_kind in ("zero", "constant"):
        if v0_kind == "constant" and v0_value < 0.0:
            raise ValueError(f"constant v0 must be >= 0, got {v0_value}")
        v0 = np.full(grid.shape, 0.0 if v0_kind == "zero" else float(v0_value))
    else:
        if v0_kind == "u0_squared":
            power, overflow = 2, f"u0**2 ({v0_kind}) overflows"
        elif theta is None:
            raise ValueError("v0_kind 'u0_pow_theta' needs theta")
        else:
            power, overflow = theta, f"u0**theta ({v0_kind}) overflows at theta={theta}"
        with np.errstate(over="ignore"):
            v0 = u0**power
        if not np.all(np.isfinite(v0)):
            raise ValueError(f"initial v0 = {overflow} (max u0 {np.max(u0):g})")

    return InitialData(GridFunction(grid, u0), GridFunction(grid, v0))
