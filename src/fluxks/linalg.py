"""Exact implicit solves: Helmholtz diffusion, and upwind transport on one-axis grids.

Each implicit update solves ``(a*I - d*L + d*A) x = b`` where ``L`` is the
discrete Laplacian of :mod:`fluxks.grid`, ``a >= 1``, ``d > 0``, and ``A`` is
either absent or, on the one-axis grids, the upwind transport operator
``x -> div(upwind_flux(x, coeffs))`` of :func:`fluxks.model.upwind_flux` for
given face coefficients.  Every case has an exact inverse: a DCT-II spectral
solve on the uniform 2d grid (the cell-centered no-flux Laplacian diagonalizes
in that basis) and a tridiagonal ``solve_banded`` on the one-axis grids
(``cartesian-1d`` and ``radial-n``).  Upwinding puts each face's transport into
one direction only, so the tridiagonal matrix is an M-matrix (positive
diagonal, nonpositive off-diagonals) whose cell-weighted column sums all equal
``a``: its inverse keeps ``x >= 0`` and, with ``a = 1``, the mass of ``b``.

The solve starts from the caller's guess ``x0`` and certifies the true
residual ``r = b - A x`` of the ``x`` it returns, in the cell-weighted norm.
If ``x0`` already meets ``||r|| <= SOLVER_RTOL * ||b||`` it comes back
unchanged with zero corrections; this exit keeps a converged field frozen to
the last bit.  Otherwise the solve applies up to ``CORRECTIONS`` corrections
``x += inverse(r)``, returning as soon as the relative residual passes.  On
stiff solves the residual can stall at the floating-point floor, about
``eps * ||A|| * ||x||``; the last iterate is then accepted when its normwise
backward error passes, ``||r|| <= SOLVER_RTOL * (||A|| ||x|| + ||b||)``, with
``||A||`` bounded by ``a + d * rho`` (``rho`` the largest DCT eigenvalue of
``-L``) in 2d and by the largest absolute row sum of the assembled bands, which
includes the transport, on one-axis grids.  Anything else raises
:class:`SolverError`.

The constant mode has operator eigenvalue exactly ``a``: with ``a = 1`` the
solve preserves cell-weighted means to roundoff, which is what makes the mass
budget of long runs exact rather than solver-tolerance limited.

Certifying a returned ``x`` computes its Laplacian, and a time step starts its
next solve of the same field from that very array.  The solver therefore keeps
the ``(x, L(x))`` pairs of the last two arrays it returned (a step returns
``v`` and then ``u``) and, when ``x0`` is one of them by identity, takes
``L(x0)`` from there instead of recomputing it; the numbers are the same, so
every result is bit for bit what a fresh solve would give.  The lookup is
public as :meth:`HelmholtzSolver.laplacian`, for callers that need ``L`` of a
state the solver returned.  Returned arrays are read-only, so a cached pair
cannot go stale through them: a caller that needs to change one works on a
copy (as the stepper's clamp does), and a copy misses the cache and has its
Laplacian computed.  The exact inverse (DCT denominator or band matrix) is
built only when a correction runs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.fft
from numpy.typing import NDArray
from scipy.linalg import solve_banded

from .errors import SolverError
from .grid import Grid, divergence_values, laplacian_values
from .model import upwind_flux

SOLVER_RTOL = 1e-10
# exact-inverse corrections after the check of x0; one normally suffices
CORRECTIONS = 3


class HelmholtzSolver:
    """Solves ``(a*I - d*L + d*A) x = b`` on one grid, reusing precomputed spectra."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._weights = grid.cell_weights
        if grid.mode == "cartesian-2d":
            self._symbol = self._dct_symbol(grid)
            self._bands = None
            self._rho = float(self._symbol.max())
        else:
            self._symbol = None
            self._bands = self._band_parts(grid)
        # (array, Laplacian) of the last two arrays solve returned: u's and v's
        self._certified: tuple = ()

    @staticmethod
    def _dct_symbol(grid: Grid) -> NDArray[np.float64]:
        # -L eigenvalues on the 2d DCT-II basis, summed over the two axes
        kx, ky = (
            4.0 * np.sin(0.5 * np.pi * np.arange(n_cells) / n_cells) ** 2 / (h * h)
            for n_cells, h in zip(grid.shape, grid.spacing)
        )
        return kx[:, None] + ky[None, :]

    @staticmethod
    def _band_parts(grid: Grid):
        # diffusive transfer rates A_face / h of a one-axis grid, from the lower
        # to the upper cell of each face and back (equal: diffusion is
        # symmetric), with boundary faces suppressed, exactly mirroring
        # gradient_faces' zero boundary
        area = grid.face_areas[0].copy()
        area[0] = 0.0
        area[-1] = 0.0
        rate = area / grid.spacing[0]
        return rate, rate

    def _banded(self, a_coef: float, d_coef: float, coeffs=None) -> NDArray[np.float64]:
        """``a*I - d*L + d*A`` in ``solve_banded``'s ``(1, 1)`` layout.

        Face ``j`` moves mass from cell ``j - 1`` up at rate ``up[j]`` and from
        cell ``j`` down at rate ``down[j]`` (per unit of the source cell's
        value); the upwind transport adds ``max(+-coeff * area, 0)``, i.e. the
        flux ``coeff * x_upwind`` of :func:`fluxks.model.upwind_flux`.
        """
        up, down = self._bands
        if coeffs is not None:
            flow = coeffs[0] * self.grid.face_areas[0]
            up = up + np.maximum(flow, 0.0)
            down = down + np.maximum(-flow, 0.0)
        w = self._weights
        ab = np.zeros((3, w.shape[0]))
        ab[1, :] = a_coef + d_coef * (up[1:] + down[:-1]) / w
        ab[0, 1:] = -d_coef * down[1:-1] / w[:-1]  # row i, column i+1
        ab[2, :-1] = -d_coef * up[1:-1] / w[1:]  # row i+1, column i
        return ab

    def apply(
        self, a_coef: float, d_coef: float, x: NDArray, coeffs=None, lap: NDArray | None = None
    ) -> NDArray:
        """The operator ``a*x - d*L(x) + d*div(upwind_flux(x, coeffs))`` from the
        grid kernels, independent of any inverse (no transport term without
        ``coeffs``); ``lap`` is ``L(x)`` when the caller already has it."""
        if lap is None:
            lap = laplacian_values(self.grid, x)
        out = a_coef * x
        out -= d_coef * lap
        if coeffs is not None:
            out += d_coef * divergence_values(self.grid, upwind_flux(self.grid, x, coeffs))
        return out

    def _norm(self, f: NDArray) -> float:
        sq = f * f
        sq *= self._weights
        return math.sqrt(float(np.sum(sq)))

    def _inverse(self, a_coef: float, d_coef: float, coeffs) -> Callable[[NDArray], NDArray]:
        if self._symbol is not None:
            denom = a_coef + d_coef * self._symbol

            def inverse(r: NDArray) -> NDArray:
                rh = scipy.fft.dctn(r, type=2, norm="ortho")
                rh /= denom
                return scipy.fft.idctn(rh, type=2, norm="ortho", overwrite_x=True)

            return inverse
        ab = self._banded(a_coef, d_coef, coeffs)
        return lambda r: solve_banded((1, 1), ab, r)

    def laplacian(self, x: NDArray) -> NDArray:
        """``L(x)``, looked up when ``x`` is one of the last two arrays
        :meth:`solve` returned, computed otherwise; do not write to it."""
        for arr, lap in self._certified:
            if arr is x:
                return lap
        return laplacian_values(self.grid, x)

    def _certify(self, x: NDArray, lap: NDArray) -> NDArray:
        """Freeze a returned ``x`` and keep its Laplacian for the next solve from it."""
        x.flags.writeable = False
        self._certified = (*self._certified[-1:], (x, lap))
        return x

    def _norm_bound(self, a_coef: float, d_coef: float, coeffs) -> float:
        # bound on ||a*I - d*L + d*A||: a + d * rho in 2d, and the largest
        # absolute row sum of the bands (Gershgorin) on one-axis grids
        if self._symbol is not None:
            return a_coef + d_coef * self._rho
        ab = self._banded(a_coef, d_coef, coeffs)
        rows = ab[1].copy()
        rows[:-1] += np.abs(ab[0, 1:])
        rows[1:] += np.abs(ab[2, :-1])
        return float(rows.max())

    def solve(
        self, a_coef: float, d_coef: float, rhs: NDArray, x0: NDArray, coeffs=None
    ) -> tuple[NDArray, int, float]:
        """Solve from ``x0``; returns ``(x, corrections, relres)``.

        ``coeffs`` (one-axis grids only) are the face coefficients of the
        upwind transport term, as from :func:`fluxks.model.flux_coefficients`.
        ``relres`` is the weighted true residual of the returned ``x``
        relative to ``||rhs||``.

        Raises:
            SolverError: neither the residual nor the backward-error floor is
                met after ``CORRECTIONS`` corrections.
            ValueError: ``coeffs`` on the 2d grid.
        """
        if self._symbol is not None and coeffs is not None:
            raise ValueError("implicit transport needs a one-axis grid")
        norm_b = self._norm(rhs)
        if norm_b == 0.0:
            return self._certify(np.zeros_like(rhs), np.zeros_like(rhs)), 0, 0.0  # L(0) = 0
        x = x0.copy()
        lap = self.laplacian(x0)
        for k in range(CORRECTIONS + 1):
            if k == 1:  # built only when x0 fails the check
                inverse = self._inverse(a_coef, d_coef, coeffs)
            if k > 0:
                x += inverse(r)
                lap = laplacian_values(self.grid, x)
            r = self.apply(a_coef, d_coef, x, coeffs, lap)
            np.subtract(rhs, r, out=r)
            norm_r = self._norm(r)
            if norm_r <= SOLVER_RTOL * norm_b:
                return self._certify(x, lap), k, norm_r / norm_b
        norm_a = self._norm_bound(a_coef, d_coef, coeffs)
        if norm_r <= SOLVER_RTOL * (norm_a * self._norm(x) + norm_b):
            return self._certify(x, lap), CORRECTIONS, norm_r / norm_b
        raise SolverError(
            f"residual {norm_r / norm_b:.3e} above the backward-error floor "
            f"after {CORRECTIONS} corrections"
        )
