"""Exact Helmholtz solves for the implicit diffusion steps.

Each implicit update solves ``(a*I - d*L) x = b`` where ``L`` is the discrete
Laplacian of :mod:`fluxks.grid`, ``a >= 1`` and ``d > 0``.  Every grid mode has
an exact inverse of this operator: a DCT-II spectral solve on the uniform 2d
grid (the cell-centered no-flux Laplacian diagonalizes in that basis) and a
tridiagonal ``solve_banded`` on the one-axis grids (``cartesian-1d`` and
``radial-n``).

The solve starts from the caller's guess ``x0`` and certifies the true
residual ``r = b - A x`` of the ``x`` it returns, in the cell-weighted norm.
If ``x0`` already meets ``||r|| <= SOLVER_RTOL * ||b||`` it comes back
unchanged with zero corrections; this exit keeps a converged field frozen to
the last bit.  Otherwise the solve applies up to ``CORRECTIONS`` corrections
``x += inverse(r)``, returning as soon as the relative residual passes.  On
stiff solves the residual can stall at the floating-point floor, about
``eps * d * lambda_max * ||x||``; the last iterate is then accepted when its
normwise backward error passes, ``||r|| <= SOLVER_RTOL * (||A|| ||x|| +
||b||)`` with ``||A|| <= a + d * rho`` and ``rho`` a bound on the spectral
radius of ``-L``.  Anything else raises :class:`SolverError`.

The constant mode has operator eigenvalue exactly ``a``: with ``a = 1`` the
solve preserves cell-weighted means to roundoff, which is what makes the mass
budget of long runs exact rather than solver-tolerance limited.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.fft
from numpy.typing import NDArray
from scipy.linalg import solve_banded

from .errors import SolverError
from .grid import Grid, laplacian_values

SOLVER_RTOL = 1e-10
# exact-inverse corrections after the check of x0; one normally suffices
CORRECTIONS = 3


class HelmholtzSolver:
    """Solves ``(a*I - d*L) x = b`` on one grid, reusing precomputed spectra."""

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
            # Gershgorin: each row of -L has diagonal lo + hi and off-diagonal
            # magnitudes summing to lo + hi
            self._rho = 2.0 * float((self._bands[0] + self._bands[1]).max())

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
        # transfer rates A_face / (W_cell * h) of a one-axis grid with boundary
        # faces suppressed, exactly mirroring gradient_faces' zero boundary
        h = grid.spacing[0]
        area = grid.face_areas[0].copy()
        area[0] = 0.0
        area[-1] = 0.0
        w = grid.cell_weights
        lo_rate = area[:-1] / (w * h)  # coupling of cell i to cell i-1
        hi_rate = area[1:] / (w * h)  # coupling of cell i to cell i+1
        return lo_rate, hi_rate

    def _norm(self, f: NDArray) -> float:
        return math.sqrt(float(np.sum(f * f * self._weights)))

    def _inverse(self, a_coef: float, d_coef: float) -> Callable[[NDArray], NDArray]:
        if self._symbol is not None:
            denom = a_coef + d_coef * self._symbol

            def inverse(r: NDArray) -> NDArray:
                rh = scipy.fft.dctn(r, type=2, norm="ortho")
                return scipy.fft.idctn(rh / denom, type=2, norm="ortho")

            return inverse
        lo_rate, hi_rate = self._bands
        ab = np.zeros((3, lo_rate.shape[0]))
        ab[1, :] = a_coef + d_coef * (lo_rate + hi_rate)
        ab[0, 1:] = -d_coef * hi_rate[:-1]  # row i, column i+1
        ab[2, :-1] = -d_coef * lo_rate[1:]  # row i+1, column i
        return lambda r: solve_banded((1, 1), ab, r)

    def solve(
        self, a_coef: float, d_coef: float, rhs: NDArray, x0: NDArray
    ) -> tuple[NDArray, int, float]:
        """Solve from ``x0``; returns ``(x, corrections, relres)``.

        ``relres`` is the weighted true residual of the returned ``x``
        relative to ``||rhs||``.

        Raises:
            SolverError: neither the residual nor the backward-error floor is
                met after ``CORRECTIONS`` corrections.
        """
        norm_b = self._norm(rhs)
        if norm_b == 0.0:
            return np.zeros_like(rhs), 0, 0.0
        inverse = self._inverse(a_coef, d_coef)
        x = x0.copy()
        for k in range(CORRECTIONS + 1):
            if k > 0:
                x += inverse(r)
            r = rhs - (a_coef * x - d_coef * laplacian_values(self.grid, x))
            norm_r = self._norm(r)
            if norm_r <= SOLVER_RTOL * norm_b:
                return x, k, norm_r / norm_b
        norm_a = a_coef + d_coef * self._rho
        if norm_r <= SOLVER_RTOL * (norm_a * self._norm(x) + norm_b):
            return x, CORRECTIONS, norm_r / norm_b
        raise SolverError(
            f"residual {norm_r / norm_b:.3e} above the backward-error floor "
            f"after {CORRECTIONS} corrections"
        )
