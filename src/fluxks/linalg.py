"""Implicit solves: Helmholtz diffusion, and upwind transport-diffusion.

Each implicit update solves ``(a*I - d*L + d*A) x = b`` where ``L`` is the
discrete Laplacian of :mod:`fluxks.grid`, ``a >= 1``, ``d > 0``, and ``A`` is
either absent or the upwind transport operator ``x ->
div(upwind_flux(x, coeffs))`` of :func:`fluxks.model.upwind_flux` for given
face coefficients.  Upwinding puts each face's transport into one direction
only, so the matrix is an M-matrix (positive diagonal, nonpositive
off-diagonals) whose cell-weighted column sums all equal ``a``: its inverse
keeps ``x >= 0`` and, with ``a = 1``, the mass of ``b``.

Without transport every grid has an exact inverse: a DCT-II spectral solve on
the uniform 2d grid (the cell-centered no-flux Laplacian diagonalizes in that
basis) and LAPACK ``gtsv`` on the diagonals of the tridiagonal matrix of the
one-axis grids (``cartesian-1d`` and ``radial-n``), exact with transport too.
The 2d transport solve uses right-preconditioned GMRES (Saad & Schultz, SIAM
J. Sci. Stat. Comput. 7, 1986) in the cell-weighted inner product, with the
DCT inverse of ``a*I - d*L`` as preconditioner.  With ``a = 1`` that
preconditioner keeps the mean and the transport moves no mass, so every
Krylov vector of a residual with zero mean has zero mean: the correction
keeps the mass to roundoff, not to the solver tolerance.  A GMRES cycle stops
at ``KRYLOV_RTOL``, below ``SOLVER_RTOL``: the error of a cycle stopped at
``SOLVER_RTOL`` can leave negatives beyond the stepper's positivity
tolerance where aggregating ``u`` is near 0.

The solve starts from the caller's guess ``x0`` and certifies the true
residual ``r = b - A x`` of the ``x`` it returns, in the cell-weighted norm.
Only an ``x0`` whose residual is exactly zero comes back unchanged; otherwise
the solve applies at least one and up to ``CORRECTIONS`` corrections ``x +=
inverse(r)`` (or GMRES cycles), returning once the relative residual is at
most ``SOLVER_RTOL``.  A correction carries the rounding of its residual,
about ``eps * ||r||``, into ``x`` and its mass, so one made from a residual
above ``||b||`` (a large step on spiky data) is followed by another.  On
stiff solves the residual can stall at the floating-point floor, about
``eps * ||A|| * ||x||``; the last iterate is then accepted when its normwise
backward error passes, ``||r|| <= SOLVER_RTOL * (||A|| ||x|| + ||b||)``, with
``||A||`` bounded by ``a + d * rho`` (``rho`` the largest DCT eigenvalue of
``-L``) plus the transport's Gershgorin bound in 2d, and by the largest
absolute row sum of the tridiagonal matrix on one-axis grids.  Anything else,
and a right-hand side whose norm is not finite, raises :class:`SolverError`.

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
Laplacian computed.  The exact inverse (DCT denominator or diagonals) is
built only when a correction runs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.typing import NDArray

from .errors import SolverError
from .grid import Grid, divergence_values, laplacian_values
from .model import upwind_flux

SOLVER_RTOL = 1e-10
# corrections per solve: exact-inverse corrections (one normally suffices), or
# on the 2d transport solve GMRES cycles of at most KRYLOV_RESTART iterations,
# which caps that solve at CORRECTIONS * KRYLOV_RESTART iterations
CORRECTIONS = 3
KRYLOV_RESTART = 20
# where a GMRES cycle stops, relative to ||b||
KRYLOV_RTOL = 1e-12

(_gtsv,) = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)


class HelmholtzSolver:
    """Solves ``(a*I - d*L + d*A) x = b`` on one grid, reusing precomputed spectra."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._weights = grid.cell_weights
        if grid.mode == "cartesian-2d":
            self._symbol = self._dct_symbol(grid)
            self._rates = None
            self._rho = float(self._symbol.max())
        else:
            self._symbol = None
            # face rates area / h, zero on the boundary as in gradient_faces
            area = grid.face_areas[0].copy()
            area[0] = 0.0
            area[-1] = 0.0
            self._rates = area / grid.spacing[0]
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

    def _tridiagonal(self, a_coef: float, d_coef: float, coeffs=None) -> tuple[NDArray, ...]:
        """``a*I - d*L + d*A`` as its ``(lower, diagonal, upper)`` diagonals.

        Face ``j`` moves mass from cell ``j - 1`` up at rate ``up[j]`` and from
        cell ``j`` down at rate ``down[j]`` (per unit of the source cell's
        value); the upwind transport adds ``max(+-coeff * area, 0)``, i.e. the
        flux ``coeff * x_upwind`` of :func:`fluxks.model.upwind_flux`.
        """
        up = down = self._rates
        if coeffs is not None:
            flow = coeffs[0] * self.grid.face_areas[0]
            up = up + np.maximum(flow, 0.0)
            down = down + np.maximum(-flow, 0.0)
        w = self._weights
        diagonal = a_coef + d_coef * (up[1:] + down[:-1]) / w
        return -d_coef * up[1:-1] / w[1:], diagonal, -d_coef * down[1:-1] / w[:-1]

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

    def _dot(self, f: NDArray, g: NDArray) -> float:
        # the weighted inner product as a numpy reduction, not a BLAS call,
        # whose threads would make results depend on the thread count
        prod = f * g
        prod *= self._weights
        return float(np.sum(prod))

    def _norm(self, f: NDArray) -> float:
        return math.sqrt(self._dot(f, f))

    def _inverse(self, a_coef: float, d_coef: float, coeffs) -> Callable[[NDArray], NDArray]:
        # the exact inverse; in 2d that of a*I - d*L, which is the GMRES
        # preconditioner when there is transport
        if self._symbol is not None:
            denom = a_coef + d_coef * self._symbol

            def inverse(r: NDArray) -> NDArray:
                rh = scipy.fft.dctn(r, type=2, norm="ortho")
                rh /= denom
                return scipy.fft.idctn(rh, type=2, norm="ortho", overwrite_x=True)

            return inverse
        lower, diagonal, upper = self._tridiagonal(a_coef, d_coef, coeffs)

        def inverse(r: NDArray) -> NDArray:
            # overwrite flags off (gtsv's default): the diagonals serve every correction
            *_, x, info = _gtsv(lower, diagonal, upper, r)
            if info != 0:
                raise SolverError(f"gtsv: zero pivot in row {info} of the tridiagonal solve")
            return x

        return inverse

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
        # bound on ||a*I - d*L + d*A||: a + d * rho in 2d, plus d times the
        # transport's largest absolute row sum (Gershgorin: |coeff| * area /
        # weight = |coeff| / h per face, two faces per axis); on one-axis
        # grids the largest absolute row sum of the tridiagonal matrix
        if self._symbol is not None:
            bound = a_coef + d_coef * self._rho
            if coeffs is not None:
                bound += d_coef * sum(
                    2.0 * float(np.abs(c).max()) / h for c, h in zip(coeffs, self.grid.spacing)
                )
            return bound
        lower, rows, upper = self._tridiagonal(a_coef, d_coef, coeffs)
        rows[:-1] += np.abs(upper)
        rows[1:] += np.abs(lower)
        return float(rows.max())

    def _gmres(
        self, a_coef: float, d_coef: float, coeffs, precond, r: NDArray, norm_r: float,
        target: float,
    ) -> tuple[NDArray, int]:
        """One cycle of right-preconditioned GMRES (Saad & Schultz 1986) for
        ``op(dx) = r`` in the cell-weighted inner product; returns ``(dx,
        iterations)``.  It stops after ``KRYLOV_RESTART`` iterations or once
        the least-squares residual, updated by Givens rotations, is at most
        ``target``.  Only the Arnoldi basis is kept: ``dx = precond(V y)``, as
        ``precond`` is linear."""
        basis = [r / norm_r]
        hess = np.zeros((KRYLOV_RESTART, KRYLOV_RESTART))  # rotated: R of H = QR
        rotations: list[tuple[float, float]] = []
        resid = [norm_r]  # the rotated right-hand side beta * e_1
        for j in range(KRYLOV_RESTART):
            w = self.apply(a_coef, d_coef, precond(basis[j]), coeffs)
            for i, v in enumerate(basis):  # modified Gram-Schmidt
                hess[i, j] = self._dot(w, v)
                w -= hess[i, j] * v
            h_next = self._norm(w)
            for i, (c, s) in enumerate(rotations):
                hess[i, j], hess[i + 1, j] = (c * hess[i, j] + s * hess[i + 1, j],
                                              c * hess[i + 1, j] - s * hess[i, j])
            rho = math.hypot(hess[j, j], h_next)
            c, s = hess[j, j] / rho, h_next / rho
            rotations.append((c, s))
            hess[j, j] = rho
            resid.append(-s * resid[j])
            resid[j] *= c
            if abs(resid[j + 1]) <= target or h_next == 0.0:
                break
            basis.append(w / h_next)
        k = len(rotations)
        y = np.zeros(k)
        for i in reversed(range(k)):  # back substitution in the triangle
            y[i] = (resid[i] - float(np.sum(hess[i, i + 1:k] * y[i + 1:]))) / hess[i, i]
        combo = y[0] * basis[0]
        for coef, v in zip(y[1:], basis[1:]):
            combo += coef * v
        return precond(combo), k

    def solve(
        self, a_coef: float, d_coef: float, rhs: NDArray, x0: NDArray, coeffs=None
    ) -> tuple[NDArray, int, float]:
        """Solve from ``x0``; returns ``(x, iterations, relres)``.

        ``coeffs`` are the face coefficients of the upwind transport term, as
        from :func:`fluxks.model.flux_coefficients`.  ``iterations`` counts
        the exact-inverse corrections, or the GMRES iterations of a 2d
        transport solve; it is 0 only when ``rhs`` or the residual of ``x0``
        is exactly zero.  ``relres`` is the weighted true residual of the
        returned ``x`` relative to ``||rhs||``.

        Raises:
            SolverError: ``||rhs||`` is not finite, or neither the residual nor
                the backward-error floor is met after ``CORRECTIONS`` corrections.
        """
        norm_b = self._norm(rhs)
        if not math.isfinite(norm_b):
            raise SolverError(f"the right-hand side's norm {norm_b} is not finite")
        if norm_b == 0.0:
            return self._certify(np.zeros_like(rhs), np.zeros_like(rhs)), 0, 0.0  # L(0) = 0
        x = x0.copy()
        lap = self.laplacian(x0)
        krylov = self._symbol is not None and coeffs is not None
        target = SOLVER_RTOL * norm_b
        iterations = 0
        norm_prev = math.inf
        for k in range(CORRECTIONS + 1):
            if k == 1:  # built only when x0 is not exact
                inverse = self._inverse(a_coef, d_coef, coeffs)
            if k > 0:
                if krylov:
                    dx, used = self._gmres(a_coef, d_coef, coeffs, inverse, r, norm_r,
                                           KRYLOV_RTOL * norm_b)
                else:
                    dx, used = inverse(r), 1
                x += dx
                iterations += used
                lap = laplacian_values(self.grid, x)
                norm_prev = norm_r
            r = self.apply(a_coef, d_coef, x, coeffs, lap)
            np.subtract(rhs, r, out=r)
            norm_r = self._norm(r)
            # a correction carries the rounding of its residual, eps * ||r||,
            # into x and its mass: one from a residual above ||b|| is redone
            if norm_r == 0.0 or (norm_r <= target and norm_prev <= norm_b):
                return self._certify(x, lap), iterations, norm_r / norm_b
        norm_a = self._norm_bound(a_coef, d_coef, coeffs)
        if norm_r <= SOLVER_RTOL * (norm_a * self._norm(x) + norm_b):
            return self._certify(x, lap), iterations, norm_r / norm_b
        raise SolverError(
            f"residual {norm_r / norm_b:.3e} above the backward-error floor "
            f"after {CORRECTIONS} corrections"
        )
