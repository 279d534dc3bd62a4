"""Implicit solves: Helmholtz diffusion, and upwind transport-diffusion.

Each implicit update solves ``(a*I - d*L + d*A) x = b`` where ``L`` is the
discrete Laplacian of :mod:`fluxks.grid`, ``a >= 1``, ``d > 0``, and ``A`` is
either absent or the upwind transport operator for given face coefficients:
``x -> div(coeff * x_upwind)``, where each interior face takes ``x`` from its
lower cell where ``coeff > 0`` and from its upper cell otherwise.  Upwinding
puts each face's transport into one direction only, so the matrix is an
M-matrix (positive diagonal, nonpositive off-diagonals) whose cell-weighted
column sums all equal ``a``: its inverse keeps ``x >= 0`` and, with ``a = 1``,
the mass of ``b``.

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
``||A||`` bounded by the largest absolute row sum of the matrix.  A 2d
transport solve that meets neither test after ``CORRECTIONS`` cycles runs on,
up to ``KRYLOV_CYCLES``: a step that moves mass across many cells can need
more than 60 iterations (an 11x11 step at p = 3 takes 120).  Anything else,
and a right-hand side whose norm is not finite, raises :class:`SolverError`.

A solve sets the solver's operator once (:class:`_FaceOperator`), which its
residuals, the GMRES products, the tridiagonal diagonals and the norm bound
all read.  It applies the flux-form kernel of ``laplacian_values``
(:mod:`fluxks.grid`), so its face flows telescope and keep the mass to
roundoff; of the one-sided transport rates ``max(+-coeff * area, 0)`` one is
0 on each face, so no two rounded products cancel.  The exact inverse (DCT
denominator or diagonals) is built only when a correction runs.

A solver holds its work arrays for its life, one run: the operator's rates
and flows, the residual (which each correction overwrites), the DCT
denominator and both GMRES bases, ``KRYLOV_RESTART + 1`` and
``KRYLOV_RESTART`` fields mapped as the cycles reach them.  A 128x128 field
is 131,072 bytes, glibc's default mmap threshold; allocated and freed per
call, such fields make glibc trim its heap and fault the pages in again.  A
79-step 128x128 point took about 48,500 minor page faults, 42,000 in its
solves, and takes about 5,500 with held arrays, 800 in its solves (first
touches), with the same arithmetic.  No returned array is a work array, and
no two solvers share one: a cache keyed by ``id(grid)`` would hand a dead
grid's arrays to a new grid of another size.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.typing import NDArray

from .errors import SolverError
from .grid import Grid, _flow_divergence, _flow_work, _layout_faces, _neg_laplacian_diagonal

SOLVER_RTOL = 1e-10
# corrections per solve: exact-inverse corrections (one normally suffices), or
# on the 2d transport solve GMRES cycles of at most KRYLOV_RESTART iterations,
# up to KRYLOV_CYCLES of them while above the backward-error floor, which caps
# that solve at KRYLOV_CYCLES * KRYLOV_RESTART iterations
CORRECTIONS = 3
KRYLOV_CYCLES = 10
KRYLOV_RESTART = 20
# where a GMRES cycle stops, relative to ||b||
KRYLOV_RTOL = 1e-12

(_gtsv,) = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)


class _FaceOperator:
    """``a*I - d*L + d*A(coeffs)`` of one solve: ``a``, ``d`` and the upwind
    rates per axis in the layout of ``Grid._face_layout``, ``up = max(coeff *
    area, 0)`` from the lower cell of a face into the upper one, per unit of
    the lower cell's value, and ``down = max(-coeff * area, 0)`` back.  It
    keeps its work arrays and rates when :meth:`reset` makes it the next
    solve's operator."""

    def __init__(self, grid: Grid, a_coef: float, d_coef: float, coeffs):
        self.grid = grid
        # the flux-form kernel's work arrays and output, and per axis a field
        # for up (its entries outside the face layout stay 0) and down
        self._kernel_work, self._divergence = _flow_work(grid), np.empty(grid.shape)
        self._rate_work = [(np.zeros(grid.shape), np.empty(grid.cell_weights.size - stride))
                           for stride, _, _ in grid._face_layout]
        self.reset(a_coef, d_coef, coeffs)

    def reset(self, a_coef: float, d_coef: float, coeffs) -> "_FaceOperator":
        self.a_coef, self.d_coef = a_coef, d_coef
        self.rates = None
        if coeffs is not None:
            self.rates = []
            for axis, ((_, _, area), (up_field, down)) in enumerate(
                    zip(self.grid._face_layout, self._rate_work)):
                flow = up = _layout_faces(self.grid, axis, coeffs[axis], out=up_field)
                flow *= area
                np.maximum(np.negative(flow, out=down), 0.0, out=down)
                np.maximum(flow, 0.0, out=up)  # in place: flow is spent
                self.rates.append((up, down))
        return self

    def apply(self, x: NDArray, out: NDArray | None = None) -> NDArray:
        """``a*x`` less ``d`` times the divergence of the face flow ``area *
        ((x_hi - x_lo) / h) - up * x_lo + down * x_hi``, into ``out`` (a new
        array by default)."""
        acc = _flow_divergence(self.grid, x, self.rates, self._divergence, self._kernel_work)
        acc *= self.d_coef
        out = np.multiply(self.a_coef, x, out=out)
        out -= acc
        return out

    def norm_bound(self) -> float:
        # the largest absolute row sum: the entries of a row of -L sum in
        # absolute value to twice its diagonal, and a face adds its transport
        # rates to the rows of both its cells
        rows = 2.0 * _neg_laplacian_diagonal(self.grid)
        w = self.grid.cell_weights.ravel()
        for (stride, _, _), (up, down) in zip(self.grid._face_layout, self.rates or ()):
            rows[stride:] += (up + down) / w[stride:]
            rows[:-stride] += (up + down) / w[:-stride]
        return self.a_coef + self.d_coef * float(rows.max())


class HelmholtzSolver:
    """Solves ``(a*I - d*L + d*A) x = b`` on one grid, reusing precomputed
    spectra and the work arrays of its solves (see the module docstring), so
    one solver serves one thread."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._weights = grid.cell_weights
        self._symbol = self._rates = None
        self._op = _FaceOperator(grid, 1.0, 0.0, None)  # reset by each solve
        # the residual, which its correction overwrites, and the products of
        # the inner product and of Gram-Schmidt
        self._residual, self._product = np.empty((2, *grid.shape))
        if grid.mode == "cartesian-2d":
            self._symbol = self._dct_symbol(grid)
            self._denom = np.empty(grid.shape)
            # np.empty maps pages only as the GMRES cycles reach them
            self._basis = np.empty((KRYLOV_RESTART + 1, *grid.shape))
            self._preconditioned = np.empty((KRYLOV_RESTART, *grid.shape))
        else:
            # the tridiagonal inverse's diffusive face rates area / h, 0 on the boundary
            _, h, area = grid._face_layout[0]
            self._rates = np.pad(area, 1) / h

    @staticmethod
    def _dct_symbol(grid: Grid) -> NDArray[np.float64]:
        # -L eigenvalues on the 2d DCT-II basis, summed over the two axes
        kx, ky = (
            4.0 * np.sin(0.5 * np.pi * np.arange(n_cells) / n_cells) ** 2 / (h * h)
            for n_cells, h in zip(grid.shape, grid.spacing)
        )
        return kx[:, None] + ky[None, :]

    def _tridiagonal(self, op: _FaceOperator) -> tuple[NDArray, ...]:
        """The diagonals ``(lower, diagonal, upper)`` of ``op``, ``a*I - d*L + d*A``.

        Face ``j`` moves mass from cell ``j - 1`` up at rate ``up[j]`` and from
        cell ``j`` down at rate ``down[j]``: the diffusive rate plus the
        operator's transport rate in that direction.
        """
        up = down = self._rates
        if op.rates is not None:
            up, down = up.copy(), down.copy()
            up[1:-1] += op.rates[0][0]
            down[1:-1] += op.rates[0][1]
        a_coef, d_coef, w = op.a_coef, op.d_coef, self._weights
        diagonal = a_coef + d_coef * (up[1:] + down[:-1]) / w
        return -d_coef * up[1:-1] / w[1:], diagonal, -d_coef * down[1:-1] / w[:-1]

    def apply(self, a_coef: float, d_coef: float, x: NDArray, coeffs=None) -> NDArray:
        """The operator ``a*x - d*L(x) + d*A(x)`` of the solve, independent of
        any inverse (no transport term without ``coeffs``)."""
        return self._op.reset(a_coef, d_coef, coeffs).apply(x)

    def _dot(self, f: NDArray, g: NDArray) -> float:
        # the weighted inner product as a numpy reduction, not a BLAS call,
        # whose threads would make results depend on the thread count
        prod = np.multiply(f, g, out=self._product)
        prod *= self._weights
        return float(np.sum(prod))

    def _norm(self, f: NDArray) -> float:
        return math.sqrt(self._dot(f, f))

    def _inverse(self, op: _FaceOperator) -> Callable[..., NDArray]:
        # the exact inverse of op, applied to r in out (a new array by
        # default); in 2d that of a*I - d*L, which is the GMRES preconditioner
        # when there is transport
        if self._symbol is not None:
            denom = np.multiply(self._symbol, op.d_coef, out=self._denom)
            denom += op.a_coef
        else:
            lower, diagonal, upper = self._tridiagonal(op)

        def inverse(r: NDArray, out: NDArray | None = None) -> NDArray:
            x = np.empty_like(r) if out is None else out
            x[...] = r
            if self._symbol is not None:  # the transforms run in place (overwrite_x)
                xh = scipy.fft.dctn(x, type=2, norm="ortho", overwrite_x=True)
                xh /= denom
                return scipy.fft.idctn(xh, type=2, norm="ortho", overwrite_x=True)
            # the diagonals' overwrite flags off (gtsv's default): they serve every correction
            *_, x, info = _gtsv(lower, diagonal, upper, x, overwrite_b=True)
            if info != 0:
                raise SolverError(f"gtsv: zero pivot in row {info} of the tridiagonal solve")
            return x

        return inverse

    def _gmres(
        self, op: _FaceOperator, precond, r: NDArray, norm_r: float, target: float
    ) -> tuple[NDArray, int]:
        """One cycle of right-preconditioned GMRES (Saad & Schultz 1986) for
        ``op(dx) = r`` in the cell-weighted inner product; returns ``(dx,
        iterations)``.  It stops after ``KRYLOV_RESTART`` iterations or once
        the least-squares residual, updated by Givens rotations, is at most
        ``target``.  It keeps the preconditioned basis ``z_j = precond(v_j)``
        along with the Arnoldi basis ``v_j`` and returns ``sum_j y_j z_j``,
        which takes no further preconditioner solve.  Both bases live in the
        solver's work arrays (see the module docstring); the operator's
        products, and then ``dx``, overwrite ``r``."""
        basis = self._basis
        np.divide(r, norm_r, out=basis[0])
        preconditioned: list[NDArray] = []
        hess = np.zeros((KRYLOV_RESTART, KRYLOV_RESTART))  # rotated: R of H = QR
        rotations: list[tuple[float, float]] = []
        resid = [norm_r]  # the rotated right-hand side beta * e_1
        for j in range(KRYLOV_RESTART):
            preconditioned.append(precond(basis[j], self._preconditioned[j]))
            w = op.apply(preconditioned[j], r)  # r is spent: basis[0] holds it
            for i, v in enumerate(basis[:j + 1]):  # modified Gram-Schmidt
                hess[i, j] = self._dot(w, v)
                w -= np.multiply(v, hess[i, j], out=self._product)
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
            np.divide(w, h_next, out=basis[j + 1])
        k = len(rotations)
        y = np.zeros(k)
        for i in reversed(range(k)):  # back substitution in the triangle
            y[i] = (resid[i] - float(np.sum(hess[i, i + 1:k] * y[i + 1:]))) / hess[i, i]
        dx = np.multiply(preconditioned[0], y[0], out=r)
        for coef, z in zip(y[1:], preconditioned[1:]):
            dx += np.multiply(z, coef, out=self._product)
        return dx, k

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
                the backward-error floor is met after the last correction.
        """
        norm_b = self._norm(rhs)
        if not math.isfinite(norm_b):
            raise SolverError(f"the right-hand side's norm {norm_b} is not finite")
        if norm_b == 0.0:
            return np.zeros_like(rhs), 0, 0.0
        op = self._op.reset(a_coef, d_coef, coeffs)
        x = x0.copy()
        krylov = self._symbol is not None and coeffs is not None
        target = SOLVER_RTOL * norm_b
        iterations = 0
        norm_prev = math.inf
        for k in range((KRYLOV_CYCLES if krylov else CORRECTIONS) + 1):
            if k == 1:  # built only when x0 is not exact
                inverse = self._inverse(op)
            if k > 0:
                if krylov:
                    dx, used = self._gmres(op, inverse, r, norm_r, KRYLOV_RTOL * norm_b)
                else:
                    dx, used = inverse(r, r), 1
                x += dx
                iterations += used
                norm_prev = norm_r
            r = op.apply(x, self._residual)
            np.subtract(rhs, r, out=r)
            norm_r = self._norm(r)
            # a correction carries the rounding of its residual, eps * ||r||,
            # into x and its mass: one from a residual above ||b|| is redone
            if norm_r == 0.0 or (norm_r <= target and norm_prev <= norm_b):
                return x, iterations, norm_r / norm_b
            if k >= CORRECTIONS and norm_r <= SOLVER_RTOL * (
                    op.norm_bound() * self._norm(x) + norm_b):
                return x, iterations, norm_r / norm_b
        raise SolverError(
            f"residual {norm_r / norm_b:.3e} above the backward-error floor "
            f"after {k} corrections"
        )
