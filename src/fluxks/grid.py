"""Finite-volume grids, fields, and discrete calculus with no-flux boundaries.

Layout conventions
------------------
Scalar fields live at cell centers, vector fields at cell faces (one face array
per axis).  For ``N`` cells per axis there are ``N + 1`` faces; face ``j`` of
axis ``a`` sits between cells ``j - 1`` and ``j`` along that axis.  Boundary
faces (``j = 0`` and ``j = N``) carry exactly zero in every stored vector
field: the no-flux condition is encoded structurally, not approximately.

Three modes are supported:

* ``cartesian-1d`` -- interval ``[0, L]``, uniform cells of width ``h``.
* ``cartesian-2d`` -- box ``[0, Lx] x [0, Ly]``, values shaped ``(Nx, Ny)``.
* ``radial-n`` -- radially symmetric ball of radius ``R`` in ``n`` dimensions,
  stored as a 1d array over ``r in [0, R]``.  The conservative form
  ``(r^(n-1) F)_r / r^(n-1)`` is realized through face areas
  ``omega * r^(n-1)`` evaluated at face radii (the innermost face has area 0,
  so the symmetry condition at the origin is automatic) and cell weights
  ``omega * r_i^(n-1) * h`` by the midpoint rule, where ``omega`` is the
  surface measure of the unit sphere.

The divergence divides net face flow by the cell weight, so cell sums of the
divergence telescope to the boundary fluxes and vanish identically: discrete
integration by parts holds exactly, and ``laplacian`` (literally
``divergence(gradient(.))``) is self-adjoint in the cell-weighted inner
product with constants in its null space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

MODES = ("cartesian-1d", "cartesian-2d", "radial-n")

MIN_CELLS_PER_AXIS = 4


def _sphere_surface(n: int) -> float:
    # surface measure of the unit (n-1)-sphere in R^n
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform finite-volume grid (build with :func:`build_grid`).

    Attributes
    ----------
    mode: one of ``MODES``.
    n: ambient spatial dimension (radial mode may exceed the stored rank).
    shape: cells per stored axis.
    extents: domain length per stored axis (radius for radial mode).
    spacing: cell width per stored axis.
    cell_weights: measure of each cell, shaped like a scalar field.
    face_areas: per axis, the area factor of every face (boundary included).
    """

    mode: str
    n: int
    shape: tuple[int, ...]
    extents: tuple[float, ...]
    spacing: tuple[float, ...]
    cell_weights: NDArray[np.float64] = field(repr=False)
    face_areas: tuple[NDArray[np.float64], ...] = field(repr=False)

    @property
    def n_axes(self) -> int:
        return len(self.shape)

    @property
    def measure(self) -> float:
        """Total domain measure (sum of cell weights)."""
        return float(self.cell_weights.sum())

    def axis_centers(self, axis: int) -> NDArray[np.float64]:
        """Cell-center coordinates along one axis."""
        n_cells = self.shape[axis]
        h = self.spacing[axis]
        return (np.arange(n_cells) + 0.5) * h

    def center_mesh(self) -> tuple[NDArray[np.float64], ...]:
        """Cell-center coordinate arrays broadcast to the field shape."""
        axes = [self.axis_centers(a) for a in range(self.n_axes)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def face_shape(self, axis: int) -> tuple[int, ...]:
        return _face_shape(self.shape, axis)

    @cached_property
    def _face_quadrature(self) -> tuple[NDArray[np.float64], ...]:
        # per axis, the weights of face_quadrature_weights
        w = self.cell_weights
        nd = self.n_axes
        out = []
        for axis in range(nd):
            fw = np.zeros(self.face_shape(axis))
            left = w[_slice_axis(nd, axis, slice(None, -1))]
            right = w[_slice_axis(nd, axis, slice(1, None))]
            fw[_interior_slice(nd, axis)] = 0.5 * (left + right)
            fw[_boundary_slice(nd, axis, 0)] = 0.5 * w[_boundary_slice(nd, axis, 0)]
            fw[_boundary_slice(nd, axis, -1)] = 0.5 * w[_boundary_slice(nd, axis, -1)]
            fw.flags.writeable = False
            out.append(fw)
        return tuple(out)

    def describe(self) -> dict:
        """JSON-ready summary of the geometry."""
        return {
            "mode": self.mode,
            "n": self.n,
            "shape": list(self.shape),
            "extents": list(self.extents),
            "spacing": list(self.spacing),
            "measure": self.measure,
        }


def build_grid(
    mode: str,
    extents: float | tuple[float, ...],
    cells: int | tuple[int, ...],
    n: int | None = None,
) -> Grid:
    """Construct a grid.

    Args:
        mode: one of ``MODES``.
        extents: domain lengths per axis; a single float for the 1d modes
            (the radius for ``radial-n``).
        cells: cell counts per axis, at least ``MIN_CELLS_PER_AXIS`` each.
        n: ambient dimension, required for ``radial-n`` and ignored (but
            checked when given) for the cartesian modes.

    Raises:
        ValueError: unknown mode, non-positive extents, too few or
            non-integer cells, an inconsistent ambient dimension, or cell
            weights outside the normal float range (a radial ``n`` too large
            for its cells).  The messages name the run-config ``grid`` keys.
    """
    if mode not in MODES:
        raise ValueError(f"grid.mode must be one of {MODES}, got {mode!r}")

    ext = tuple(float(e) for e in np.atleast_1d(extents))
    cells_f = tuple(float(c) for c in np.atleast_1d(cells))
    if any(e <= 0 or not math.isfinite(e) for e in ext):
        raise ValueError(f"grid.extents must be positive and finite, got {ext}")
    if not all(c.is_integer() for c in cells_f):
        raise ValueError(f"grid.cells must be integers, got {list(cells_f)}")
    res = tuple(int(c) for c in cells_f)
    if any(c < MIN_CELLS_PER_AXIS for c in res):
        raise ValueError(f"need at least {MIN_CELLS_PER_AXIS} cells per axis, got {res}")

    rank = 2 if mode == "cartesian-2d" else 1
    if len(ext) != rank or len(res) != rank:
        raise ValueError(
            f"grid.extents and grid.cells must have {rank} entr"
            f"{'y' if rank == 1 else 'ies'} for mode {mode!r}"
        )

    if mode == "radial-n":
        if n is None:
            raise ValueError("grid.n is required for mode 'radial-n'")
        if int(n) != n or n < 1:
            raise ValueError(f"grid.n must be an integer >= 1, got {n}")
        ambient = int(n)
    else:
        ambient = rank
        if n is not None and n != ambient:
            raise ValueError(f"grid.n must equal {ambient} for mode {mode!r}, got {n}")

    spacing = tuple(e / c for e, c in zip(ext, res))

    if mode == "radial-n":
        h = spacing[0]
        try:
            omega = _sphere_surface(ambient)
        except OverflowError:
            omega = math.inf
        r_faces = np.arange(res[0] + 1) * h
        r_centers = (np.arange(res[0]) + 0.5) * h
        with np.errstate(over="ignore", invalid="ignore"):
            weights = omega * r_centers ** (ambient - 1) * h
            areas = (omega * r_faces ** (ambient - 1),)
    else:
        vol = float(np.prod(spacing))
        weights = np.full(res, vol)
        areas_list = []
        for a in range(rank):
            transverse = vol / spacing[a]
            areas_list.append(np.full(_face_shape(res, a), transverse))
        areas = tuple(areas_list)
    # the divergence divides by the cell weights: zero, subnormal or infinite
    # weights (large radial n) would turn the fields into inf and NaN
    tiny, huge = sys.float_info.min, sys.float_info.max
    if not (tiny <= weights.min() and weights.max() <= huge and np.isfinite(areas[0]).all()):
        raise ValueError(
            f"grid.n = {ambient} with cells {list(res)} and extents {list(ext)} puts "
            f"cell weights outside the normal float range [{tiny}, {huge}]"
        )

    return Grid(
        mode=mode,
        n=ambient,
        shape=res,
        extents=ext,
        spacing=spacing,
        cell_weights=np.ascontiguousarray(weights, dtype=np.float64),
        face_areas=tuple(np.ascontiguousarray(a, dtype=np.float64) for a in areas),
    )


def unit_grid(n: int, cells: int) -> Grid:
    """The unit domain of ambient dimension ``n`` with ``cells`` cells per axis.

    ``[0, 1]`` for ``n = 1``, ``[0, 1]^2`` for ``n = 2``, and the radial unit
    ball for ``n >= 3``.
    """
    if n == 1:
        return build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
    if n == 2:
        return build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(cells, cells))
    return build_grid("radial-n", extents=(1.0,), cells=(cells,), n=n)


def _face_shape(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    s = list(shape)
    s[axis] += 1
    return tuple(s)


class GridFunction:
    """Cell-centered scalar field; values are validated finite on construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: NDArray[np.float64]):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFunction values must be finite (NaN/Inf rejected)")
        self.grid = grid
        self.values = values

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample ``fn(*coords)`` at cell centers."""
        mesh = grid.center_mesh()
        return cls(grid, np.asarray(fn(*mesh), dtype=np.float64) * np.ones(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.shape, float(value)))


class VectorGridFunction:
    """Face-centered vector field; boundary faces must be exactly zero."""

    __slots__ = ("grid", "faces")

    def __init__(self, grid: Grid, faces: tuple[NDArray[np.float64], ...]):
        if len(faces) != grid.n_axes:
            raise ValueError(f"expected {grid.n_axes} face arrays, got {len(faces)}")
        checked = []
        for a, arr in enumerate(faces):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != grid.face_shape(a):
                raise ValueError(
                    f"axis {a} faces shape {arr.shape} != expected {grid.face_shape(a)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("face values must be finite (NaN/Inf rejected)")
            lo = arr[_boundary_slice(grid.n_axes, a, 0)]
            hi = arr[_boundary_slice(grid.n_axes, a, -1)]
            if np.any(lo != 0.0) or np.any(hi != 0.0):
                raise ValueError("boundary faces must be exactly zero (no-flux encoding)")
            checked.append(arr)
        self.grid = grid
        self.faces = tuple(checked)

    def copy(self) -> "VectorGridFunction":
        return VectorGridFunction(self.grid, tuple(f.copy() for f in self.faces))


def _boundary_slice(ndim: int, axis: int, which: int) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = which
    return tuple(idx)


def _interior_slice(ndim: int, axis: int) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = slice(1, -1)
    return tuple(idx)


# -- raw-array kernels (shared by the public operators and the implicit solver)


def gradient_faces(grid: Grid, values: NDArray[np.float64]) -> list[NDArray[np.float64]]:
    """Per-axis face-normal differences with zero boundary faces."""
    nd = grid.n_axes
    out = []
    for a in range(nd):
        g = np.zeros(grid.face_shape(a))
        inner = g[_interior_slice(nd, a)]
        np.subtract(
            values[_slice_axis(nd, a, slice(1, None))],
            values[_slice_axis(nd, a, slice(None, -1))],
            out=inner,
        )
        inner /= grid.spacing[a]
        out.append(g)
    return out


def divergence_values(grid: Grid, faces) -> NDArray[np.float64]:
    """Net face flow per unit cell weight."""
    nd = grid.n_axes
    acc = np.zeros(grid.shape)
    for a in range(nd):
        flow = grid.face_areas[a] * faces[a]
        acc += flow[_slice_axis(nd, a, slice(1, None))] - flow[_slice_axis(nd, a, slice(None, -1))]
    acc /= grid.cell_weights
    return acc


def laplacian_values(grid: Grid, values: NDArray[np.float64]) -> NDArray[np.float64]:
    return divergence_values(grid, gradient_faces(grid, values))


# -- public operators


def gradient(f: GridFunction) -> VectorGridFunction:
    """Discrete gradient at faces; boundary faces are zero by the no-flux encoding."""
    return VectorGridFunction(f.grid, tuple(gradient_faces(f.grid, f.values)))


def divergence(vf: VectorGridFunction) -> GridFunction:
    """Conservative divergence; cell sums telescope to zero exactly."""
    for a, arr in enumerate(vf.faces):
        lo = arr[_boundary_slice(vf.grid.n_axes, a, 0)]
        hi = arr[_boundary_slice(vf.grid.n_axes, a, -1)]
        if np.any(lo != 0.0) or np.any(hi != 0.0):
            raise ValueError("divergence requires exactly zero boundary faces")
    return GridFunction(vf.grid, divergence_values(vf.grid, vf.faces))


def laplacian(f: GridFunction) -> GridFunction:
    """``divergence(gradient(f))``, literally: the identity is structural."""
    return divergence(gradient(f))


def integrate(f: GridFunction) -> float:
    """Cell-weighted sum (midpoint quadrature)."""
    return float(np.sum(f.values * f.grid.cell_weights))


def inner(f: GridFunction, g: GridFunction) -> float:
    """Cell-weighted inner product."""
    return float(np.sum(f.values * g.values * f.grid.cell_weights))


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete Lebesgue norm; ``p = inf`` gives the max norm.

    Raises:
        ValueError: for ``p < 1``.
    """
    if p != math.inf and p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1 or inf, got {p}")
    if p == math.inf:
        return float(np.max(np.abs(f.values))) if f.values.size else 0.0
    return float(np.sum(np.abs(f.values) ** p * f.grid.cell_weights) ** (1.0 / p))


# -- face quadrature for gradient-based integrals


def face_quadrature_weights(grid: Grid, axis: int) -> NDArray[np.float64]:
    """Quadrature weight of each face of one axis (read-only, cached on the grid).

    Interior faces get the mean of the two adjacent cell weights, boundary
    faces half the adjacent cell weight, so each axis's faces tile the domain.
    """
    return grid._face_quadrature[axis]


def _slice_axis(ndim: int, axis: int, s: slice) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def measured_gradient_faces(grid: Grid, values: NDArray[np.float64]) -> list[NDArray[np.float64]]:
    """Face gradients for measurement: boundary faces copy the nearest interior value.

    The no-flux encoding zeroes boundary faces, which is exact for admissible
    states but drops an O(h) boundary strip when integrating gradients of
    general fields.  Copying the adjacent interior gradient restores second
    order accuracy of the face quadrature.
    """
    out = gradient_faces(grid, values)
    nd = grid.n_axes
    for a, g in enumerate(out):
        if grid.shape[a] >= 2:
            g[_boundary_slice(nd, a, 0)] = g[_slice_axis(nd, a, slice(1, 2))].reshape(
                g[_boundary_slice(nd, a, 0)].shape
            )
            g[_boundary_slice(nd, a, -1)] = g[_slice_axis(nd, a, slice(-2, -1))].reshape(
                g[_boundary_slice(nd, a, -1)].shape
            )
    return out


def gradient_lp_norm(f: GridFunction, p: float) -> float:
    """Face-component gradient norm ``(sum_axes sum_faces |g|^p w_face)^(1/p)``.

    Uses the measurement gradient (one-sided boundary estimates) and the face
    quadrature of :func:`face_quadrature_weights`.  ``p = inf`` gives the
    largest face-gradient magnitude.
    """
    return faces_lp_norm(f.grid, measured_gradient_faces(f.grid, f.values), p)


def faces_lp_norm(grid: Grid, grads, p: float) -> float:
    """The norm of :func:`gradient_lp_norm` over given per-axis face arrays.

    Lets a caller that needs several indices of one field compute the
    measurement gradient once.

    Raises:
        ValueError: for ``p < 1``.
    """
    if p != math.inf and p < 1.0:
        raise ValueError(f"gradient_lp_norm requires p >= 1 or inf, got {p}")
    if p == math.inf:
        return max(float(np.max(np.abs(g))) for g in grads)
    total = 0.0
    for a, g in enumerate(grads):
        fw = face_quadrature_weights(grid, a)
        total += float(np.sum(np.abs(g) ** p * fw))
    return total ** (1.0 / p)
