"""Finite-volume grids, fields, and the array kernels of discrete calculus
with no-flux boundaries.

Layout conventions
------------------
Scalar fields are ``float64`` arrays shaped like the grid, one value per cell
center; face fields live at cell faces, one array per axis.  For
``N`` cells per axis there are ``N + 1`` faces; face ``j`` of axis ``a`` sits
between cells ``j - 1`` and ``j`` along that axis.  Boundary faces (``j = 0``
and ``j = N``) of the gradient carry exactly zero: the no-flux condition is
encoded structurally, not approximately.

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

The operators are array kernels.  ``gradient_faces`` differences a field
across the faces.  ``divergence_values`` divides net face flow by the cell
weight, so its cell sums telescope to the boundary fluxes and vanish
identically: discrete integration by parts holds exactly, and
``laplacian_values``, equal to ``divergence_values(gradient_faces(.))`` bit
for bit, is self-adjoint in the cell-weighted inner product with constants in
its null space.  One flux-form kernel, ``_flow_divergence``, computes it and
the implicit solver's operator (:mod:`fluxks.linalg`) from the face layout
cached on the grid.

Every measurement of a field is read off one object, :class:`FieldNorms`:
the Lebesgue, gradient, dissipation and Laplacian integrals of the field and
their roots, each computed once, over its measurement gradient
(``FieldNorms.faces``) and the face quadrature ``Grid.face_weights``.  The
diagnostic records of :mod:`fluxks.functionals` and the constant estimates of
:mod:`fluxks.gn` read it.  :func:`integrate` stays apart, as the signed sum
that mass is.
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

# floor for the face density inside the negative powers of dissipation_integral
FACE_AVERAGE_FLOOR = 1e-12


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
    The two arrays are read-only and, as functions of the rest, not compared.
    """

    mode: str
    n: int
    shape: tuple[int, ...]
    extents: tuple[float, ...]
    spacing: tuple[float, ...]
    cell_weights: NDArray[np.float64] = field(repr=False, compare=False)
    face_areas: tuple[NDArray[np.float64], ...] = field(repr=False, compare=False)

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

    def center_offset_mesh(self) -> tuple[NDArray[np.float64], ...]:
        """Cell-center offsets from the middle of each axis, broadcast to the
        field shape.  They are exact half-integer multiples of the spacing,
        so data built from them keep the grid's reflections bit for bit."""
        axes = [(np.arange(n) + 0.5 - 0.5 * n) * h for n, h in zip(self.shape, self.spacing)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def face_shape(self, axis: int) -> tuple[int, ...]:
        return _face_shape(self.shape, axis)

    @cached_property
    def _face_layout(self) -> tuple[tuple[int, float, NDArray[np.float64]], ...]:
        # per axis (stride, spacing, area): in C order the neighbour below cell
        # k is cell k - stride, and area[k - stride] is the area of the face
        # between them (0 for a cell on the lower boundary of the axis)
        return tuple((math.prod(self.shape[axis + 1:]), h, _layout_faces(self, axis, areas))
                     for axis, (h, areas) in enumerate(zip(self.spacing, self.face_areas)))

    @cached_property
    def face_weights(self) -> tuple[NDArray[np.float64], ...]:
        """Per axis, the quadrature weight of each face (read-only), the pair of
        :attr:`cell_weights`: interior faces get the mean of the two adjacent cell
        weights, boundary faces half the adjacent cell weight, so each axis's
        faces tile the domain."""
        w = self.cell_weights
        nd = self.n_axes
        out = []
        for axis in range(nd):
            fw = np.zeros(self.face_shape(axis))
            left = w[_slice_axis(nd, axis, slice(None, -1))]
            right = w[_slice_axis(nd, axis, slice(1, None))]
            fw[_slice_axis(nd, axis, slice(1, -1))] = 0.5 * (left + right)
            fw[_slice_axis(nd, axis, 0)] = 0.5 * w[_slice_axis(nd, axis, 0)]
            fw[_slice_axis(nd, axis, -1)] = 0.5 * w[_slice_axis(nd, axis, -1)]
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
        # each face's area is the volume of its cell over the spacing across it
        areas = tuple(np.full(_face_shape(res, a), vol / spacing[a]) for a in range(rank))
    # the divergence divides by the cell weights: zero, subnormal or infinite
    # weights (large radial n) would turn the fields into inf and NaN
    tiny, huge = sys.float_info.min, sys.float_info.max
    if not (tiny <= weights.min() and weights.max() <= huge and np.isfinite(areas[0]).all()):
        raise ValueError(
            f"grid.n = {ambient} with cells {list(res)} and extents {list(ext)} puts "
            f"cell weights outside the normal float range [{tiny}, {huge}]"
        )

    for arr in (weights, *areas):
        arr.flags.writeable = False
    return Grid(
        mode=mode,
        n=ambient,
        shape=res,
        extents=ext,
        spacing=spacing,
        cell_weights=weights,
        face_areas=areas,
    )


def unit_grid_section(n: int, cells: int) -> dict:
    """The run-config ``grid`` section (the :func:`build_grid` arguments) of
    the unit domain of ambient dimension ``n`` with ``cells`` cells per axis.

    ``[0, 1]`` for ``n = 1``, ``[0, 1]^2`` for ``n = 2``, and the radial unit
    ball for ``n >= 3``.
    """
    rank = 2 if n == 2 else 1
    mode = {1: "cartesian-1d", 2: "cartesian-2d"}.get(n, "radial-n")
    return {"mode": mode, "extents": [1.0] * rank, "cells": [cells] * rank, "n": n}


def unit_grid(n: int, cells: int) -> Grid:
    """The grid of :func:`unit_grid_section`."""
    return build_grid(**unit_grid_section(n, cells))


def _face_shape(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    s = list(shape)
    s[axis] += 1
    return tuple(s)


def _slice_axis(ndim: int, axis: int, s: int | slice | list) -> tuple:
    # the index that applies s along axis and takes every other axis whole
    idx: list = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


# -- array kernels (the operators of the model, the solver, the mollifier and the norms)


def gradient_faces(grid: Grid, values: NDArray[np.float64]) -> list[NDArray[np.float64]]:
    """Per-axis face-normal differences with zero boundary faces."""
    nd = grid.n_axes
    out = []
    for a in range(nd):
        g = np.zeros(grid.face_shape(a))
        inner = g[_slice_axis(nd, a, slice(1, -1))]
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


def _layout_faces(grid: Grid, axis: int, faces: NDArray, out: NDArray | None = None) -> NDArray:
    # the interior faces of one axis in the layout of Grid._face_layout: read-only,
    # or written into out, a field whose entries outside that layout are 0
    held = out is not None
    out = out if held else np.zeros(grid.shape)
    out[_slice_axis(grid.n_axes, axis, slice(1, None))] = faces[
        _slice_axis(grid.n_axes, axis, slice(1, -1))]
    out.flags.writeable = held
    return out.ravel()[math.prod(grid.shape[axis + 1:]):]


def _flow_work(grid: Grid) -> list[tuple[NDArray[np.float64], ...]]:
    # the work arrays of _flow_divergence, per axis: the face flow, the face
    # below each cell, then those above the top layer (the first and last
    # stride entries, boundary faces, stay 0), and two views of one scratch
    # field, for the products of the rates and for the flow differences
    n = grid.cell_weights.size
    scratch = np.empty(n)
    return [(np.zeros(n + stride), scratch[stride:], scratch) for stride, _, _ in grid._face_layout]


def _flow_divergence(grid: Grid, values: NDArray[np.float64], rates=None, out=None,
                     work=None) -> NDArray[np.float64]:
    """Net flow per unit cell weight of the face flow ``area * ((x_hi - x_lo)
    / h)``, less ``up * x_lo - down * x_hi`` with the upwind ``rates`` ``(up,
    down)`` per axis in the layout of ``Grid._face_layout``.  Without ``rates``
    it is ``divergence_values(gradient_faces(values))`` bit for bit.  It writes
    into ``out``, a field, with the arrays of :func:`_flow_work` (new ones by
    default, one axis at a time)."""
    flat = values.ravel()
    acc = None if out is None else out.reshape(-1)
    for axis, (stride, h, area) in enumerate(grid._face_layout):
        x_lo, x_hi = flat[:-stride], flat[stride:]
        flow, prod, diff = work[axis] if work else (np.zeros(flat.size + stride), None, None)
        inner = np.subtract(x_hi, x_lo, out=flow[stride:-stride])
        if axis == 1:
            # the 2d pairs that straddle the end of a row have no face between
            # them (area 0): an overflowing difference there would give inf * 0
            inner[grid.shape[1] - 1::grid.shape[1]] = 0.0
        inner /= h
        inner *= area
        if rates is not None:
            up, down = rates[axis]
            inner -= np.multiply(up, x_lo, out=prod)
            inner += np.multiply(down, x_hi, out=prod)
        net = np.subtract(flow[stride:], flow[:-stride], out=diff)
        # the first axis's net flow is added to 0.0, as to an array of zeros
        acc = np.add(acc if axis else 0.0, net, out=acc)
    acc = acc.reshape(grid.shape)
    acc /= grid.cell_weights
    return acc


def laplacian_values(grid: Grid, values: NDArray[np.float64]) -> NDArray[np.float64]:
    return _flow_divergence(grid, values)


def _neg_laplacian_diagonal(grid: Grid) -> NDArray[np.float64]:
    # the diagonal of -L in C order: per cell, the sum over its interior faces
    # of area / (cell weight * spacing)
    weights = grid.cell_weights.ravel()
    diag = np.zeros(weights.size)
    for stride, h, area in grid._face_layout:
        faces = np.pad(area, stride)
        diag += (faces[:-stride] + faces[stride:]) / (weights * h)
    return diag


# -- integrals and norms


def integrate(grid: Grid, values: NDArray[np.float64]) -> float:
    """Cell-weighted sum (midpoint quadrature)."""
    return float(np.sum(values * grid.cell_weights))


class FieldNorms:
    """The norms of one field, the array ``values`` on ``grid``, each integral
    computed at most once.

    ``integral(p)`` is ``sum |f|^p w`` over the cells and ``lp(p)`` its
    ``p``-th root, ``max |f|`` for ``p = inf``.  Every finite index but 2 is
    ``exp(p log |f|)`` from :attr:`log_abs`, taken once per field, which
    costs an ``exp`` per index where ``|f|^p`` would cost a fractional power
    (a zero cell gives ``exp(-inf) = 0``); index 2 is ``f * f``.  Indices in
    ``(0, 1)`` give the quasi-norms that the density functionals use.

    ``grad_integral(p)`` and ``grad_lp(p)`` are the same over the face
    components of :attr:`faces`, the measurement gradient, with the
    quadrature of :attr:`Grid.face_weights`; ``dissipation_integral(q)`` is
    ``sum dens^(q-2) |g|^2 w`` over the same faces, ``dens`` the mean of the
    two adjacent cells (a boundary face takes its own cell) floored at
    ``FACE_AVERAGE_FLOOR`` to keep negative powers finite;
    ``lap_integral()`` is ``sum L(f)^2 w`` with ``L = laplacian_values``.

    Raises:
        ValueError: ``values`` not shaped like the grid; from the methods, a
            Lebesgue or dissipation index ``p <= 0``, a gradient index below
            1, or an infinite index to an integral.
    """

    def __init__(self, grid: Grid, values: NDArray[np.float64]):
        values = np.asarray(values, dtype=np.float64)
        # an (N, 1) field on an (N,) grid would broadcast against the weights
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values
        self._integrals: dict[float, float] = {}
        self._grad_integrals: dict[float, float] = {}
        self._dissipation_integrals: dict[float, float] = {}
        self._lap_integral: float | None = None

    @cached_property
    def log_abs(self) -> NDArray[np.float64]:
        """``log |f|`` per cell (``-inf`` on a zero cell)."""
        out = np.abs(self.values)
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    @cached_property
    def faces(self) -> list[NDArray[np.float64]]:
        """Face gradients for measurement: boundary faces copy the nearest interior value.

        The no-flux encoding zeroes boundary faces, which is exact for admissible
        states but drops an O(h) boundary strip when integrating gradients of
        general fields.  Copying the adjacent interior gradient restores second
        order accuracy of the face quadrature.
        """
        grid = self.grid
        faces = gradient_faces(grid, self.values)
        nd = grid.n_axes
        for a, g in enumerate(faces):
            g[_slice_axis(nd, a, 0)] = g[_slice_axis(nd, a, 1)]
            g[_slice_axis(nd, a, -1)] = g[_slice_axis(nd, a, -2)]
        return faces

    def integral(self, p: float) -> float:
        if p not in self._integrals:
            if not 0.0 < p < math.inf:
                raise ValueError(f"Lebesgue integral index must be positive and finite, got {p}")
            if p == 2.0:
                terms = self.values * self.values
            else:
                terms = p * self.log_abs
                np.exp(terms, out=terms)
            terms *= self.grid.cell_weights
            self._integrals[p] = float(np.sum(terms))
        return self._integrals[p]

    def lp(self, p: float) -> float:
        if p == math.inf:
            return float(np.max(np.abs(self.values)))
        return self.integral(p) ** (1.0 / p)

    def grad_integral(self, p: float) -> float:
        if p not in self._grad_integrals:
            if not 1.0 <= p < math.inf:
                raise ValueError(f"gradient integral index must be >= 1 and finite, got {p}")
            total = 0.0
            for g, fw in zip(self.faces, self.grid.face_weights):
                # g * g is |g| ** 2 to the bit, without the abs
                terms = g * g if p == 2.0 else np.abs(g) ** p
                terms *= fw
                total += float(np.sum(terms))
            self._grad_integrals[p] = total
        return self._grad_integrals[p]

    def grad_lp(self, p: float) -> float:
        if p == math.inf:
            return max(float(np.max(np.abs(g))) for g in self.faces)
        return self.grad_integral(p) ** (1.0 / p)

    @cached_property
    def _dissipation_terms(self) -> list[tuple[NDArray[np.float64], ...]]:
        # per axis: the floored face density, the squared face gradient and
        # the face weights of dissipation_integral
        values, grid = self.values, self.grid
        nd = grid.n_axes
        terms = []
        for a, (g, fw) in enumerate(zip(self.faces, grid.face_weights)):
            dens = np.empty(grid.face_shape(a))
            dens[_slice_axis(nd, a, slice(1, -1))] = 0.5 * (
                values[_slice_axis(nd, a, slice(None, -1))]
                + values[_slice_axis(nd, a, slice(1, None))])
            dens[_slice_axis(nd, a, [0, -1])] = values[_slice_axis(nd, a, [0, -1])]
            terms.append((np.maximum(dens, FACE_AVERAGE_FLOOR), g**2, fw))
        return terms

    def dissipation_integral(self, q: float) -> float:
        if q not in self._dissipation_integrals:
            if not 0.0 < q < math.inf:
                raise ValueError(f"dissipation integral index must be positive and finite, got {q}")
            self._dissipation_integrals[q] = sum(
                float(np.sum(dens ** (q - 2.0) * g2 * fw))
                for dens, g2, fw in self._dissipation_terms)
        return self._dissipation_integrals[q]

    def lap_integral(self) -> float:
        if self._lap_integral is None:
            lap = laplacian_values(self.grid, self.values)
            lap *= lap
            lap *= self.grid.cell_weights
            self._lap_integral = float(np.sum(lap))
        return self._lap_integral
