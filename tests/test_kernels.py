"""The stencil and flux kernels against the np.diff formulations they replace.

The references below are the earlier implementations of ``gradient_faces``,
``divergence_values``, ``laplacian_values``, ``face_gradient_magnitude_sq``,
``flux_coefficients``, ``upwind_flux`` (which returned the outflow rate with
the fluxes) and the mollifier's ``_max_row_rate``, kept verbatim on the test
side.  The kernels must reproduce them bit for bit, signed zeros included, so
that every artifact stays byte-identical.  ``laplacian_values`` is now the flat
flux-form kernel that the solver's operator shares, and the largest diagonal
rate of ``-L`` is read from the grid's face layout.  The upwind flux has no
kernel of its own any more: the solver's operator applies the upwind
transport from face rates, and it must match ``-L + div(upwind_flux)``
composed from the references to roundoff.
Inputs mix both signs with exact zeros (flat stretches of a field give zero
gradients, and with ``eps = 0`` zero flux factors), on a 1d
grid, a non-square 2d grid with cell counts that are not powers of two, and a
radial grid whose innermost face has area 0.  At ``p = 3`` and ``p = 4`` the
flux exponent is 0.5 and 1, where numpy's ``**`` may take a fast path.
The kernels divide by the spacing and the cell weights on those three grids,
and multiply where the scaling is exact, by a power of two: the four unit
grids below take that path, with a face factor ``area / h`` of 32 (1d), of
exactly 1, which the kernel skips (2d 16x16), of 2 and 1/2 (2d 16x8), and
per face with weights that are not powers of two (radial, 32 cells).
"""

import numpy as np
import pytest

from fluxks.grid import (
    _neg_laplacian_diagonal,
    build_grid,
    divergence_values,
    gradient_faces,
    laplacian_values,
)
from fluxks.linalg import HelmholtzSolver
from fluxks.model import (
    ModelParams,
    face_gradient_magnitude_sq,
    flux_coefficients,
)

GRIDS = {
    "cartesian-1d": build_grid("cartesian-1d", extents=(1.3,), cells=(17,)),
    "cartesian-2d": build_grid("cartesian-2d", extents=(1.0, 1.7), cells=(12, 20)),
    "radial-3": build_grid("radial-n", extents=(1.0,), cells=(24,), n=3),
    "unit-1d-32": build_grid("cartesian-1d", extents=(1.0,), cells=(32,)),
    "unit-2d-16x16": build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 16)),
    "unit-2d-16x8": build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(16, 8)),
    "unit-radial-3-32": build_grid("radial-n", extents=(1.0,), cells=(32,), n=3),
}


def _axis(nd, axis, s):
    idx = [slice(None)] * nd
    idx[axis] = s
    return tuple(idx)


# -- the earlier implementations, verbatim up to the local slice helper


def ref_gradient_faces(grid, values):
    out = []
    for a in range(grid.n_axes):
        g = np.zeros(grid.face_shape(a))
        g[_axis(grid.n_axes, a, slice(1, -1))] = np.diff(values, axis=a) / grid.spacing[a]
        out.append(g)
    return out


def ref_divergence_values(grid, faces):
    acc = np.zeros(grid.shape)
    for a in range(grid.n_axes):
        acc += np.diff(grid.face_areas[a] * faces[a], axis=a)
    return acc / grid.cell_weights


def ref_laplacian_values(grid, values):
    return ref_divergence_values(grid, ref_gradient_faces(grid, values))


def ref_face_gradient_magnitude_sq(grid, grad_faces):
    mags = []
    for a in range(grid.n_axes):
        g = grad_faces[a]
        m = g * g
        if grid.n_axes == 2:
            b = 1 - a
            other = grad_faces[b]
            tang_cell = 0.5 * (
                other[_axis(2, b, slice(None, -1))] + other[_axis(2, b, slice(1, None))]
            )
            t = np.zeros_like(g)
            t[_axis(2, a, slice(1, -1))] = 0.5 * (
                tang_cell[_axis(2, a, slice(None, -1))] + tang_cell[_axis(2, a, slice(1, None))]
            )
            m = m + t * t
        mags.append(m)
    return mags


def ref_flux_coefficients(grid, grad_faces, params):
    mags = ref_face_gradient_magnitude_sq(grid, grad_faces)
    expo = 0.5 * (params.p - 2.0)
    coeffs = []
    for g, mag in zip(grad_faces, mags):
        m = mag + params.eps
        factor = np.zeros_like(m)
        nz = m > 0.0
        factor[nz] = m[nz] ** expo
        coeffs.append(params.chi * factor * g)
    return coeffs


def ref_upwind_flux(grid, u_values, coeffs):
    nd = grid.n_axes
    fluxes = []
    outflow = np.zeros(grid.shape)
    for a, coeff in enumerate(coeffs):
        lo, hi = _axis(nd, a, slice(None, -1)), _axis(nd, a, slice(1, None))
        inner = _axis(nd, a, slice(1, -1))
        c_int = coeff[inner]
        flux = np.zeros_like(coeff)
        flux[inner] = c_int * np.where(c_int > 0.0, u_values[lo], u_values[hi])
        fluxes.append(flux)
        rate = c_int * grid.face_areas[a][inner]
        outflow[lo] += np.maximum(rate, 0.0) / grid.cell_weights[lo]
        outflow[hi] += np.maximum(-rate, 0.0) / grid.cell_weights[hi]
    return fluxes, float(outflow.max())


def ref_max_row_rate(grid):
    # largest diagonal rate of the discrete Laplacian: sum over a cell's
    # interior faces of area / (cell weight * spacing)
    rate = np.zeros(grid.shape)
    nd = grid.n_axes
    for a in range(nd):
        area = grid.face_areas[a].copy()
        area[_axis(nd, a, 0)] = 0.0
        area[_axis(nd, a, -1)] = 0.0
        lo = area[_axis(nd, a, slice(None, -1))]
        hi = area[_axis(nd, a, slice(1, None))]
        rate += (lo + hi) / (grid.cell_weights * grid.spacing[a])
    return float(rate.max())


# -- inputs and the comparison


def assert_same_bits(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype == np.float64
    assert np.array_equal(new, ref)
    # signed zeros too: -0.0 == 0.0 passes array_equal
    assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


def assert_transport_matches_reference(grid, u, coeffs):
    # the operator a*I - d*L + d*A at a = 0, d = 1 against the references'
    # -L + div(upwind_flux), to the roundoff of its face flows
    out = HelmholtzSolver(grid).apply(0.0, 1.0, u, coeffs)
    ref_fluxes, _ = ref_upwind_flux(grid, u, coeffs)
    ref = ref_divergence_values(grid, ref_fluxes) - ref_laplacian_values(grid, u)
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def field(grid, seed):
    """Values of both signs with rounded stretches (exact zero differences),
    some -0.0 entries and a plateau (zero gradients on every axis)."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    flat = rng.random(grid.shape) < 0.3
    vals[flat] = np.round(vals[flat])
    vals[rng.random(grid.shape) < 0.1] = -0.0
    vals[2:6] = 0.5
    return vals


def faces_of(grid, seed):
    # face arrays of both signs, with exact zeros and zero boundary faces
    out = []
    for a, vals in enumerate(ref_gradient_faces(grid, field(grid, seed))):
        vals[np.random.default_rng(seed + a).random(vals.shape) < 0.2] = 0.0
        out.append(vals)
    return out


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stencils_match_np_diff_references(grid, seed):
    vals = field(grid, seed)
    for new, ref in zip(gradient_faces(grid, vals), ref_gradient_faces(grid, vals)):
        assert_same_bits(new, ref)
    assert_same_bits(laplacian_values(grid, vals), ref_laplacian_values(grid, vals))
    faces = faces_of(grid, seed)
    assert_same_bits(divergence_values(grid, faces), ref_divergence_values(grid, faces))
    # nonzero boundary faces are outside the no-flux encoding but still summed
    for f in faces:
        f[...] = np.random.default_rng(seed).standard_normal(f.shape)
    assert_same_bits(divergence_values(grid, faces), ref_divergence_values(grid, faces))


@pytest.mark.parametrize("p", [1.12, 3.0, 4.0])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("seed", [0, 1])
def test_flux_kernels_match_references(grid, p, eps, seed):
    params = ModelParams(chi=0.7, p=p, theta=2.0, eps=eps, n=grid.n)
    grads = ref_gradient_faces(grid, field(grid, seed))
    for new, ref in zip(
        face_gradient_magnitude_sq(grid, grads), ref_face_gradient_magnitude_sq(grid, grads)
    ):
        assert_same_bits(new, ref)
    coeffs = flux_coefficients(grid, grads, params)
    ref_coeffs = ref_flux_coefficients(grid, grads, params)
    for new, ref in zip(coeffs, ref_coeffs):
        assert_same_bits(new, ref)
    # the plateau gives exact zeros, which eps = 0 leaves to the where= branch
    assert any(np.any(c[_axis(grid.n_axes, a, slice(1, -1))] == 0.0)
               for a, c in enumerate(coeffs))
    u = np.abs(field(grid, seed + 10))  # includes exact zeros
    assert_transport_matches_reference(grid, u, coeffs)


def test_upwind_flux_of_signed_coefficients_with_zeros(grid):
    # coefficients of both signs and exact zeros, a density with zeros
    coeffs = faces_of(grid, 5)
    u = np.abs(field(grid, 6))
    u[np.random.default_rng(7).random(grid.shape) < 0.2] = 0.0
    assert_transport_matches_reference(grid, u, coeffs)


def test_laplacian_diagonal_matches_the_mollifier_reference(grid):
    # the mollifier's step divides by the largest rate: bit for bit with the
    # reference, so the mollified data keep their bits
    diag = _neg_laplacian_diagonal(grid)
    assert float(diag.max()) == ref_max_row_rate(grid)
    # and it is the diagonal of -L, read off the kernel's unit responses
    size = diag.size
    neg_lap = [-laplacian_values(grid, e.reshape(grid.shape)).ravel()[k]
               for k, e in enumerate(np.eye(size))]
    np.testing.assert_allclose(diag, neg_lap, rtol=1e-13)


@pytest.mark.parametrize("extents", [(2.0**-998, 2.0**1002), (2.0**-1028, 2.0**1002)],
                         ids=["factor-overflows", "reciprocal-overflows"])
def test_power_of_two_spacings_out_of_range_keep_the_division(extents):
    # h = 2^-1000 with area 2^1000 across it: the factor area / h is 2^2000,
    # out of range; h = 2^-1030 is subnormal, its reciprocal out of range.
    # The kernels divide there, as the references do, and keep the finite
    # flows of tiny data
    grid = build_grid("cartesian-2d", extents=extents, cells=(4, 4))
    vals = field(grid, 0) * 2.0**-1060
    for new, ref in zip(gradient_faces(grid, vals), ref_gradient_faces(grid, vals)):
        assert_same_bits(new, ref)
    lap = laplacian_values(grid, vals)
    assert np.isfinite(lap).all()
    assert_same_bits(lap, ref_laplacian_values(grid, vals))
