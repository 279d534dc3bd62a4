"""Show the discrete operator kernels on all three grid modes.

The stepper, the solver, the model and the norms call the array kernels
gradient_faces, divergence_values and laplacian_values of fluxks.grid.
laplacian_values is the flux-form kernel that the implicit solver's operator
also applies, not a composition of the other two, so this script checks the
three properties the rest of the package leans on:

  * laplacian_values equals divergence_values(gradient_faces(.)) bit for bit
  * it is self-adjoint for the cell-weighted inner product sum(f * g * w)
  * cos(k pi x) is a discrete near-eigenfunction with second-order residual

Run:  python3 demos/01_operators.py
"""

import math

import numpy as np

from fluxks.grid import build_grid, divergence_values, gradient_faces, laplacian_values


def main() -> None:
    grids = {
        "cartesian-1d": build_grid("cartesian-1d", extents=(1.0,), cells=(128,)),
        "cartesian-2d": build_grid("cartesian-2d", extents=(1.0, 1.0), cells=(24, 24)),
        "radial-n (n=3)": build_grid("radial-n", extents=(1.0,), cells=(96,), n=3),
    }

    print("structural identities (random smooth-ish field, seed 7):")
    rng = np.random.default_rng(7)
    for name, g in grids.items():
        f = 1.0 + rng.uniform(0.0, 1.0, size=g.shape)
        w = 1.0 + rng.uniform(0.0, 1.0, size=g.shape)
        weights = g.cell_weights
        lap = laplacian_values(g, f)
        composed = divergence_values(g, gradient_faces(g, f))
        ident = float(np.max(np.abs(lap - composed)))
        # no-flux encoding makes the laplacian integral telescope to zero
        leak = abs(float(np.sum(lap * weights)))
        sym = abs(float(np.sum(lap * w * weights) - np.sum(f * laplacian_values(g, w) * weights)))
        print(
            f"  {name:15s} div(grad)-lap {ident:.1e}   "
            f"int(lap f) {leak:.1e}   <Lf,w>-<f,Lw> {sym:.1e}"
        )

    print()
    print("Neumann eigenfunction cos(3 pi x), residual lap f + (3 pi)^2 f:")
    prev = None
    for cells in (32, 64, 128, 256, 512):
        g = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
        f = np.cos(3 * math.pi * g.axis_centers(0))
        resid = laplacian_values(g, f) + (3 * math.pi) ** 2 * f
        err = float(np.max(np.abs(resid)))
        rate = f"   order {math.log2(prev / err):.2f}" if prev else ""
        print(f"  {cells:4d} cells   L-inf residual {err:.3e}{rate}")
        prev = err


if __name__ == "__main__":
    main()
