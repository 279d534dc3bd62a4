"""Shared fixtures: the reference 1d run reused across monitor and
acceptance tests, small grid helpers, and the discrete linear theory of the
constant state."""

import math
import sys

import numpy as np
import pytest

from fluxks.grid import build_grid, laplacian_values
from fluxks.linalg import HelmholtzSolver
from fluxks.model import ModelParams, build_initial_data
from fluxks.stepper import SimState, StepControls, simulate, step


def reference_setup():
    """The canonical 1d run: 256 cells on [0,1], chi=1, theta=2, p=1.5,
    eps=1e-3, u0 = 1 + 0.5 cos(pi x), v0 = u0^2, t_end = 20."""
    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    initial = build_initial_data(
        grid, family="cosine", base=1.0, amplitude=0.5,
        v0_kind="u0_squared", theta=2.0,
    )
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    controls = StepControls(t_end=20.0)
    return grid, initial, params, controls


@pytest.fixture(scope="session")
def reference_run():
    _, initial, params, controls = reference_setup()
    result = simulate(initial, params, controls)
    assert result.status.value == "Completed", result.message
    return result


@pytest.fixture
def grid1d():
    def make(cells=64, length=1.0):
        return build_grid("cartesian-1d", extents=(length,), cells=(cells,))
    return make


@pytest.fixture
def grid2d():
    def make(cells=16, lx=1.0, ly=1.0):
        return build_grid("cartesian-2d", extents=(lx, ly), cells=(cells, cells))
    return make


def count_laplacians(monkeypatch):
    """Record the values of every ``laplacian_values`` call, under each name
    that binds it in a loaded ``fluxks`` module; returns the list."""
    calls = []

    def counted(grid, values):
        calls.append(values)
        return laplacian_values(grid, values)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fluxks.") and getattr(mod, "laplacian_values", None) is laplacian_values:
            monkeypatch.setattr(mod, "laplacian_values", counted)
    return calls


def laplacian_mode(grid):
    """The lowest nonconstant eigenpair ``(e, mu)``, ``-L e = mu e``, with
    ``max |e| = 1``: the product mode ``prod_a cos(pi x_a / L_a)`` on cartesian
    grids, and on radial grids the second eigenvector of ``-L`` made
    symmetric by the cell weights, ``W^(1/2) (-L) W^(-1/2)``."""
    if grid.mode != "radial-n":
        e = np.ones(grid.shape)
        for coord, length in zip(grid.center_mesh(), grid.extents):
            e = e * np.cos(np.pi * coord / length)
        mu = sum(2.0 * (1.0 - math.cos(math.pi * h / length)) / (h * h)
                 for h, length in zip(grid.spacing, grid.extents))
        return e, mu
    size = grid.shape[0]
    neg_lap = np.array([-laplacian_values(grid, unit) for unit in np.eye(size)]).T
    root = np.sqrt(grid.cell_weights)
    mus, vecs = np.linalg.eigh(root[:, None] * neg_lap / root[None, :])
    e = vecs[:, 1] / root
    return e / np.abs(e).max(), float(mus[1])


def mode_dispersion(grid, params, size, steps=100, dt=0.01):
    """``(relative error, growth)`` of a density mode of size ``size`` on the
    constant state ``u = v = 1`` after ``steps`` steps of ``dt``.

    To first order in ``size``, ``u = 1 + a*e`` and ``v = 1 + b*e`` follow the
    per-mode map of the scheme, ``b' = (b + dt*theta*a) / (1 + dt + dt*mu)``
    and ``a' = (a + dt*c*mu*b') / (1 + dt*mu)`` with ``c = chi *
    eps^((p-2)/2)``.  The error compares the scheme's ``a``, its weighted
    projection on ``e``, with the map's; the growth is the map's ``a`` over
    ``size``.  The signal starts at ``b = theta * size``, i.e. at ``u^theta``.
    """
    e, mu = laplacian_mode(grid)
    c = params.chi * params.eps ** (0.5 * (params.p - 2.0))
    a_hat, b_hat = size, params.theta * size
    state = SimState(grid, u=1.0 + a_hat * e, v=1.0 + b_hat * e, t=0.0, step_index=0)
    solver = HelmholtzSolver(grid)
    controls = StepControls(t_end=steps * dt)
    for _ in range(steps):
        state = step(state, params, controls, dt, solver=solver)
        b_hat = (b_hat + dt * params.theta * a_hat) / (1.0 + dt + dt * mu)
        a_hat = (a_hat + dt * c * mu * b_hat) / (1.0 + dt * mu)
    w = grid.cell_weights
    measured = float(np.sum((state.u - 1.0) * e * w) / np.sum(e * e * w))
    return abs(measured - a_hat) / abs(a_hat), a_hat / size
