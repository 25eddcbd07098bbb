"""Shared presets and session-scoped converged runs."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from oldroydb import (FluidParams, Grid, ScalarField, SymTensorField,
                      VectorField, mean_zero_project, strain)
from oldroydb.fields import random_smooth_field
from oldroydb.fixed_point import audit_window, iterate, march
from oldroydb.mms import taylor_vortex


def small_preset(n=32, amp_u=0.05, amp_s=0.01, amp_t=0.02):
    """Gentle vortex, cosine density remainder, strain-proportional stress."""
    grid = Grid.unit(n)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    u0 = VectorField(grid, amp_u * taylor_vortex(grid).values, dirichlet=True)
    x, y = grid.coords
    s0 = ScalarField(grid,
                     amp_s * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    t0 = SymTensorField(grid, amp_t * strain(u0).values)
    return grid, params, u0, s0, t0


def compressive_preset(n=32, amp=0.5):
    """Gradient flow with genuine dilation, for gap-growth experiments."""
    grid = Grid.unit(n)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    x, y = grid.coords
    vals = amp * np.stack([
        np.pi * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2,
        np.pi * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y)])
    vals[:, grid.boundary_mask] = 0.0
    u0 = VectorField(grid, vals, dirichlet=True)
    s0 = ScalarField(grid,
                     0.01 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    t0 = SymTensorField(grid, 0.02 * strain(u0).values)
    return grid, params, u0, s0, t0


def draw_trajectory(data, dim):
    """A short random smooth trajectory (ws, pis, psis, dt) on a grid whose
    cells and extents are drawn per axis; the velocity vanishes on the
    boundary."""
    n = data.draw(st.tuples(*[st.integers(8, 12)] * dim), label="n")
    extent = data.draw(st.tuples(*[st.floats(0.25, 4.0)] * dim),
                       label="extent")
    nodes = data.draw(st.integers(2, 5), label="nodes")
    dt = data.draw(st.floats(1e-3, 0.1), label="dt")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    grid = Grid(dim, n, extent)

    def draw(kind):
        return [random_smooth_field(grid, rng, kind=kind)
                for _ in range(nodes)]

    return draw("vector"), draw("scalar_free"), draw("symtensor"), dt


def counting(monkeypatch, modules, names):
    """Wrap each named function in each module; returns the call counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    return calls


def centered_bump_perturbation(grid, amp=1e-4):
    x, y = grid.coords
    bump = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02)
    return mean_zero_project(ScalarField(grid, amp * bump))


def _converged(n):
    grid, params, u0, s0, t0 = small_preset(n)
    sol, hist = iterate(u0, s0, t0, params, T=0.01, dt=1e-3,
                        tol_fp=1e-8)
    return SimpleNamespace(grid=grid, params=params, u0=u0, s0=s0, t0=t0,
                           sol=sol, hist=hist,
                           audit=audit_window(sol, params))


@pytest.fixture(scope="session")
def converged32():
    return _converged(32)


@pytest.fixture(scope="session")
def converged64():
    return _converged(64)


def _gronwall_pair(n):
    """Two marched and certified solutions, each with its norm table."""
    grid, params, u0, s0, t0 = compressive_preset(n)
    pert = centered_bump_perturbation(grid)
    sol, hist = march(u0, s0, t0, params, T=0.01, dt=1e-3,
                      tol_fp=1e-8, max_iter=25)
    solp, histp = march(u0, s0 + pert, t0, params, T=0.01, dt=1e-3,
                        tol_fp=1e-8, max_iter=25)
    return SimpleNamespace(grid=grid, params=params, sol=sol, solp=solp,
                           table=hist.membership.table,
                           tablep=histp.membership.table)


@pytest.fixture(scope="session")
def gronwall32():
    return _gronwall_pair(32)


@pytest.fixture(scope="session")
def gronwall64():
    return _gronwall_pair(64)
