"""Shared presets, field builders and session-scoped converged runs."""

import itertools
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from oldroydb import Grid
from oldroydb.fields import (ScalarField, SymTensorField, VectorField,
                             grad_tensor, sym_components, viscous_operator)
from oldroydb.fixed_point import (assemble_forcing, audit_window, iterate,
                                  march)
from oldroydb.harness import (PRESETS, RunConfig, build_initial_data,
                              load_config)
from oldroydb.velocity import TOL_LIN, step_velocity

UNIQUENESS_CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos",
    "configs", "uniqueness2d.cfg")


def random_smooth_field(grid, rng, kind="vector", amplitude=1.0):
    """Random low-mode trigonometric field; 'vector'/'scalar' vanish on the
    boundary (products of sines), 'scalar_free' uses cosines instead."""
    coords = grid.coords

    def trig_sum(fn, first):
        # wave vectors with entries first..3, the zero vector left out
        acc = np.zeros(grid.node_shape)
        for kv in itertools.product(range(first, 4), repeat=grid.dim):
            if sum(kv) == 0:
                continue
            c = rng.normal() * amplitude / (sum(kv) ** 2)
            term = np.ones(grid.node_shape)
            for ax, k in enumerate(kv):
                term = term * fn(k * np.pi * coords[ax] / grid.extent[ax])
            acc += c * term
        return acc

    def sine_sum():
        acc = trig_sum(np.sin, 1)
        acc[grid.boundary_mask] = 0.0  # sin(k*pi) is only zero to round-off
        return acc

    def cosine_sum():
        return trig_sum(np.cos, 0)

    if kind == "scalar":
        return ScalarField(grid, sine_sum())
    if kind == "scalar_free":
        return ScalarField(grid, cosine_sum())
    if kind == "vector":
        vals = np.stack([sine_sum() for _ in range(grid.dim)])
        return VectorField(grid, vals, dirichlet=True)
    if kind == "symtensor":
        m = grid.dim * (grid.dim + 1) // 2
        return SymTensorField(grid, np.stack([cosine_sum() for _ in range(m)]))
    raise ValueError(f"unknown field kind {kind!r}")


def scalar_from_function(grid, fn):
    """The scalar field fn(x, y[, z]) at the grid nodes."""
    return ScalarField(grid, fn(*grid.coords))


def vector_from_function(grid, fn):
    """The vector field whose components fn(x, y[, z]) returns; a constant
    component is broadcast to the nodes."""
    return VectorField(grid, np.stack([np.broadcast_to(c, grid.node_shape)
                                       for c in fn(*grid.coords)]))


def identity_tensor(grid, scale=1.0):
    """scale times the identity at every node."""
    out = SymTensorField.zeros(grid)
    for k, (i, j) in enumerate(sym_components(grid.dim)):
        if i == j:
            out.values[k] = scale
    return out


def copy_field(f):
    """A field of the same kind and flags holding a copy of f's values."""
    return f.__class__(f.grid, f.values.copy(), **f._flags())


def uniqueness_config(n=32):
    """The `uniqueness` command's shipped config on an n x n grid."""
    return replace(load_config(UNIQUENESS_CONFIG), grid_n=n)


def small_preset(n=32):
    """Gentle vortex, cosine density remainder, strain-proportional stress:
    the default config's data on an n x n grid."""
    return build_initial_data(RunConfig(grid_n=n))


def compressive_preset(n=32):
    """Gradient flow with genuine dilation, for gap-growth experiments:
    the `uniqueness` command's shipped data on an n x n grid."""
    return build_initial_data(uniqueness_config(n))


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


def run_velocity(u0, forcing, T, dt, params, tol_lin=TOL_LIN):
    """Integrate the velocity subproblem over [0, T], forcing(t) evaluated
    at step endpoints, keeping the whole trajectory.

    Returns (times, us, Fs, reports) with us[0] = u0 and Fs[0] = forcing(0)
    so that the budget checks can consume the trajectory directly.
    """
    nsteps = int(round(T / dt))
    times = [0.0]
    us = [u0]
    Fs = [forcing(0.0)]
    reports = []
    u = u0
    for n in range(nsteps):
        t_next = (n + 1) * dt
        F = forcing(t_next)
        u, rep = step_velocity(u, F, dt, params, tol_lin=tol_lin)
        times.append(t_next)
        us.append(u)
        Fs.append(F)
        reports.append(rep)
    return times, us, Fs, reports


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


def window_forcings(sol, params):
    """The whole-grid F(0) .. F(t_N) of a window, assembled from its nodes
    as `audit_window` assembles the forcings its energy and regularity
    checks read."""
    return [assemble_forcing(w, grad_tensor(w), viscous_operator(w), p, q,
                             params)
            for w, p, q in zip(sol.w, sol.pi, sol.psi)]


def centered_bump_perturbation(grid):
    """The `bump` density preset at the `uniqueness` command's amplitude."""
    return PRESETS["ic.density"]["bump"](
        grid, uniqueness_config().uniqueness_amplitude)


def _converged(n):
    cfg = RunConfig(grid_n=n)
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    sol, hist = iterate(u0, s0, t0, params, cfg.T, cfg.dt)
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
    """Two marched and certified solutions, each with its norm table: the
    base and the bump-perturbed data of the `uniqueness` command."""
    cfg = uniqueness_config(n)
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    (sol, hist), (solp, histp) = (
        march(u0, s, t0, params, cfg.T, cfg.dt, tol_fp=cfg.tol_fp,
              max_iter=cfg.max_iter)
        for s in (s0, s0 + centered_bump_perturbation(grid)))
    return SimpleNamespace(grid=grid, params=params, sol=sol, solp=solp,
                           table=hist.membership.table,
                           tablep=histp.membership.table)


@pytest.fixture(scope="session")
def gronwall32():
    return _gronwall_pair(32)


@pytest.fixture(scope="session")
def gronwall64():
    return _gronwall_pair(64)
