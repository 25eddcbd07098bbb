"""Manufactured-solution convergence studies for the subproblem solvers.

Each study integrates a subproblem against forcing manufactured from a
closed-form exact solution and reports errors and observed orders across a
refinement ladder.  Passing thresholds: order >= 1.8 for the second-order
diffusion pieces, >= 0.9 for transport pieces, and machine-zero error for
cases the schemes reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     mean_zero_project, norm, random_smooth_field)
from .rheology import FluidParams
from .transport import step_density, step_stress, trace
from .velocity import run_velocity

__all__ = ["StudyResult", "taylor_vortex", "velocity_spatial_study",
           "velocity_temporal_study", "density_advection_study",
           "density_still_study", "stress_relaxation_study", "all_studies"]


@dataclass
class StudyResult:
    """One refinement study: errors down a ladder and observed orders."""

    name: str
    labels: list          # resolution or timestep labels, coarse to fine
    errors: list
    orders: list          # len(errors) - 1 pairwise observed orders
    threshold: float      # minimum acceptable order; 0 marks an exact case
    exact: bool = False

    @property
    def passed(self):
        if self.exact:
            return all(e < 1e-12 for e in self.errors)
        return all(o >= self.threshold for o in self.orders)


def observed_orders(errors, ratio=2.0):
    errs = np.asarray(errors, dtype=float)
    return list(np.log(errs[:-1] / errs[1:]) / np.log(ratio))


def taylor_vortex(grid: Grid) -> VectorField:
    """Divergence-free Dirichlet velocity cell, the workhorse exact field."""
    x, y = grid.coords[0], grid.coords[1]
    u1 = np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y)
    u2 = -np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2
    if grid.dim == 2:
        vals = np.stack([u1, u2])
    else:
        z = grid.coords[2]
        damp = np.sin(np.pi * z) ** 2
        vals = np.stack([u1 * damp, u2 * damp, np.zeros(grid.node_shape)])
    vals[:, grid.boundary_mask] = 0.0  # sin(k*pi) is only zero to round-off
    return VectorField(grid, vals, dirichlet=True)


def _vortex_laplacian(grid: Grid) -> np.ndarray:
    # closed-form Laplacian of the 2D vortex components
    x, y = grid.coords[0], grid.coords[1]
    pp = np.pi * np.pi
    l1 = (2.0 * pp * np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
          - 4.0 * pp * np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y))
    l2 = (4.0 * pp * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2
          - 2.0 * pp * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y))
    return np.stack([l1, l2])


def _decaying_vortex(grid: Grid, params):
    """The vortex V and the forcing manufactured for u*(x,t) = exp(-t/2) V:
    alpha g' V - (1-omega) g Laplacian(V), g = exp(-t/2); div V = 0
    analytically."""
    vort = taylor_vortex(grid)
    lap = _vortex_laplacian(grid)

    def forcing(t):
        gv = np.exp(-0.5 * t)
        vals = (-0.5 * params.alpha * gv * vort.values
                - (1.0 - params.omega) * gv * lap)
        return VectorField(grid, vals)

    return vort, forcing


def velocity_spatial_study(params, ns=(16, 32, 64), T=0.04,
                           tol_lin=1e-10) -> StudyResult:
    """L2 error against u*(x,t) = exp(-t/2) vortex at time T, with dt tied
    to h^2."""
    errors = []
    for n in ns:
        grid = Grid.unit(n)
        vort, forcing = _decaying_vortex(grid, params)
        dt = T / (8 * (n // ns[0]) ** 2)
        _, us, _, _ = run_velocity(vort, forcing, T, dt, params,
                                   tol_lin=tol_lin)
        exact = VectorField(grid, np.exp(-0.5 * T) * vort.values)
        errors.append(norm(VectorField(grid, us[-1].values - exact.values), 0))
    return StudyResult(name="velocity diffusion, space", labels=list(ns),
                       errors=errors, orders=observed_orders(errors),
                       threshold=1.8)


def velocity_temporal_study(params, n=24, T=0.05, nsteps=(8, 16, 32, 64),
                            tol_lin=1e-11) -> StudyResult:
    """Self-convergence in dt on a fixed grid (spatial error cancels)."""
    grid = Grid.unit(n)
    vort, forcing = _decaying_vortex(grid, params)
    finals = []
    for m in nsteps:
        _, us, _, _ = run_velocity(vort, forcing, T, T / m, params,
                                   tol_lin=tol_lin)
        finals.append(us[-1])
    errors = [norm(VectorField(grid, a.values - b.values), 0)
              for a, b in zip(finals[:-1], finals[1:])]
    labels = [f"{T}/{m}" for m in nsteps[:-1]]
    return StudyResult(name="velocity diffusion, time", labels=labels,
                       errors=errors, orders=observed_orders(errors),
                       threshold=0.9)


def _gaussian_remainder(grid, center, width):
    sq = sum((grid.coords[i] - center[i]) ** 2 for i in range(grid.dim))
    return mean_zero_project(ScalarField(grid, np.exp(-sq / (2.0 * width ** 2))))


def density_advection_study(ns=(24, 48, 96), T=0.25, width=0.18,
                            center=(0.4, 0.5), amp=0.7) -> StudyResult:
    """Bump advected by a steady vortex, against exact back-tracking.

    The reference solution integrates the characteristics of the analytic
    velocity to high accuracy per node.  Run at eps = 1 so the analytic
    zero divergence leaves only O(h^2) source noise, well below the O(h)
    interpolation error the study measures (dt is tied to h).
    """
    from scipy.integrate import solve_ivp  # only here: keeps start-up light
    params = FluidParams(eps=1.0)
    errors = []
    for n in ns:
        grid = Grid.unit(n)
        sigma = _gaussian_remainder(grid, center, width)
        w = VectorField(grid, amp * taylor_vortex(grid).values,
                        dirichlet=True)
        dt = T * 16.0 / (20.0 * n)
        cm = trace(w, dt)  # the velocity is steady: one map serves every step
        s = sigma
        for _ in range(int(round(T / dt))):
            s, _ = step_density(s, cm, params)

        def back_vel(t, Y):
            pts = Y.reshape(2, -1)
            u1 = np.sin(np.pi * pts[0]) ** 2 * np.sin(2.0 * np.pi * pts[1])
            u2 = -np.sin(2.0 * np.pi * pts[0]) * np.sin(np.pi * pts[1]) ** 2
            return -amp * np.concatenate([u1, u2])

        nodes = np.concatenate([grid.coords[0].ravel(),
                                grid.coords[1].ravel()])
        feet = solve_ivp(back_vel, (0.0, T), nodes, rtol=1e-11,
                         atol=1e-13).y[:, -1].reshape(2, -1)
        sq = (feet[0] - center[0]) ** 2 + (feet[1] - center[1]) ** 2
        exact = mean_zero_project(ScalarField(
            grid, np.exp(-sq / (2.0 * width ** 2)).reshape(grid.node_shape)))
        errors.append(norm(ScalarField(grid, s.values - exact.values), 0))
    return StudyResult(name="density advection, vortex", labels=list(ns),
                       errors=errors, orders=observed_orders(errors),
                       threshold=0.9)


def density_still_study(ns=(16, 32), T=0.02, dt=1e-3) -> StudyResult:
    """Zero velocity: the density step must be the identity to round-off."""
    params = FluidParams()
    errors = []
    for n in ns:
        grid = Grid.unit(n)
        sigma0 = mean_zero_project(random_smooth_field(
            grid, np.random.default_rng(42), kind="scalar_free"))
        s = sigma0
        cm = trace(VectorField.zeros(grid, dirichlet=True), dt)
        for _ in range(int(round(T / dt))):
            s, _ = step_density(s, cm, params)
        errors.append(float(np.abs(s.values - sigma0.values).max()))
    return StudyResult(name="density transport, still fluid",
                       labels=list(ns), errors=errors, orders=[],
                       threshold=0.0, exact=True)


def stress_relaxation_study(n=16, T=0.5, We=0.5,
                            nsteps=(25, 50, 100)) -> StudyResult:
    """Pure relaxation against tau0 exp(-T/We); trapezoid gives order 2."""
    params = FluidParams(We=We)
    grid = Grid.unit(n)
    tau0 = random_smooth_field(grid, np.random.default_rng(7),
                               kind="symtensor")
    w0 = VectorField.zeros(grid, dirichlet=True)
    exact = np.exp(-T / We) * tau0.values
    errors = []
    for m in nsteps:
        cm = trace(w0, T / m)
        tau = tau0
        for _ in range(m):
            tau, _ = step_stress(tau, cm, params)
        errors.append(norm(SymTensorField(grid, tau.values - exact), 0))
    labels = [f"{T}/{m}" for m in nsteps]
    return StudyResult(name="stress relaxation, time", labels=labels,
                       errors=errors, orders=observed_orders(errors),
                       threshold=0.9)


def all_studies(params=None) -> list:
    """The full verification ladder, as reported by the mms command."""
    if params is None:
        params = FluidParams()
    return [velocity_spatial_study(params),
            velocity_temporal_study(params),
            density_advection_study(),
            density_still_study(),
            stress_relaxation_study()]
