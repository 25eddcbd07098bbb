"""Manufactured-solution convergence studies for the subproblem solvers.

Each study integrates a subproblem against forcing manufactured from a
closed-form exact solution and reports errors and observed orders across a
refinement ladder.  Only the final state of each rung is read, so a rung
holds one state at a time: the velocity ladders step
`velocity.step_velocity` and keep only the current velocity
(`_final_velocity`).  A study passes at the bound `gates.GATES` holds under
its name: a least order, or a round-off error for a case the schemes
reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     mean_zero_project, norm, random_smooth_field)
from .gates import GATES
from .rheology import FluidParams
from .transport import step_density, step_stress, trace
from .velocity import step_velocity

__all__ = ["StudyResult", "taylor_vortex", "velocity_spatial_study",
           "velocity_temporal_study", "density_advection_study",
           "density_still_study", "stress_relaxation_study", "all_studies"]


@dataclass
class StudyResult:
    """One refinement study: errors down a ladder and observed orders."""

    name: str
    labels: list          # resolution or timestep labels, coarse to fine
    errors: list
    exact: bool = False   # its errors, not its orders, are gated

    @property
    def orders(self):
        # len(errors) - 1 pairwise observed orders; none for an exact case
        return [] if self.exact else observed_orders(self.errors)

    @property
    def passed(self):
        if self.exact:
            return all(e < GATES[self.name] for e in self.errors)
        return all(o >= GATES[self.name] for o in self.orders)


def observed_orders(errors):
    """Pairwise orders of a ladder that halves its step at each rung."""
    errs = np.asarray(errors, dtype=float)
    return list(np.log(errs[:-1] / errs[1:]) / np.log(2.0))


def _vortex(x, y) -> np.ndarray:
    # the 2D vortex components at points (x, y), stacked
    return np.stack([np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y),
                     -np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2])


def taylor_vortex(grid: Grid) -> VectorField:
    """Divergence-free Dirichlet velocity cell, the workhorse exact field."""
    vals = _vortex(grid.coords[0], grid.coords[1])
    if grid.dim == 3:
        damp = np.sin(np.pi * grid.coords[2]) ** 2
        vals = np.concatenate([vals * damp, np.zeros((1,) + grid.node_shape)])
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


def _final_velocity(u0, forcing, nsteps, dt, params, tol_lin):
    """The velocity after nsteps backward-Euler steps from u0, forcing(t)
    read at each step's end; only the current velocity is held."""
    u = u0
    for n in range(nsteps):
        u, _ = step_velocity(u, forcing((n + 1) * dt), dt, params,
                             tol_lin=tol_lin)
    return u


def velocity_spatial_study(params) -> StudyResult:
    """L2 error against u*(x,t) = exp(-t/2) vortex at time T, with dt tied
    to h^2."""
    ns, T, tol_lin = (16, 32, 64), 0.04, 1e-10
    errors = []
    for n in ns:
        grid = Grid.unit(n)
        vort, forcing = _decaying_vortex(grid, params)
        steps = 8 * (n // ns[0]) ** 2
        u = _final_velocity(vort, forcing, steps, T / steps, params, tol_lin)
        exact = VectorField(grid, np.exp(-0.5 * T) * vort.values)
        errors.append(norm(VectorField(grid, u.values - exact.values), 0))
    return StudyResult(name="velocity diffusion, space", labels=list(ns),
                       errors=errors)


def velocity_temporal_study(params) -> StudyResult:
    """Self-convergence in dt on a fixed grid (spatial error cancels)."""
    n, T, nsteps, tol_lin = 24, 0.05, (8, 16, 32, 64), 1e-11
    grid = Grid.unit(n)
    vort, forcing = _decaying_vortex(grid, params)
    finals = [_final_velocity(vort, forcing, m, T / m, params, tol_lin)
              for m in nsteps]
    errors = [norm(VectorField(grid, a.values - b.values), 0)
              for a, b in zip(finals[:-1], finals[1:])]
    labels = [f"{T}/{m}" for m in nsteps[:-1]]
    return StudyResult(name="velocity diffusion, time", labels=labels,
                       errors=errors)


def _gaussian_remainder(grid, center, width):
    sq = sum((grid.coords[i] - center[i]) ** 2 for i in range(grid.dim))
    return mean_zero_project(ScalarField(grid, np.exp(-sq / (2.0 * width ** 2))))


# Dormand & Prince (J. Comput. Appl. Math. 6, 1980): the stage matrix and
# the fifth-order weights; the vortex is steady, so no stage times
_DP5_A = ((),
          (1 / 5,),
          (3 / 40, 9 / 40),
          (44 / 45, -56 / 15, 32 / 9),
          (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
          (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP5_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP5_STEPS = 24  # fixed steps of the advection study's window
_ADVECTION_T, _ADVECTION_AMP = 0.25, 0.7  # its length and vortex amplitude


def _vortex_feet(points, amp, T) -> np.ndarray:
    """Feet at time -T of the characteristics of amp * vortex through
    points (2, m): _DP5_STEPS fixed Dormand-Prince steps of the
    back-velocity, all points at once."""
    h = T / _DP5_STEPS
    y = np.array(points, dtype=float)
    for _ in range(_DP5_STEPS):
        ks = []
        for row in _DP5_A:
            stage = y.copy()
            for a, k in zip(row, ks):
                stage += (h * a) * k
            ks.append(-amp * _vortex(*stage))
        for b, k in zip(_DP5_B, ks):
            y += (h * b) * k
    return y


def density_advection_study() -> StudyResult:
    """Bump advected by a steady vortex, against exact back-tracking.

    The reference solution traces every node's characteristic of the
    analytic velocity back over [0, T] with `_vortex_feet`: the explicit
    fifth-order Runge-Kutta weights of Dormand and Prince (1980), the
    tableau of scipy's RK45, at _DP5_STEPS fixed steps. Against scipy's
    DOP853 at rtol 1e-13, atol 1e-15 its largest foot error is 3.3e-12 at
    n = 24 and 3.4e-12 at n = 48 and 96, while the errors the study
    measures are 5e-3 and up. Run at eps = 1 so the analytic zero
    divergence leaves only O(h^2) source noise, well below the O(h)
    interpolation error the study measures (dt is tied to h).
    """
    ns, T, amp = (24, 48, 96), _ADVECTION_T, _ADVECTION_AMP
    width, center = 0.18, (0.4, 0.5)
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

        nodes = np.stack([grid.coords[0].ravel(), grid.coords[1].ravel()])
        feet = _vortex_feet(nodes, amp, T)
        sq = (feet[0] - center[0]) ** 2 + (feet[1] - center[1]) ** 2
        exact = mean_zero_project(ScalarField(
            grid, np.exp(-sq / (2.0 * width ** 2)).reshape(grid.node_shape)))
        errors.append(norm(ScalarField(grid, s.values - exact.values), 0))
    return StudyResult(name="density advection, vortex", labels=list(ns),
                       errors=errors)


def density_still_study() -> StudyResult:
    """Zero velocity: the density step must be the identity to round-off."""
    ns, T, dt = (16, 32), 0.02, 1e-3
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
                       labels=list(ns), errors=errors, exact=True)


def stress_relaxation_study() -> StudyResult:
    """Pure relaxation against tau0 exp(-T/We); trapezoid gives order 2."""
    n, T, We, nsteps = 16, 0.5, 0.5, (25, 50, 100)
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
                       errors=errors)


def all_studies(params) -> list:
    """The full verification ladder, as reported by the mms command."""
    return [velocity_spatial_study(params),
            velocity_temporal_study(params),
            density_advection_study(),
            density_still_study(),
            stress_relaxation_study()]
