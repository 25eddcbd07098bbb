"""Manufactured-solution convergence studies for the subproblem solvers.

Each study integrates a subproblem against forcing manufactured from a
closed-form exact solution and reports errors and observed orders across a
refinement ladder.  Only the final state of each rung is read, so a rung
holds one state at a time: the velocity ladders step
`velocity.step_velocity` and keep only the current velocity
(`_final_velocity`).  The still-fluid density and stress-relaxation
studies start from cosine sums over fixed coefficients (`_cosine_sum`),
draws once taken from seeded generators and now held as constants, so the
studies load no random number generator.  A study passes at the bound
`gates.GATES` holds under its name: a least order, or a round-off error
for a case the schemes reproduce exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     mean_zero_project, norm)
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
    points (2, ...): _DP5_STEPS fixed Dormand-Prince steps of the
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
    measures are 5e-3 and up. The trace is elementwise and the coarse
    rungs' nodes are the finest rung's at strides 2 and 4, so the feet are
    traced once, on the finest rung, and each rung reads its stride. Run
    at eps = 1 so the analytic zero divergence leaves only O(h^2) source
    noise, well below the O(h) interpolation error the study measures (dt
    is tied to h).
    """
    ns, T, amp = (24, 48, 96), _ADVECTION_T, _ADVECTION_AMP
    width, center = 0.18, (0.4, 0.5)
    params = FluidParams(eps=1.0)
    feet = _vortex_feet(Grid.unit(ns[-1]).coords, amp, T)
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

        stride = ns[-1] // n
        x, y = feet[:, ::stride, ::stride]
        sq = (x - center[0]) ** 2 + (y - center[1]) ** 2
        exact = mean_zero_project(ScalarField(
            grid, np.exp(-sq / (2.0 * width ** 2))))
        errors.append(norm(ScalarField(grid, s.values - exact.values), 0))
    return StudyResult(name="density advection, vortex", labels=list(ns),
                       errors=errors)


# The studies' fixed data, written with repr so they read back exactly: the
# first 15 and 45 normal() draws of numpy's default_rng(42) and
# default_rng(7)
_STILL_DRAWS = (
    0.30471707975443135, -1.0399841062404955, 0.7504511958064572,
    0.9405647163912139, -1.9510351886538364, -1.302179506862318,
    0.12784040316728537, -0.3162425923435822, -0.016801157504288795,
    -0.85304392757358, 0.8793979748628286, 0.7777919354289483,
    0.06603069756121605, 1.1272412069680329, 0.4675093422520456)
_RELAX_DRAWS = (
    0.0012301533574825742, 0.2987455375084699, -0.2741378553622176,
    -0.8905918387572742, -0.45467078517172255, -0.9916465549964624,
    0.060143602597438485, 1.3402152455545335, -0.49220651855132963,
    -0.6204748998199404, 0.4898420501851982, 0.35688700816006075,
    0.10541424899789856, -0.9304680447082047, -0.02925182246327349,
    0.6953031944582878, -1.344214547285082, -0.45761576104021817,
    -1.901222739800844, -1.289537739784976, -1.8417350377917323,
    -0.23509113107468127, -1.2674464814437032, 0.2712643588217015,
    0.15675108662422516, -0.18693094462995438, -2.516759710820513,
    -0.5386928958466366, -0.048500945401071985, 0.11330898600330756,
    -1.5301357655053935, -0.47775327603393064, -0.9785190780566395,
    -0.8088372394255993, 1.0608986233860787, -0.8075346753318965,
    -0.0325217049455206, 0.8843898673831739, -0.583600432743302,
    -0.11170194958415963, 0.11046414324948059, 0.06378177425506196,
    -1.2250558264176934, 0.0761402303770081, 1.3588234217415376)


def _cosine_sum(grid: Grid, coefficients) -> np.ndarray:
    """Sum over the nonzero wave vectors k of {0..3}^dim, in
    itertools.product order, of c_k / |k|_1^2 prod_i cos(k_i pi x_i / L_i),
    one coefficient c_k per wave vector."""
    waves = [kv for kv in itertools.product(range(4), repeat=grid.dim)
             if sum(kv)]
    acc = np.zeros(grid.node_shape)
    for c, kv in zip(coefficients, waves, strict=True):
        term = np.ones(grid.node_shape)
        for ax, k in enumerate(kv):
            term = term * np.cos(k * np.pi * grid.coords[ax] / grid.extent[ax])
        acc += (c / sum(kv) ** 2) * term
    return acc


def density_still_study() -> StudyResult:
    """Zero velocity: the density step must be the identity to round-off."""
    ns, T, dt = (16, 32), 0.02, 1e-3
    params = FluidParams()
    errors = []
    for n in ns:
        grid = Grid.unit(n)
        sigma0 = mean_zero_project(
            ScalarField(grid, _cosine_sum(grid, _STILL_DRAWS)))
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
    tau0 = SymTensorField(grid, np.stack(
        [_cosine_sum(grid, _RELAX_DRAWS[i:i + 15]) for i in (0, 15, 30)]))
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
