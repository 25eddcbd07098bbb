"""Semi-Lagrangian transport of the density remainder and elastic stress.

Both subproblems ride the same characteristic trace: departure points are
found with one midpoint (RK2) step backward through the driving velocity,
and field values are pulled back by multilinear interpolation (monotone, so
the density band cannot be violated by interpolation overshoot).

Density:  sigma' + (w . grad) sigma + sigma div w = -eps^-2 alpha div w.
With div w frozen at the arrival node, the along-path ODE has the closed
form update

    sigma_new = sigma_dep * exp(-dt divw) + eps^-2 alpha * expm1(-dt divw),

which is exact per step and reduces to the identity bitwise when w = 0.
The spatial mean is re-projected to zero after every step (the continuum
problem conserves it; interpolation does not), and the pre-projection
drift is reported.

Stress:  tau + We (tau' + (w . grad) tau + g(grad w, tau)) = 2 omega D[w].
After pullback, the relaxation/coupling part is advanced by the trapezoid
rule with grad w frozen at the arrival node:

    (We/dt + 1/2) tau_new + (We/2) g(grad w, tau_new)
        = (We/dt - 1/2) tau_dep - (We/2) g(grad w, tau_dep) + 2 omega D[w],

a dense solve on the dim (dim+1)/2 symmetric components per node.  The
trapezoid weighting keeps the pure-relaxation limit accurate to O(dt^2),
which the exact-decay acceptance tolerance requires; backward Euler's
O(dt) amplification bias is an order of magnitude too coarse at dt = 1e-3.

The a-priori transport bounds are instrumented by fitting the smallest
domain constant making each inequality hold on a computed history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.optimize import brentq

from .errors import NonDirichletError, SingularStressSystemError
from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     divergence, grad_tensor, mean, norm, norms,
                     sym_components)
from .rheology import density_band_check, objective_coupling

__all__ = ["CharacteristicMap", "trace", "DensityStepReport", "step_density",
           "StressStepReport", "step_stress", "DensityBoundReport",
           "check_density_bounds", "StressBoundReport",
           "check_stress_bounds"]


# ---------------------------------------------------------------------------
# characteristics


@dataclass
class CharacteristicMap:
    """Backward departure points for one timestep, in index coordinates."""

    grid: Grid
    dep_index: np.ndarray     # (dim, *node_shape), clipped to the index box
    dt: float
    clipped: int              # nodes nudged back inside the closed domain
    max_excursion: float      # largest pre-clip overshoot, physical units

    def pull(self, values: np.ndarray) -> np.ndarray:
        """Multilinear sample of a nodal array at the departure points."""
        coords = [c.ravel() for c in self.dep_index]
        out = map_coordinates(values, coords, order=1, mode="nearest")
        return out.reshape(self.grid.node_shape)

    @property
    def departure_points(self) -> np.ndarray:
        """Departure points in physical coordinates."""
        h = np.array(self.grid.h).reshape((-1,) + (1,) * self.grid.dim)
        return self.dep_index * h


def trace(w: VectorField, dt: float) -> CharacteristicMap:
    """Midpoint-rule backward trace x - dt w(x - dt/2 w(x)) per node.

    The driving field must vanish on the boundary, so in exact arithmetic
    every departure point stays in the closed box; excursions beyond a
    round-off allowance mean the velocity is effectively not Dirichlet
    (or the step is far too large) and raise NonDirichletError.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not w.dirichlet:
        w = VectorField(w.grid, w.values, dirichlet=True)
    grid = w.grid
    base = np.indices(grid.node_shape, dtype=float)
    h = np.array(grid.h).reshape((-1,) + (1,) * grid.dim)
    extents = [grid.node_shape[i] - 1 for i in range(grid.dim)]

    mid = base - (0.5 * dt / h) * w.values
    for i in range(grid.dim):
        np.clip(mid[i], 0.0, extents[i], out=mid[i])
    mid_flat = [c.ravel() for c in mid]
    w_mid = np.stack([
        map_coordinates(w.values[i], mid_flat, order=1,
                        mode="nearest").reshape(grid.node_shape)
        for i in range(grid.dim)])

    dep = base - (dt / h) * w_mid
    max_exc = 0.0
    clipped_mask = np.zeros(grid.node_shape, dtype=bool)
    for i in range(grid.dim):
        low = -dep[i]
        high = dep[i] - extents[i]
        exc = max(float(low.max()), float(high.max())) * grid.h[i]
        max_exc = max(max_exc, exc)
        clipped_mask |= (low > 0.0) | (high > 0.0)
        np.clip(dep[i], 0.0, extents[i], out=dep[i])
    tol = 1e-11 * max(1.0, *(grid.h[i] * extents[i] for i in range(grid.dim)))
    if max_exc > tol:
        raise NonDirichletError(
            f"characteristic departure left the domain by {max_exc:.3e} "
            f"(allowance {tol:.1e}); driving velocity is not Dirichlet "
            f"or dt is too large")
    return CharacteristicMap(grid=grid, dep_index=dep, dt=dt,
                             clipped=int(clipped_mask.sum()),
                             max_excursion=max_exc)


# ---------------------------------------------------------------------------
# density transport


@dataclass
class DensityStepReport:
    """Per-step density diagnostics for the run ledger."""

    mean_preproject: float
    density_min: float
    density_max: float
    clipped: int


def step_density(sigma_prev: ScalarField, w: VectorField, dt: float, params,
                 band_tol: float = 1e-8,
                 char_map: CharacteristicMap = None) -> tuple:
    """One semi-Lagrangian step of the density-remainder transport.

    Pull back along characteristics, apply the exact per-step dilation ODE
    with div w frozen at the arrival node, then re-project the mean to
    zero.  The total density alpha + eps^2 sigma must stay inside the
    working band widened by band_tol.  Returns (field, DensityStepReport).
    """
    grid = sigma_prev.grid
    cm = trace(w, dt) if char_map is None else char_map
    sigma_dep = cm.pull(sigma_prev.values)
    theta = dt * divergence(w).values
    lift = params.alpha / params.eps ** 2
    vals = sigma_dep * np.exp(-theta) + lift * np.expm1(-theta)
    drift = mean(ScalarField(grid, vals))
    out = ScalarField(grid, vals - drift)
    rmin, rmax = density_band_check(out, params, tol=band_tol,
                                    context="step_density")
    report = DensityStepReport(mean_preproject=drift, density_min=rmin,
                               density_max=rmax, clipped=cm.clipped)
    return out, report


# ---------------------------------------------------------------------------
# stress transport


@dataclass
class StressStepReport:
    """Per-step stress diagnostics."""

    min_det_scale: float   # smallest per-node system determinant, normalized
    clipped: int


def _coupling_matrices(grid, grad_w, a):
    """Per-node matrix of tau -> g(grad w, tau) on symmetric components."""
    m = grid.dim * (grid.dim + 1) // 2
    cols = []
    for k in range(m):
        basis = SymTensorField.zeros(grid)
        basis.values[k] = 1.0
        cols.append(objective_coupling(grad_w, basis, a).values)
    # (m columns) x (m rows) x nodes -> nodes x m x m
    G = np.stack(cols, axis=1)           # (m_out, m_in, *nodes)
    return np.moveaxis(G.reshape(m, m, -1), -1, 0)   # (N, m, m)


def step_stress(tau_prev: SymTensorField, w: VectorField, dt: float, params,
                char_map: CharacteristicMap = None) -> tuple:
    """One semi-Lagrangian, trapezoid-relaxation step of the stress.

    Returns (field, StressStepReport); the output inherits exact symmetry
    from the component storage.  A near-singular per-node system (extreme
    dt |grad w|) raises SingularStressSystemError with the node.
    """
    grid = tau_prev.grid
    m = grid.dim * (grid.dim + 1) // 2
    cm = trace(w, dt) if char_map is None else char_map
    dep_vals = np.stack([cm.pull(tau_prev.values[k]) for k in range(m)])
    tau_dep = SymTensorField(grid, dep_vals)

    gw = grad_tensor(w)
    D = SymTensorField.from_full(grid, gw, symmetrize=True)
    g_dep = objective_coupling(gw, tau_dep, params.a)
    lam = params.We / dt
    rhs = ((lam - 0.5) * tau_dep.values - 0.5 * params.We * g_dep.values
           + 2.0 * params.omega * D.values)

    G = _coupling_matrices(grid, gw, params.a)
    M = 0.5 * params.We * G
    M[:, np.arange(m), np.arange(m)] += lam + 0.5

    scale = (lam + 0.5) ** m
    dets = np.linalg.det(M) / scale
    worst = int(np.argmin(np.abs(dets)))
    if abs(dets[worst]) < 1e-12:
        node = np.unravel_index(worst, grid.node_shape)
        raise SingularStressSystemError(node, float(dets[worst] * scale))

    rhs_flat = rhs.reshape(m, -1).T[..., None]          # (N, m, 1)
    sol = np.linalg.solve(M, rhs_flat)[..., 0]          # (N, m)
    vals = sol.T.reshape((m,) + grid.node_shape)
    report = StressStepReport(min_det_scale=float(np.abs(dets[worst])),
                              clipped=cm.clipped)
    return SymTensorField(grid, vals), report


# ---------------------------------------------------------------------------
# a-priori bound instrumentation


def _w_norms(ws, dt):
    w_norms = [norms(ws[0], 2)] + [norms(wn, 3) for wn in ws[1:]]
    l1h3 = sum(dt * h[3] for h in w_norms[1:])
    suph2 = max(h[2] for h in w_norms)
    return l1h3, suph2


def _sup_rate_h1(fields, dt):
    worst = 0.0
    for prev, cur in zip(fields[:-1], fields[1:]):
        rate = type(cur)(cur.grid, (cur.values - prev.values) / dt)
        worst = max(worst, norm(rate, 1))
    return worst


@dataclass
class DensityBoundReport:
    """Fit of the density transport a-priori estimates to a history."""

    sup_h2: float
    base_h2: float          # ||sigma0||_H2 + alpha eps^-2
    base_l2: float          # ||sigma0||_L2 + alpha eps^-2, reported alongside
    w_l1h3: float
    w_suph2: float
    c_domain_sup: float     # smallest constant closing the sup bound
    sup_vacuous: bool       # sup bound already holds with constant 0
    sup_rate_h1: float
    c_domain: float         # constant fitted from the rate bound
    sup_bound_margin: float  # bound(c_domain) - sup_h2, nonnegative on pass


def check_density_bounds(sigmas, ws, dt, params) -> DensityBoundReport:
    """Fit the transport estimate constants on a density history.

    sigmas and ws are field lists over the same time nodes (initial data
    first).  The sup estimate is usually vacuous because of the alpha
    eps^-2 lift, so the quotable constant comes from the rate estimate:
    the smallest c with sup||sigma'||_1 <= c ||w||_sup (||sigma0||_2 +
    alpha eps^-2) exp(c ||w||_L1H3).
    """
    if len(sigmas) != len(ws):
        raise ValueError("need matching sigma and w histories")
    lift = params.alpha / params.eps ** 2
    sigma_norms = [norms(s, 2) for s in sigmas]
    sup_h2 = max(h[2] for h in sigma_norms)
    base_h2 = sigma_norms[0][2] + lift
    base_l2 = sigma_norms[0][0] + lift
    l1h3, suph2 = _w_norms(ws, dt)

    if l1h3 > 0.0 and sup_h2 > base_h2:
        c_sup = np.log(sup_h2 / base_h2) / l1h3
    else:
        c_sup = 0.0
    rate = _sup_rate_h1(sigmas, dt)
    target = rate / (suph2 * base_h2) if suph2 > 0.0 else 0.0
    if target <= 0.0:
        c_fit = 0.0
    elif l1h3 == 0.0:
        c_fit = target
    else:
        hi = min(target, 700.0 / l1h3)  # keep exp() finite in the bracket
        if hi * np.exp(hi * l1h3) < target:
            c_fit = hi
        else:
            c_fit = brentq(lambda c: c * np.exp(c * l1h3) - target,
                           0.0, hi, xtol=1e-15, rtol=1e-12)
    margin = base_h2 * np.exp(c_fit * l1h3) - sup_h2
    return DensityBoundReport(
        sup_h2=sup_h2, base_h2=base_h2, base_l2=base_l2, w_l1h3=l1h3,
        w_suph2=suph2, c_domain_sup=c_sup,
        sup_vacuous=bool(sup_h2 <= base_h2), sup_rate_h1=rate,
        c_domain=c_fit, sup_bound_margin=margin)


@dataclass
class StressBoundReport:
    """Fit of the stress transport a-priori estimates to a history."""

    sup_h2: float
    base_h2: float          # ||tau0||_H2
    w_l1h3: float
    w_suph2: float
    c_domain: float         # supplied, or minimizer of the sup bound
    sup_bound: float        # (base + 2 omega/(c We)) exp(c ||w||_L1H3)
    sup_bound_holds: bool
    sup_rate_h1: float
    c_relax: float          # fitted prefactor of the rate bound


def check_stress_bounds(taus, ws, dt, params,
                        c_domain: float = None) -> StressBoundReport:
    """Fit the stress estimate constants on a history.

    With no supplied domain constant, uses the one minimizing the sup
    bound (the inequality is then checked where it is sharpest; it holds
    everywhere else if it holds there, since both tails diverge).
    """
    if len(taus) != len(ws):
        raise ValueError("need matching tau and w histories")
    h2 = [norm(t, 2) for t in taus]
    sup_h2 = max(h2)
    base = h2[0]
    l1h3, suph2 = _w_norms(ws, dt)
    relax = 2.0 * params.omega / params.We

    if c_domain is None:
        if l1h3 == 0.0 or base == 0.0:
            c_domain = 1.0
        else:
            # minimize (base + relax/c) e^{c L}: L base c^2 + L relax c - relax = 0
            a, b = l1h3 * base, l1h3 * relax
            c_domain = (-b + np.sqrt(b * b + 4.0 * a * relax)) / (2.0 * a)
    bound = (base + relax / c_domain) * np.exp(c_domain * l1h3)
    rate = _sup_rate_h1(taus, dt)
    denom = (suph2 + 1.0 / (c_domain * params.We)) * (base + relax / c_domain)
    c0 = rate / (denom * np.exp(c_domain * l1h3)) if denom > 0.0 else 0.0
    return StressBoundReport(
        sup_h2=sup_h2, base_h2=base, w_l1h3=l1h3, w_suph2=suph2,
        c_domain=c_domain, sup_bound=bound,
        sup_bound_holds=bool(sup_h2 <= bound * (1.0 + 1e-12)),
        sup_rate_h1=rate, c_relax=c0)
