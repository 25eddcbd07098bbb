"""Backward-Euler integration of the linear velocity subproblem.

The subproblem is alpha u' + (1-omega) A u = F with homogeneous Dirichlet
data and A the viscous operator -(Laplacian + grad div).  Each step solves
the symmetric positive definite system

    (alpha I + dt (1-omega) A_h) u = alpha u_prev + dt F

by preconditioned conjugate gradients (`fields.conjugate_gradient`) on
the interior degrees of freedom, to a true relative residual below
`tol_lin`.  The shifted operator is applied matrix-free as
dt (1-omega) (A_h p) + alpha p on the grid's assembled `viscous_matrix`,
so no scaled copy of it is held.  The preconditioner
(`fields.viscous_preconditioner`) inverts its diagonal blocks exactly in
the sine basis, which keeps the iteration count flat in n and dt.

Two a-posteriori checks instrument a computed trajectory:

* `check_energy_budget`: the discrete energy inequality

      (alpha/2) int ||u'||^2 + ((1-omega)^2/2) int ||A u||^2
        + (1-omega) sup ||D u||^2 + (1-omega) sup ||div u||^2
      <= 4 (1-omega) ||D u0||^2 + int ||F||^2

  up to a (1 + 10 dt) discretization slack;

* `check_regularity_budget`: the empirical stability ratio

      (||u||_{L2 H3}^2 + ||u||_{Linf H2}^2 + ||u'||_{L2 H1}^2
         + ||u'||_{Linf L2}^2)
      / (||A u0||^2 + ||F(0)||^2 + ||F||_{L2 H1}^2 + ||F'||_{L2 H-1}^2),

  whose boundedness under grid refinement is the computable shadow of the
  parabolic regularity constant.

Time integrals use the right-endpoint rule matching backward Euler; sups
run over all time nodes including t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LinearSolveError
from .fields import (VectorField, conjugate_gradient, divergence, inner, norm,
                     norm_hminus1, norms, rate_tensors, viscous_operator,
                     viscous_preconditioner)

__all__ = ["VelocityStepReport", "step_velocity", "run_velocity",
           "EnergyBudgetReport", "check_energy_budget",
           "DissipationReport", "check_step_dissipation",
           "RegularityReport", "check_regularity_budget"]


@dataclass
class VelocityStepReport:
    """Diagnostics for one backward-Euler velocity step."""

    iterations: int
    residual: float        # relative linear residual ||b - M u|| / ||b||
    residual_norm: float   # weighted absolute residual, for the dissipation slack
    dt: float


def step_velocity(u_prev: VectorField, F_rhs: VectorField, dt: float, params,
                  tol_lin: float = 1e-10,
                  max_iter: int = 20000) -> tuple:
    """One backward-Euler step of alpha u' + (1-omega) A u = F.

    Solves (alpha I + dt (1-omega) A_h) u = alpha u_prev + dt F by
    preconditioned CG over interior nodes, warm-started from u_prev;
    boundary values stay exactly zero.  Raises LinearSolveError if the true
    relative residual is above tol_lin after at most max_iter iterations.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not u_prev.dirichlet:
        u_prev = VectorField(u_prev.grid, u_prev.values, dirichlet=True)
    grid = u_prev.grid
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    alpha = params.alpha
    coef = dt * (1.0 - params.omega)

    b = (alpha * u_prev.values[interior] + dt * F_rhs.values[interior]).ravel()
    b_norm = float(np.linalg.norm(b))

    vals = np.zeros((grid.dim,) + grid.node_shape)
    if b_norm == 0.0:
        iters = 0
        rel_res = 0.0
    else:
        A_h = grid.viscous_matrix

        def system(p):
            q = A_h @ p
            q *= coef
            q += alpha * p
            return q

        x, iters, _ = conjugate_gradient(
            system, viscous_preconditioner(grid, alpha, coef), b,
            u_prev.values[interior].flatten(), tol_lin, max_iter)
        rel_res = float(np.linalg.norm(b - system(x))) / b_norm
        if not rel_res <= tol_lin:  # NaN fails too
            raise LinearSolveError(
                f"velocity solve stalled at relative residual {rel_res:.3e} "
                f"(target {tol_lin:.1e}, {iters} iterations)")
        vals[interior] = x.reshape(vals[interior].shape)
    u = VectorField(grid, vals, dirichlet=True)

    # interior quadrature weights are the uniform cell volume
    cell = float(np.prod(grid.h))
    res_weighted = 0.0 if b_norm == 0.0 else rel_res * b_norm * np.sqrt(cell)
    report = VelocityStepReport(
        iterations=iters, residual=rel_res, residual_norm=res_weighted, dt=dt)
    return u, report


def run_velocity(u0: VectorField, forcing, T: float, dt: float, params,
                 tol_lin: float = 1e-10) -> tuple:
    """Integrate over [0, T]; forcing(t) is evaluated at step endpoints.

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


@dataclass
class EnergyBudgetReport:
    """Discrete energy inequality for a velocity trajectory."""

    lhs: float
    rhs: float
    dt: float
    slack: float                 # rhs (1 + 10 dt) - lhs, >= 0 when satisfied
    satisfied: bool
    rate_integral: float         # (alpha/2) sum dt ||u'||^2
    viscous_integral: float      # ((1-omega)^2/2) sum dt ||A u||^2
    sup_strain: float            # (1-omega) sup_t ||D u||^2
    sup_compress: float          # (1-omega) sup_t ||div u||^2
    initial_strain: float        # 4 (1-omega) ||D u0||^2
    forcing_integral: float      # sum dt ||F||^2
    lhs_history: np.ndarray = field(repr=False)
    rhs_history: np.ndarray = field(repr=False)


def check_energy_budget(us, Fs, dt, params) -> EnergyBudgetReport:
    """Evaluate both sides of the trajectory energy inequality.

    us: fields at t_0 .. t_N; Fs: forcing with Fs[0] = F(0) (unused here
    beyond index alignment) and Fs[n] the right side applied in step n.
    """
    if len(Fs) != len(us):
        raise ValueError("need one forcing sample per time node")
    om = params.omega
    nsteps = len(us) - 1

    def strain_pieces(u):
        D, _ = rate_tensors(u)
        return norm(D, 0) ** 2, norm(divergence(u), 0) ** 2

    d0, c0 = strain_pieces(us[0])
    initial_strain = 4.0 * (1.0 - om) * d0

    rate_int = 0.0
    visc_int = 0.0
    forcing_int = 0.0
    sup_d, sup_c = d0, c0
    lhs_hist = np.empty(nsteps + 1)
    rhs_hist = np.empty(nsteps + 1)
    lhs_hist[0] = (1.0 - om) * (sup_d + sup_c)
    rhs_hist[0] = initial_strain
    for n in range(1, nsteps + 1):
        rate = VectorField(us[n].grid, (us[n].values - us[n - 1].values) / dt)
        rate_int += dt * norm(rate, 0) ** 2
        visc_int += dt * norm(viscous_operator(us[n]), 0) ** 2
        forcing_int += dt * norm(Fs[n], 0) ** 2
        dn, cn = strain_pieces(us[n])
        sup_d, sup_c = max(sup_d, dn), max(sup_c, cn)
        lhs_hist[n] = (0.5 * params.alpha * rate_int
                       + 0.5 * (1.0 - om) ** 2 * visc_int
                       + (1.0 - om) * (sup_d + sup_c))
        rhs_hist[n] = initial_strain + forcing_int

    lhs = float(lhs_hist[-1])
    rhs = float(rhs_hist[-1])
    slack = rhs * (1.0 + 10.0 * dt) - lhs
    return EnergyBudgetReport(
        lhs=lhs, rhs=rhs, dt=dt, slack=slack,
        satisfied=bool(lhs <= rhs * (1.0 + 10.0 * dt) + 1e-14 * (1.0 + rhs)),
        rate_integral=0.5 * params.alpha * rate_int,
        viscous_integral=0.5 * (1.0 - om) ** 2 * visc_int,
        sup_strain=(1.0 - om) * sup_d, sup_compress=(1.0 - om) * sup_c,
        initial_strain=initial_strain, forcing_integral=forcing_int,
        lhs_history=lhs_hist, rhs_history=rhs_hist)


@dataclass
class DissipationReport:
    """One-step backward-Euler dissipation inequality."""

    lhs: float     # alpha (||u1||^2 - ||u0||^2)/(2 dt) + (1-omega) <A u1, u1>
    rhs: float     # <F, u1> plus the solver-residual slack
    slack: float
    satisfied: bool


def check_step_dissipation(u_prev, u_new, F_rhs, dt, params,
                           residual_norm=0.0) -> DissipationReport:
    """Verify the per-step energy inequality the implicit step enforces.

    The slack term residual_norm ||u_new|| / dt accounts for the inexact
    linear solve (Cauchy-Schwarz on the residual pairing); with an exact
    solve the inequality holds to round-off.
    """
    om = params.omega
    u1sq = norm(u_new, 0) ** 2
    lhs = (params.alpha * (u1sq - norm(u_prev, 0) ** 2) / (2.0 * dt)
           + (1.0 - om) * inner(viscous_operator(u_new), u_new))
    rhs = inner(F_rhs, u_new) + residual_norm * np.sqrt(u1sq) / dt
    slack = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return DissipationReport(lhs=lhs, rhs=rhs, slack=slack,
                             satisfied=bool(lhs <= rhs + 1e-11 * scale))


@dataclass
class RegularityReport:
    """Empirical parabolic-regularity ratio for a velocity trajectory."""

    lhs: float
    bracket: float
    c1_emp: float
    vacuous: bool
    u_l2h3: float
    u_suph2: float
    rate_l2h1: float
    rate_supl2: float
    f0_norm: float
    f_l2h1: float
    fprime_l2hm1: float
    visc0_norm: float


def check_regularity_budget(us, Fs, dt, params) -> RegularityReport:
    """Ratio of trajectory regularity norms to the data bracket.

    Fs[0] must be the right side assembled from the initial data; the
    forcing rate F' is its per-step finite difference measured in the
    discrete dual norm (one Dirichlet-Laplacian solve per sample).
    """
    if len(Fs) != len(us):
        raise ValueError("need one forcing sample per time node")
    nsteps = len(us) - 1

    u_l2h3 = 0.0
    u_suph2 = norm(us[0], 2) ** 2
    rate_l2h1 = 0.0
    rate_supl2 = 0.0
    f_l2h1 = 0.0
    fprime = 0.0
    for n in range(1, nsteps + 1):
        _, _, u_h2, u_h3 = norms(us[n], 3)
        u_l2h3 += dt * u_h3 ** 2
        u_suph2 = max(u_suph2, u_h2 ** 2)
        rate_l2, rate_h1 = norms(VectorField(
            us[n].grid, (us[n].values - us[n - 1].values) / dt), 1)
        rate_l2h1 += dt * rate_h1 ** 2
        rate_supl2 = max(rate_supl2, rate_l2 ** 2)
        f_l2h1 += dt * norm(Fs[n], 1) ** 2
        dF = VectorField(Fs[n].grid, (Fs[n].values - Fs[n - 1].values) / dt)
        fprime += dt * norm_hminus1(dF) ** 2

    visc0 = norm(viscous_operator(us[0]), 0)
    f0 = norm(Fs[0], 0)
    lhs = u_l2h3 + u_suph2 + rate_l2h1 + rate_supl2
    bracket = visc0 ** 2 + f0 ** 2 + f_l2h1 + fprime
    vacuous = bracket == 0.0
    c1 = float("nan") if vacuous else lhs / bracket
    return RegularityReport(
        lhs=lhs, bracket=bracket, c1_emp=c1, vacuous=vacuous,
        u_l2h3=u_l2h3, u_suph2=u_suph2, rate_l2h1=rate_l2h1,
        rate_supl2=rate_supl2, f0_norm=f0, f_l2h1=f_l2h1,
        fprime_l2hm1=fprime, visc0_norm=visc0)
