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

  up to a (1 + 10 dt) discretization slack, with the ||u|| and ||u'||
  terms read from a `fields.trajectory_norms` table, and from the same
  A u_n the dissipation inequality each backward-Euler step enforces up to
  its weighted linear residual r_n,

      alpha (||u_n||^2 - ||u_{n-1}||^2) / (2 dt) + (1-omega) <A u_n, u_n>
      <= <F_n, u_n> + r_n ||u_n|| / dt;

* `check_regularity_budget`: the empirical stability ratio

      (||u||_{L2 H3}^2 + ||u||_{Linf H2}^2 + ||u'||_{L2 H1}^2
         + ||u'||_{Linf L2}^2)
      / (||A u0||^2 + ||F(0)||^2 + ||F||_{L2 H1}^2 + ||F'||_{L2 H-1}^2),

  whose boundedness under grid refinement is the computable shadow of the
  parabolic regularity constant.  Its numerator is the velocity budget of
  a `fields.trajectory_norms` table, the sum fixed-point membership caps.

Time integrals use the right-endpoint rule matching backward Euler; sups
run over all time nodes including t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LinearSolveError
from .fields import (ScalarField, SymTensorField, VectorField,
                     conjugate_gradient, grad_tensor, inner, norm,
                     norm_hminus1, viscous_operator, viscous_preconditioner)

__all__ = ["VelocityStepReport", "step_velocity", "run_velocity",
           "EnergyBudgetReport", "check_energy_budget",
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
    """Discrete energy inequality for a velocity trajectory, with the
    one-step dissipation inequality of each of its steps."""

    lhs: float
    rhs: float
    slack: float                 # rhs (1 + 10 dt) - lhs, >= 0 when satisfied
    satisfied: bool
    forcing_integral: float      # sum dt ||F||^2
    dissipation_slack: tuple     # per step, rhs - lhs of its inequality
    dissipation_satisfied: bool  # every step's inequality holds
    lhs_history: np.ndarray = field(repr=False)
    rhs_history: np.ndarray = field(repr=False)


def check_energy_budget(table, us, Fs, params,
                        residual_norms) -> EnergyBudgetReport:
    """Evaluate both sides of the trajectory energy inequality and the
    dissipation inequality of every step, taking each node's gradient and
    A u once.

    table: the `trajectory_norms` table of the trajectory, which supplies dt
    and the L2 norms of each velocity node and rate; us: fields at t_0 ..
    t_N; Fs: forcing with Fs[0] = F(0) (unused here beyond index alignment)
    and Fs[n] the right side applied in step n; residual_norms[n-1]: the
    weighted linear residual of step n.
    """
    if not len(Fs) == len(us) == len(table.w):
        raise ValueError("need one forcing sample per time node")
    if len(residual_norms) != len(us) - 1:
        raise ValueError("need one residual norm per step")
    om = params.omega
    dt = table.dt
    # squared on Python floats to match `norm(...) ** 2` to the bit
    u_l2 = table.w[:, 0].tolist()
    rate_l2 = table.w_rate[:, 0].tolist()

    def strain_pieces(u):
        g = grad_tensor(u)
        D = SymTensorField.from_full(u.grid, g, symmetrize=True)
        div = g[0, 0]  # the diagonal summed in `divergence`'s order
        for ax in range(1, u.grid.dim):
            div = div + g[ax, ax]
        return norm(D, 0) ** 2, norm(ScalarField(u.grid, div), 0) ** 2

    sup_d, sup_c = strain_pieces(us[0])
    initial_strain = 4.0 * (1.0 - om) * sup_d
    rate_int = visc_int = forcing_int = 0.0
    lhs_hist = [(1.0 - om) * (sup_d + sup_c)]
    rhs_hist = [initial_strain]
    diss_slack = []
    diss_ok = True
    for n in range(1, len(us)):
        Au = viscous_operator(us[n])
        rate_int += dt * rate_l2[n - 1] ** 2
        visc_int += dt * norm(Au, 0) ** 2
        forcing_int += dt * norm(Fs[n], 0) ** 2
        dn, cn = strain_pieces(us[n])
        sup_d, sup_c = max(sup_d, dn), max(sup_c, cn)
        lhs_hist.append(0.5 * params.alpha * rate_int
                        + 0.5 * (1.0 - om) ** 2 * visc_int
                        + (1.0 - om) * (sup_d + sup_c))
        rhs_hist.append(initial_strain + forcing_int)

        u1sq = u_l2[n] ** 2
        step_lhs = (params.alpha * (u1sq - u_l2[n - 1] ** 2) / (2.0 * dt)
                    + (1.0 - om) * inner(Au, us[n]))
        step_rhs = (inner(Fs[n], us[n])
                    + residual_norms[n - 1] * np.sqrt(u1sq) / dt)
        diss_slack.append(step_rhs - step_lhs)
        scale = max(1.0, abs(step_lhs), abs(step_rhs))
        diss_ok = diss_ok and bool(step_lhs <= step_rhs + 1e-11 * scale)

    lhs, rhs = lhs_hist[-1], rhs_hist[-1]
    return EnergyBudgetReport(
        lhs=lhs, rhs=rhs, slack=rhs * (1.0 + 10.0 * dt) - lhs,
        satisfied=bool(lhs <= rhs * (1.0 + 10.0 * dt) + 1e-14 * (1.0 + rhs)),
        forcing_integral=forcing_int, dissipation_slack=tuple(diss_slack),
        dissipation_satisfied=diss_ok, lhs_history=np.array(lhs_hist),
        rhs_history=np.array(rhs_hist))


@dataclass
class RegularityReport:
    """Empirical parabolic-regularity ratio for a velocity trajectory."""

    lhs: float
    bracket: float
    c1_emp: float
    vacuous: bool
    f_l2h1: float
    fprime_l2hm1: float


def check_regularity_budget(table, u0, Fs) -> RegularityReport:
    """Ratio of trajectory regularity norms to the data bracket.

    The numerator is the `trajectory_norms` table's velocity budget.  Fs[0]
    must be the right side assembled from the initial data u0; the forcing
    rate F' is its per-step finite difference measured in the discrete dual
    norm (one Dirichlet-Laplacian solve per sample).
    """
    if len(Fs) != len(table.w):
        raise ValueError("need one forcing sample per time node")
    dt = table.dt
    f_l2h1 = table.integral(norm(F, 1) ** 2 for F in Fs[1:])
    fprime = table.integral(
        norm_hminus1(VectorField(F.grid, (F.values - prev.values) / dt)) ** 2
        for prev, F in zip(Fs[:-1], Fs[1:]))
    visc0 = norm(viscous_operator(u0), 0)
    f0 = norm(Fs[0], 0)
    lhs = table.velocity_budget
    bracket = visc0 ** 2 + f0 ** 2 + f_l2h1 + fprime
    vacuous = bracket == 0.0
    c1 = float("nan") if vacuous else lhs / bracket
    return RegularityReport(
        lhs=lhs, bracket=bracket, c1_emp=c1, vacuous=vacuous,
        f_l2h1=f_l2h1, fprime_l2hm1=fprime)
