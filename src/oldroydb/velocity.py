"""Backward-Euler integration of the linear velocity subproblem.

The subproblem is alpha u' + (1-omega) A u = F with homogeneous Dirichlet
data and A the viscous operator -(Laplacian + grad div).  Each step solves
the symmetric positive definite system

    (alpha I + dt (1-omega) A_h) u = alpha u_prev + dt F

by preconditioned conjugate gradients (`fields.conjugate_gradient`) on
the interior degrees of freedom, to a true relative residual below
`tol_lin`, starting from a caller's guess or else the previous step.
The shifted operator (`fields.viscous_system`) applies A_h as a stencil,
so no matrix is assembled or held.  The preconditioner
(`fields.viscous_preconditioner`) inverts its diagonal blocks exactly in
the sine basis, which keeps the iteration count flat in n and dt.
`step_velocity` takes one step and holds nothing between steps: the
fixed-point sweep keeps the trajectories it returns, and the `mms` ladders
keep only the current velocity.  The step reads its forcing at interior
nodes only.

Two a-posteriori checks instrument a computed trajectory:

* `check_energy_budget`: the discrete energy inequality

      (alpha/2) int ||u'||^2 + ((1-omega)^2/2) int ||A u||^2
        + (1-omega) sup ||D u||^2 + (1-omega) sup ||div u||^2
      <= 4 (1-omega) ||D u0||^2 + int ||F||^2

  up to a discretization slack (`gates.GATES`), with the ||u|| and ||u'||
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
                     conjugate_gradient, diagonal_sum, grad_tensor, inner,
                     norm, norm_hminus1, viscous_operator,
                     viscous_preconditioner, viscous_system)
from .gates import GATES

__all__ = ["VelocityStepReport", "step_velocity", "EnergyBudgetReport",
           "check_energy_budget", "RegularityReport",
           "check_regularity_budget"]

TOL_LIN = 1e-10  # default relative residual of a velocity solve


@dataclass
class VelocityStepReport:
    """Diagnostics for one backward-Euler velocity step."""

    iterations: int
    residual: float        # relative linear residual ||b - M u|| / ||b||
    residual_norm: float   # weighted absolute residual, for the dissipation slack


def step_velocity(u_prev: VectorField, F_rhs: VectorField, dt: float, params,
                  tol_lin: float = TOL_LIN, max_iter: int = 20000,
                  guess: VectorField = None) -> tuple:
    """One backward-Euler step of alpha u' + (1-omega) A u = F.

    Solves (alpha I + dt (1-omega) A_h) u = alpha u_prev + dt F by
    preconditioned CG over interior nodes, warm-started from ``guess``
    (u_prev when None); boundary values stay exactly zero.  The start moves
    the answer only within the tolerance: a guess near the solution, such
    as the previous iterate of a fixed-point loop, saves iterations.
    Raises LinearSolveError if the true relative residual is above tol_lin
    after at most max_iter iterations.
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
        system = viscous_system(grid, alpha, coef)
        x, iters, _ = conjugate_gradient(
            system, viscous_preconditioner(grid, alpha, coef), b,
            (u_prev if guess is None else guess).values[interior].flatten(),
            tol_lin, max_iter)
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
        iterations=iters, residual=rel_res, residual_norm=res_weighted)
    return u, report


@dataclass
class EnergyBudgetReport:
    """Discrete energy inequality for a velocity trajectory, with the
    one-step dissipation inequality of each of its steps."""

    lhs: float
    rhs: float
    slack: float                 # rhs (1 + c dt) - lhs, >= 0 when satisfied
    satisfied: bool
    dissipation_slack: tuple     # per step, rhs - lhs of its inequality
    dissipation_satisfied: bool  # every step's inequality holds
    lhs_history: np.ndarray = field(repr=False)
    rhs_history: np.ndarray = field(repr=False)
    slack_history: np.ndarray = field(repr=False)  # `slack` at every node


def check_energy_budget(table, us, Fs, params,
                        residual_norms) -> EnergyBudgetReport:
    """Evaluate both sides of the trajectory energy inequality and the
    dissipation inequality of every step, taking each node's gradient and
    A u once; both read their bounds from `gates.GATES`.

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
    slack_rate, round_off = GATES["energy_budget"]
    allowance = GATES["step_dissipation"]
    # squared on Python floats to match `norm(...) ** 2` to the bit
    u_l2 = table.w[:, 0].tolist()
    rate_l2 = table.w_rate[:, 0].tolist()

    def strain_pieces(u):
        g = grad_tensor(u)
        D = SymTensorField.from_full(u.grid, g)
        div = diagonal_sum(g[ax, ax] for ax in range(u.grid.dim))
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
        diss_ok = diss_ok and bool(step_lhs <= step_rhs + allowance * scale)

    lhs, rhs = lhs_hist[-1], rhs_hist[-1]
    allowed = np.array(rhs_hist) * (1.0 + slack_rate * dt)
    slack = allowed - np.array(lhs_hist)
    return EnergyBudgetReport(
        lhs=lhs, rhs=rhs, slack=float(slack[-1]),
        satisfied=bool(lhs <= allowed[-1] + round_off * (1.0 + rhs)),
        dissipation_slack=tuple(diss_slack),
        dissipation_satisfied=diss_ok, lhs_history=np.array(lhs_hist),
        rhs_history=np.array(rhs_hist), slack_history=slack)


@dataclass
class RegularityReport:
    """Empirical parabolic-regularity ratio for a velocity trajectory."""

    c1_emp: float    # velocity budget / data bracket, NaN when vacuous
    vacuous: bool    # the data bracket is zero


def check_regularity_budget(table, Au0, Fs) -> RegularityReport:
    """Ratio of trajectory regularity norms to the data bracket.

    The numerator is the `trajectory_norms` table's velocity budget, the
    bracket ||A u0||^2 + ||F(0)||^2 + ||F||_{L2 H1}^2 + ||F'||_{L2 H-1}^2.
    Au0 is A u0 and Fs[0] the right side assembled from the initial data;
    the forcing rate F' is its per-step finite difference measured in the
    discrete dual norm (one Dirichlet-Laplacian solve per sample).
    """
    if len(Fs) != len(table.w):
        raise ValueError("need one forcing sample per time node")
    dt = table.dt
    f_l2h1 = table.integral(norm(F, 1) ** 2 for F in Fs[1:])
    fprime = table.integral(
        norm_hminus1(VectorField(F.grid, (F.values - prev.values) / dt)) ** 2
        for prev, F in zip(Fs[:-1], Fs[1:]))
    bracket = norm(Au0, 0) ** 2 + norm(Fs[0], 0) ** 2 + f_l2h1 + fprime
    vacuous = bracket == 0.0
    c1 = float("nan") if vacuous else table.velocity_budget / bracket
    return RegularityReport(c1_emp=c1, vacuous=vacuous)
