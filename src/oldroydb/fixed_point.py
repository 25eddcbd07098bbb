"""Whole-window successive substitution for the coupled system.

One sweep freezes the current guess trajectory (velocity, density remainder,
elastic stress), assembles the full momentum forcing from it, and re-solves
the three linear subproblems over the window. The sweep is repeated until
consecutive trajectories agree in a weighted sup-in-time L2 metric. A
sweep solves the three subproblems side by side (block Jacobi): that is
the paper's map, and its sweeps are the contraction evidence. The same
fixed point can also be reached one step at a time (`march`), sweeping
each one-step window in block Gauss-Seidel order, which contracts faster,
and then certified by one Jacobi sweep. Gauss-Seidel solves; Jacobi
certifies. From its second sweep on, `iterate` starts each velocity solve
from the input velocity (a warm start, which moves the output only
within the linear tolerance); its first sweep, the audit sweep and the
probe's sweeps start cold. A sweep computes and holds only what its
readers use: the velocity step reads the forcing at interior nodes, so a
sweep takes A w there by the stencil CG applies (`viscous_interior`) and
keeps no forcing; the whole-grid forcings the energy and regularity
checks read are assembled once, by the audit. Around the loop sit the
admissible-set membership check (norm budgets summed from one
`trajectory_norms` table per sweep, which takes node 0's norms from the
first sweep's table, plus the density band), the audit of a converged
window by one more sweep (`audit_window`, whose table reuses the
solution's node-0 rows), a continuity probe that perturbs the input
trajectory and watches the output gap shrink linearly, and a two-solution
energy experiment that fits the growth constant of the Gronwall envelope.

Budgets and the Gronwall constant are empirical: the analysis guarantees
their existence but not their size. The budgets are sized from the initial
data each run; the Gronwall constant is fitted on one run and may be held
on another.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, DensityBandError, LinearSolveError,
                     NonConvergenceError, NonDirichletError,
                     SingularStressSystemError)
from .fields import (ScalarField, SymTensorField, TrajectoryNorms,
                     VectorField, div_tensor, grad_tensor, gradient, mean,
                     norm, strain, trajectory_norms, viscous_interior,
                     viscous_operator)
from .gates import GATES
from .rheology import momentum_source
from .transport import (DensityBoundReport, StressBoundReport,
                        check_density_bounds, check_stress_bounds,
                        step_density, step_stress, trace)
from .velocity import (TOL_LIN, EnergyBudgetReport, RegularityReport,
                       check_energy_budget, check_regularity_budget,
                       step_velocity)

__all__ = [
    "ConvergenceHistory",
    "IterTriple",
    "MembershipReport",
    "ProbeReport",
    "SweepDiagnostics",
    "SystemResidual",
    "UniquenessReport",
    "WindowAudit",
    "assemble_forcing",
    "audit_window",
    "check_membership",
    "continuity_probe",
    "delta_threshold",
    "iterate",
    "march",
    "picard_sweep",
    "suggest_budgets",
    "trajectory_distance",
    "uniqueness_experiment",
]

TOL_FP = 1e-8   # default fixed-point distance between consecutive sweeps
MAX_ITER = 20   # default sweeps of `iterate`, and of each `march` step


@dataclass(frozen=True)
class IterTriple:
    """Guess (or solution) trajectories on a shared uniform time ladder.

    Entry k of each tuple sits at time k*dt; the three components are the
    velocity (Dirichlet), the density remainder and the elastic stress.
    """

    w: tuple
    pi: tuple
    psi: tuple
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "pi", tuple(self.pi))
        object.__setattr__(self, "psi", tuple(self.psi))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        npts = len(self.w)
        if npts < 2:
            raise ValueError("need at least one timestep")
        if len(self.pi) != npts or len(self.psi) != npts:
            raise ValueError("component trajectories differ in length")
        grid = self.w[0].grid
        for v in self.w:
            if v.grid != grid:
                raise ValueError("velocity trajectory mixes grids")
            if not v.dirichlet:
                raise ValueError("velocity guesses must carry zero-trace "
                                 "boundary values at every step")
        for s in self.pi:
            if s.grid != grid:
                raise ValueError("density trajectory mixes grids")
        for t in self.psi:
            if t.grid != grid:
                raise ValueError("stress trajectory mixes grids")

    @property
    def grid(self):
        return self.w[0].grid

    @property
    def nsteps(self):
        return len(self.w) - 1

    @property
    def T(self):
        return self.nsteps * self.dt

    @property
    def times(self):
        return tuple(k * self.dt for k in range(len(self.w)))

    @classmethod
    def constant(cls, u0, sigma0, tau0, nsteps, dt):
        """Hold the initial data fixed in time: the default starting guess."""
        n = nsteps + 1
        return cls((u0,) * n, (sigma0,) * n, (tau0,) * n, dt)


def _node_gaps(a: IterTriple, b: IterTriple) -> tuple:
    """L2 gaps of the velocity, density and stress at every node. A sweep
    passes node 0 through, so a component holding the same node-0 object in
    both trajectories has gap exactly 0 there and is measured from node 1."""
    def gaps(xs, ys):
        start = 1 if xs[0] is ys[0] else 0
        return [0.0] * start + [norm(x - y, 0)
                                for x, y in zip(xs[start:], ys[start:])]
    return gaps(a.w, b.w), gaps(a.pi, b.pi), gaps(a.psi, b.psi)


def _gap_energies(a: IterTriple, b: IterTriple, params) -> list:
    """Weighted L2 gap at every node: the two-solution energy

    alpha |du|^2 + (eps^2 / alpha) |dpi|^2 + (We / 2 omega) |dpsi|^2.
    """
    return [params.alpha * du ** 2 + (params.eps ** 2 / params.alpha) * dp ** 2
            + (params.We / (2.0 * params.omega)) * ds ** 2
            for du, dp, ds in zip(*_node_gaps(a, b))]


def trajectory_distance(a: IterTriple, b: IterTriple, params) -> float:
    """Sup-in-time weighted L2 distance between trajectories.

    Each time node is collapsed with the gap-energy weights (the
    combination the two-solution experiment integrates), which balances the
    velocity-to-density gain against its eps^2-weaker converse in one
    number, NaN if a node is NaN. A sweep alternates between the velocity
    and the transport blocks, so the distances of consecutive sweeps can
    alternate, and on fine grids (n >= 64) a single sweep's ratio can
    exceed 1 while two sweeps together still contract.
    """
    if a.nsteps != b.nsteps or a.dt != b.dt:
        raise ValueError("trajectories live on different time ladders")
    return math.sqrt(np.max(_gap_energies(a, b, params)))


def assemble_forcing(w: VectorField, grad_w: np.ndarray, Aw: VectorField,
                     pi: ScalarField, psi: SymTensorField,
                     params) -> VectorField:
    """Full momentum right-hand side for one frozen guess.

    Density-weighted remainder terms from the momentum source, minus the
    guess self-transport, minus the density push, plus the stress divergence.
    `grad_w` is `grad_tensor(w)`, in a sweep from the step's characteristic
    map; grad pi is taken here. `Aw` is A w: `viscous_operator(w)` gives
    the whole-grid forcing the audit reads, and `viscous_interior(w)`, as
    in a sweep, gives the same interior rows (all a velocity step reads) to
    the bit, with its boundary rows not meaningful.
    """
    gp = gradient(pi)
    base = momentum_source(Aw, pi, gp, params)
    adv = np.einsum("j...,ij...->i...", w.values, grad_w)
    vals = (base.values - params.alpha * adv - gp.values
            + div_tensor(psi).values)
    return VectorField(w.grid, vals)


@dataclass(frozen=True)
class SweepDiagnostics:
    """Per-step reports of one sweep, in ledger order: entry k belongs to
    step k+1. No forcing is kept; `audit_window` assembles the whole-grid
    forcings it reads."""

    velocity_reports: tuple
    density_reports: tuple
    stress_reports: tuple


# failures of one step of the window map, labelled with that step
_STEP_FAILURES = (DensityBandError, LinearSolveError, NonDirichletError,
                  SingularStressSystemError)


def picard_sweep(inp: IterTriple, params, tol_lin: float = TOL_LIN,
                 seidel: bool = False, warm: bool = False) -> tuple:
    """One application of the frozen-coefficient map, with diagnostics.

    Coefficients for step k are frozen at the arrival node k+1 of the input
    trajectory. Each step first traces that node's velocity, then advances
    the density and the stress with the trace's map, then assembles the
    forcing and solves for the velocity. The trace takes the frozen
    velocity's gradient once; the density's div w, the stress's D and
    coupling, and the forcing's transport term all read it. The velocity
    step reads the forcing at interior nodes only, so its A w is
    `viscous_interior`, the stencil CG applies, with zero boundary rows;
    `viscous_operator`'s whole-grid composition is never taken. No step
    reads the forcing at node 0, so none is assembled there, and no
    forcing outlives its step. Initial data pass through exactly.
    Solver failures gain a ``timestep`` attribute before propagating.

    By default the forcing reads the input's density and stress at node
    k+1 and the velocity CG starts from the previous output velocity: the
    three subproblems are solved side by side (block Jacobi), which is the
    paper's map and what `iterate` and the audit apply. With ``seidel`` the
    forcing reads the density and stress this step just produced, and CG
    starts from the input velocity at node k+1 (block Gauss-Seidel). Both
    orderings share their fixed points; `march` settles steps with the
    second, which contracts faster.

    ``warm`` starts a Jacobi sweep's CG from the input velocity at node k+1
    too; the forcing still reads the input (Jacobi). The start moves the
    output only within ``tol_lin`` and saves iterations once the input is
    near the fixed point, so `iterate` warms its sweeps from the second
    on. A sweep that measures a given trajectory (the first of `iterate`,
    which certifies a march, the audit and the probe) stays cold, so its
    velocity reports count the iterations of a solve from the previous
    step.
    """
    u, sg, tau = inp.w[0], inp.pi[0], inp.psi[0]
    us, sgs, taus = [u], [sg], [tau]
    vreps, dreps, sreps = [], [], []
    for k in range(inp.nsteps):
        wk = inp.w[k + 1]
        try:
            cm = trace(wk, inp.dt)
            sg, dr = step_density(sg, cm, params)
            tau, sr = step_stress(tau, cm, params)
            pk, qk = (sg, tau) if seidel else (inp.pi[k + 1], inp.psi[k + 1])
            Fk = assemble_forcing(wk, cm.grad_w, viscous_interior(wk), pk,
                                  qk, params)
            u, vr = step_velocity(u, Fk, inp.dt, params, tol_lin=tol_lin,
                                  guess=wk if seidel or warm else None)
        except _STEP_FAILURES as exc:
            exc.timestep = k + 1
            raise
        us.append(u)
        sgs.append(sg)
        taus.append(tau)
        vreps.append(vr)
        dreps.append(dr)
        sreps.append(sr)
    out = IterTriple(us, sgs, taus, inp.dt)
    diag = SweepDiagnostics(tuple(vreps), tuple(dreps), tuple(sreps))
    return out, diag


@dataclass(frozen=True)
class MembershipReport:
    """Usage of the admissible-set norm budgets, itemized."""

    b1: float
    b2: float
    velocity_budget: float
    data_budget: float
    rate_budget: float
    density_min: float
    density_max: float
    band_lo: float
    band_hi: float
    violations: tuple
    slack_min: float
    passed: bool
    table: TrajectoryNorms = field(repr=False, compare=False)


def check_membership(candidate: IterTriple, b1: float, b2: float,
                     params, first_rows: tuple = None) -> MembershipReport:
    """Evaluate the norm-budget and band inequalities; never raises.

    Every term comes from one `trajectory_norms` table, kept as `table`:
    velocity usage is its `velocity_budget`, data usage is sup-t H2 of
    density plus stress, rate usage is sup-t H1 of their rates.  The
    table reuses ``first_rows``, node 0's rows of an earlier candidate
    with the same node 0, when given.  The checks fail closed: a NaN usage
    violates its budget, and a NaN density node makes the density range,
    the band check and `slack_min` NaN.
    """
    if b1 <= 0.0 or b2 <= 0.0:
        raise ValueError("budgets must be positive")
    table = trajectory_norms(candidate.w, candidate.pi, candidate.psi,
                             candidate.dt, first_rows=first_rows)
    w_used = table.velocity_budget
    data_used = float(table.pi[:, 2].max() + table.psi[:, 2].max())
    rate_used = float(table.pi_rate[:, 1].max() + table.psi_rate[:, 1].max())

    lo, hi = params.band
    rhos = [params.total_density(p.values) for p in candidate.pi]
    rho_min = float(np.min([r.min() for r in rhos]))
    rho_max = float(np.max([r.max() for r in rhos]))

    items = [("velocity budget", w_used, b1),
             ("data budget", data_used, b1),
             ("rate budget", rate_used, b2)]
    violations = [name for name, used, cap in items if not used <= cap]
    slacks = [1.0 - used / cap for name, used, cap in items]
    slacks.append(np.min([rho_min - lo, hi - rho_max]) / (hi - lo))
    if not (lo <= rho_min and rho_max <= hi):  # NaN fails too
        violations.append("density band")
    return MembershipReport(
        b1=b1, b2=b2, velocity_budget=w_used, data_budget=data_used,
        rate_budget=rate_used, density_min=rho_min, density_max=rho_max,
        band_lo=lo, band_hi=hi, violations=tuple(violations),
        slack_min=float(np.min(slacks)), passed=not violations, table=table)


def suggest_budgets(u0: VectorField, sigma0: ScalarField,
                    tau0: SymTensorField, params) -> tuple:
    """Size the norm budgets from the initial data.

    The first budget covers the largest of the squared viscous load of the
    initial velocity and the H2 norms of the density and stress data; the
    second follows the relaxation-weighted structure of the stress-rate
    bound. Both carry the empirical, not theoretical, margin of `gates.GATES`.
    """
    margin = GATES["membership"]
    visc0 = norm(viscous_operator(u0), 0) ** 2
    s2, t2 = norm(sigma0, 2), norm(tau0, 2)
    base1 = max(visc0, s2, t2)
    b1 = margin * base1 if base1 > 0.0 else 1.0
    relax = 2.0 * params.omega / params.We
    b2 = margin * math.exp(math.sqrt(2.0)) * (
        (s2 + t2 + 1.0 + relax) + (t2 + relax) / params.We)
    return b1, b2


@dataclass(frozen=True)
class ConvergenceHistory:
    """Distances and membership slack per sweep.

    ``local_sweeps`` is empty from `iterate`; from `march` it holds the
    local sweeps of each step, which the other fields do not count.
    """

    distances: tuple
    slack_mins: tuple
    membership: MembershipReport
    local_sweeps: tuple = ()

    @property
    def iterations(self):
        return len(self.distances)

    @property
    def ratios(self):
        # d_k / d_{k-1}, NaN at the first sweep and after a zero distance
        d = (math.nan,) + self.distances
        return tuple(b / a if a > 0.0 else math.nan for a, b in zip(d, d[1:]))


def _check_hypotheses(u0: VectorField, sigma0: ScalarField,
                      tau0: SymTensorField, params, T: float,
                      dt: float) -> int:
    """The discrete solvability hypotheses on the data and the window:
    finite data, zero-trace velocity, mean-zero density remainder, total
    density inside the strict band, a whole number of steps. Returns that
    number. Each test is written to fail on NaN."""
    for name, f in (("velocity u0", u0), ("density remainder sigma0", sigma0),
                    ("stress tau0", tau0)):
        if not np.isfinite(f.values).all():
            raise ConfigError(f"initial {name} has a non-finite value")
    if not u0.dirichlet:
        raise ConfigError("initial velocity must vanish on the boundary")
    scale = max(1.0, norm(sigma0, 0))
    drift = abs(mean(sigma0))
    if not drift <= 1e-11 * scale:
        raise ConfigError("initial density remainder must have zero mean; "
                          f"its mean is {drift:.3e}")
    rho0 = params.total_density(sigma0.values)
    if not (params.m1 <= rho0.min() and rho0.max() <= params.M1):
        raise ConfigError(
            f"initial total density range [{rho0.min():.6g}, "
            f"{rho0.max():.6g}] leaves the strict band "
            f"[{params.m1:.6g}, {params.M1:.6g}]")
    if not (0.0 < T < np.inf and 0.0 < dt):
        raise ConfigError("window length and step must be positive")
    nsteps = int(round(T / dt))
    if nsteps < 1 or not abs(nsteps * dt - T) <= 1e-9 * T:
        raise ConfigError("window length must be a whole number of steps")
    return nsteps


def iterate(u0: VectorField, sigma0: ScalarField, tau0: SymTensorField,
            params, T: float, dt: float, tol_fp: float = TOL_FP,
            max_iter: int = MAX_ITER, tol_lin: float = TOL_LIN,
            initial_guess: IterTriple = None) -> tuple:
    """Run sweeps until consecutive trajectories agree to tol_fp.

    Checks the discrete solvability hypotheses first (zero-trace velocity,
    mean-zero density remainder, total density inside the strict band).
    Membership is checked against `suggest_budgets` of the initial data,
    and ``hist.membership.table`` holds the returned solution's norms.
    Sweeps from the second on start their velocity solves warm
    (`picard_sweep`), and node 0's norms, which every sweep passes through
    unchanged, are taken once. Raises NonConvergenceError with the distance
    history when max_iter sweeps do not contract below tolerance or a
    distance is not finite.
    A step failure inside a sweep gains ``failed_sweep``, that sweep's
    number, and ``history``, the distances of the sweeps before it.
    """
    nsteps = _check_hypotheses(u0, sigma0, tau0, params, T, dt)

    b1, b2 = suggest_budgets(u0, sigma0, tau0, params)

    if initial_guess is None:
        x = IterTriple.constant(u0, sigma0, tau0, nsteps, dt)
    else:
        x = initial_guess
        if x.nsteps != nsteps or x.dt != dt:
            raise ConfigError("initial guess ladder does not match T/dt")
        pinned = (np.array_equal(x.w[0].values, u0.values)
                  and np.array_equal(x.pi[0].values, sigma0.values)
                  and np.array_equal(x.psi[0].values, tau0.values))
        if not pinned:
            raise ConfigError("initial guess must start from the given data")

    dists, slacks = [], []
    first_rows = None  # node 0 passes through every sweep: norm it once
    for k in range(1, max_iter + 1):
        try:
            y = picard_sweep(x, params, tol_lin=tol_lin, warm=k > 1)[0]
        except _STEP_FAILURES as exc:
            exc.failed_sweep, exc.history = k, tuple(dists)
            raise
        d = trajectory_distance(y, x, params)
        mem = check_membership(y, b1, b2, params, first_rows=first_rows)
        first_rows = mem.table.first_rows
        dists.append(d)
        slacks.append(mem.slack_min)
        if d <= tol_fp:
            return y, ConvergenceHistory(tuple(dists), tuple(slacks), mem)
        if not math.isfinite(d):
            break
        x = y
    raise NonConvergenceError(
        f"no fixed point after {len(dists)} sweeps (last distance "
        f"{dists[-1]:.3e}); try a shorter window T or smaller data",
        history=tuple(dists))


def march(u0: VectorField, sigma0: ScalarField, tau0: SymTensorField,
          params, T: float, dt: float, tol_fp: float = TOL_FP,
          max_iter: int = MAX_ITER, tol_lin: float = TOL_LIN) -> tuple:
    """Reach the window's fixed point step by step; return (sol, hist).

    Step k of the map reads only input node k+1 and output node k. So once
    nodes 0..k are settled, node k+1 is the fixed point of the one-step
    window starting at node k: `picard_sweep` is iterated on that window
    until its distance falls to 0.1 tol_fp, and its last output becomes
    node k+1. This is waveform relaxation with a one-step window. Inside a
    window it sweeps in Gauss-Seidel order (``seidel=True``): the forcing
    reads the step's fresh density and stress, whose outputs depend only on
    the frozen velocity, so the step's 2-cyclic block system contracts at
    about the square of the Jacobi rate, and the velocity solve starts from
    the last iterate. Step 1 starts from "node 0 held", each later step
    from the linear extrapolation 2 node_k - node_{k-1}.

    Gauss-Seidel solves; Jacobi certifies. `iterate`, started from the
    marched trajectory, applies the paper's map to it: its first sweep
    measures the distance and membership. ``hist.local_sweeps`` holds the
    number of local sweeps of each step; ``hist.iterations`` counts the
    certifying sweeps apart from them.

    Checks the same hypotheses as `iterate`. Raises NonConvergenceError
    with the local distance history when a step takes more than max_iter
    sweeps or a distance is not finite; that error and solver failures
    carry the global ``timestep``.
    """
    nsteps = _check_hypotheses(u0, sigma0, tau0, params, T, dt)
    nodes = [(u0, sigma0, tau0)]  # settled (w, pi, psi) at each node
    counts = []
    for k in range(nsteps):
        guess = nodes[k] if k == 0 else [
            2.0 * cur - prev for cur, prev in zip(nodes[k], nodes[k - 1])]
        x = IterTriple(*zip(nodes[k], guess), dt)
        dists = []
        for _ in range(max_iter):
            try:
                y = picard_sweep(x, params, tol_lin=tol_lin, seidel=True)[0]
            except _STEP_FAILURES as exc:
                exc.timestep = k + 1
                raise
            dists.append(trajectory_distance(y, x, params))
            x = y
            if dists[-1] <= 0.1 * tol_fp or not math.isfinite(dists[-1]):
                break
        if not dists[-1] <= 0.1 * tol_fp:
            exc = NonConvergenceError(
                f"step {k + 1} found no fixed point after {len(dists)} "
                f"sweeps (last distance {dists[-1]:.3e}); try a smaller dt "
                "or smaller data", history=tuple(dists))
            exc.timestep = k + 1
            raise exc
        nodes.append((x.w[1], x.pi[1], x.psi[1]))
        counts.append(len(dists))
    sol, hist = iterate(u0, sigma0, tau0, params, T, dt, tol_fp=tol_fp,
                        max_iter=max_iter, tol_lin=tol_lin,
                        initial_guess=IterTriple(*zip(*nodes), dt))
    return sol, replace(hist, local_sweeps=tuple(counts))


@dataclass(frozen=True)
class SystemResidual:
    """Sup-in-time L2 defect of a trajectory under one more sweep."""

    velocity: float
    density: float
    stress: float

    @property
    def worst(self):
        return np.max((self.velocity, self.density, self.stress))


@dataclass(frozen=True)
class WindowAudit:
    """Every post-run estimate of a converged window: ``out`` and ``diag``
    come from one more sweep, and every report reads ``table``, the norm
    table of ``out``."""

    out: IterTriple
    diag: SweepDiagnostics
    table: TrajectoryNorms
    residual: SystemResidual
    energy: EnergyBudgetReport
    regularity: RegularityReport
    density: DensityBoundReport
    stress: StressBoundReport


def audit_window(sol: IterTriple, params, tol_lin: float = TOL_LIN,
                 first_rows: tuple = None) -> WindowAudit:
    """Plug a converged trajectory into one more sweep and check that
    sweep against the energy, dissipation, regularity and transport
    estimates. Its gap to ``sol`` is the residual; its per-step reports
    describe exactly the linear problems ``sol`` solves. The energy and
    regularity checks read whole-grid forcings, which the sweep does not
    keep: F(t_k) is assembled here from node k of ``sol``, the node step k
    of the sweep freezes, with `grad_tensor` and `viscous_operator`, so its
    interior rows are the sweep's to the bit. F(0), which no step reads,
    and the regularity bracket share one A u0. The norm table of ``out``
    reuses ``first_rows``, node 0's rows from the table of ``sol``
    (`TrajectoryNorms.first_rows`), when given: the sweep passes node 0
    through unchanged.
    """
    out, diag = picard_sweep(sol, params, tol_lin=tol_lin)
    Au0 = viscous_operator(sol.w[0])
    forcings = tuple(
        assemble_forcing(w, grad_tensor(w),
                         Au0 if k == 0 else viscous_operator(w), p, q, params)
        for k, (w, p, q) in enumerate(zip(sol.w, sol.pi, sol.psi)))
    table = trajectory_norms(out.w, out.pi, out.psi, out.dt,
                             first_rows=first_rows)
    residual_norms = [r.residual_norm for r in diag.velocity_reports]
    return WindowAudit(
        out=out, diag=diag, table=table,
        residual=SystemResidual(*map(np.max, _node_gaps(out, sol))),
        energy=check_energy_budget(table, out.w, forcings, params,
                                   residual_norms),
        regularity=check_regularity_budget(table, Au0, forcings),
        density=check_density_bounds(table, params),
        stress=check_stress_bounds(table, params))


def _probe_shapes(grid):
    # fixed smooth perturbation directions, normalized to unit amplitude
    bump = np.ones(grid.node_shape)
    for ax, x in enumerate(grid.coords):
        bump = bump * np.sin(np.pi * x / grid.extent[ax]) ** 2
    vec = np.empty((grid.dim,) + grid.node_shape)
    for i in range(grid.dim):
        x = grid.coords[(i + 1) % grid.dim]
        vec[i] = bump * np.cos(2.0 * np.pi * x / grid.extent[(i + 1)
                                                             % grid.dim])
    vec[:, grid.boundary_mask] = 0.0
    vec /= np.abs(vec).max()
    vshape = VectorField(grid, vec, dirichlet=True)

    scal = np.ones(grid.node_shape)
    for ax, x in enumerate(grid.coords):
        scal = scal * np.cos(2.0 * np.pi * x / grid.extent[ax])
    sshape = ScalarField(grid, scal / np.abs(scal).max())

    d = strain(vshape).values
    tshape = SymTensorField(grid, d / np.abs(d).max())
    return vshape, sshape, tshape


def _perturb(base: IterTriple, scale: float, shapes, components: str):
    vshape, sshape, tshape = shapes
    nsteps = base.nsteps
    ws, pis, psis = list(base.w), list(base.pi), list(base.psi)
    for k in range(len(ws)):
        ramp = scale * k / nsteps  # vanishes at t = 0, keeps data pinned
        if "w" in components:
            ws[k] = ws[k] + vshape * ramp
        if "p" in components:
            pis[k] = pis[k] + sshape * ramp
        if "s" in components:
            psis[k] = psis[k] + tshape * ramp
    return IterTriple(ws, pis, psis, base.dt)


@dataclass(frozen=True)
class ProbeReport:
    """Output gaps under input perturbations of shrinking amplitude."""

    delta: float
    deltas: tuple
    velocity_gaps: tuple
    density_gaps: tuple
    stress_gaps: tuple
    gaps: tuple
    shrink_ratios: tuple
    linear_ok: bool


def continuity_probe(base: IterTriple, delta: float, params,
                     components: str = "wps",
                     tol_lin: float = TOL_LIN) -> ProbeReport:
    """Perturb the input trajectory at amplitudes delta > 0, delta/2, delta/4.

    The perturbation is a fixed smooth shape times a linear time ramp (so
    initial data stay pinned); the report records the sup-in-time L2 output
    gaps and whether they shrink linearly, within `gates.GATES`' factor, as
    the amplitude halves. ``components`` selects which of w/p/s move.
    """
    if not delta > 0.0:
        raise ValueError("perturbation amplitude must be positive")
    if not components or set(components) - set("wps"):
        raise ValueError("components must be a nonempty subset of 'wps'")
    shapes = _probe_shapes(base.grid)
    ref = picard_sweep(base, params, tol_lin=tol_lin)[0]
    scales = (delta, delta / 2.0, delta / 4.0)
    rows = []  # sup-in-time gap of each component, then of all three
    for s in scales:
        out = picard_sweep(_perturb(base, s, shapes, components), params,
                           tol_lin=tol_lin)[0]
        sups = [np.max(g) for g in _node_gaps(out, ref)]
        rows.append(sups + [np.max(sups)])
    gv, gp, gs, gtot = zip(*rows)
    shrink = tuple(gtot[i] / gtot[i + 1] if gtot[i + 1] > 0.0
                   else float("inf") for i in range(len(gtot) - 1))
    band = GATES["probe_linearity"]
    linear_ok = all(2.0 / band <= r <= 2.0 * band for r in shrink)
    return ProbeReport(
        delta=delta, deltas=scales, velocity_gaps=gv, density_gaps=gp,
        stress_gaps=gs, gaps=gtot, shrink_ratios=shrink, linear_ok=linear_ok)


def delta_threshold(params) -> float:
    """Largest splitting weight keeping both dissipation coefficients
    positive in the two-solution energy inequality."""
    a, om, we, eps = params.alpha, params.omega, params.We, params.eps
    grad_cap = 4.0 * a * om * (1.0 - om) / (10.0 * eps ** 2 * om + a * we)
    div_cap = a * (1.0 - om) / eps ** 2
    return min(grad_cap, div_cap)


@dataclass(frozen=True)
class UniquenessReport:
    """Gap energy of two solutions against its Gronwall envelope."""

    delta: float
    delta_cap: float
    c12: float
    identical: bool
    times: tuple
    gap_energy: tuple
    growth_rate: tuple
    envelope: tuple
    max_ratio: float
    satisfied: bool


def uniqueness_experiment(sol1: IterTriple, table1: TrajectoryNorms,
                          sol2: IterTriple, table2: TrajectoryNorms,
                          delta: float, params, c12: float = None,
                          fp_tol: float = TOL_FP,
                          slack: float = 0.0) -> UniquenessReport:
    """Weighted L2 gap energy of two trajectories vs. exp(2 int rate).

    The growth rate combines low-order norms of both solutions linearly in
    the constant and quadratic high-order norms weighted by 1/(2 delta).
    Those norms are read from ``table1`` and ``table2``, the solutions'
    `trajectory_norms` tables; only the gaps are measured here.
    With c12=None the smallest constant closing the envelope at every step
    is fitted in closed form, so that envelope closes by construction; pass
    a fitted value (plus slack) to hold it on another run. ``max_ratio``
    reads steps k >= 1. Identical initial data switch the check to a flat
    solver-tolerance budget, since the envelope degenerates to zero.
    """
    npts = sol1.nsteps + 1
    if not len(sol2.w) == len(table1.w) == len(table2.w) == npts \
            or sol1.dt != sol2.dt or sol1.grid != sol2.grid:
        raise ValueError("solution trajectories are not comparable")
    cap = delta_threshold(params)
    if not 0.0 < delta < cap:
        raise ConfigError(
            f"splitting weight delta={delta:.6g} must lie in (0, "
            f"{cap:.6g}) to keep the gap dissipation coefficients positive")

    lin = np.empty(npts)  # coefficient of c12 in the rate
    quad = np.empty(npts)  # coefficient of c12**2
    e = np.array(_gap_energies(sol1, sol2, params))
    w1, w2 = table1.w.tolist(), table2.w.tolist()
    s1, s2, t1 = table1.pi.tolist(), table2.pi.tolist(), table1.psi.tolist()
    for k in range(npts):
        lin[k] = w1[k][0] + w2[k][0] + w1[k][3]
        quad[k] = (w1[k][2] ** 3 + s1[k][2] ** 2 + 2.0 * s2[k][2] ** 2
                   + t1[k][2] ** 2) / (2.0 * delta)

    dt = sol1.dt
    cum_lin = np.concatenate([[0.0], np.cumsum(dt * lin[1:])])
    cum_quad = np.concatenate([[0.0], np.cumsum(dt * quad[1:])])

    identical = bool(e[0] == 0.0)
    if identical:
        c = 0.0 if c12 is None else c12
        budget = (GATES["gronwall_envelope"] * fp_tol) ** 2
        envelope = np.full(npts, budget)
        satisfied = bool(np.all(e <= budget))
        max_ratio = float(e.max() / budget)
    else:
        if c12 is None:
            # smallest constant with c*L + c^2*Q >= log(e_k/e_0)/2 for all k
            c = 0.0
            for k in range(1, npts):
                need = 0.5 * math.log(e[k] / e[0]) if e[k] > 0.0 else -1.0
                if need <= 0.0:
                    continue
                sp, sq = cum_lin[k], cum_quad[k]
                if sq > 0.0:
                    root = (-sp + math.sqrt(sp * sp + 4.0 * sq * need)) \
                        / (2.0 * sq)
                elif sp > 0.0:
                    root = need / sp
                else:
                    raise ConfigError("gap grew under identically zero "
                                      "solutions; data are inconsistent")
                c = max(c, root)
        else:
            c = c12
        envelope = e[0] * np.exp(2.0 * (c * cum_lin + c * c * cum_quad))
        max_ratio = float((e[1:] / envelope[1:]).max())
        satisfied = max_ratio <= (1.0 + slack) * (1.0 + 1e-12)

    rate = c * lin + c * c * quad
    return UniquenessReport(
        delta=delta, delta_cap=cap, c12=c, identical=identical,
        times=sol1.times, gap_energy=tuple(e), growth_rate=tuple(rate),
        envelope=tuple(envelope), max_ratio=max_ratio, satisfied=satisfied)
