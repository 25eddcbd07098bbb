"""Whole-window successive substitution for the coupled system.

One sweep freezes the current guess trajectory (velocity, density remainder,
elastic stress), assembles the full momentum forcing from it, and re-solves
the three linear subproblems over the window. The sweep is repeated until
consecutive trajectories agree in a weighted sup-in-time L2 metric. The
same fixed point can also be reached one step at a time (`march`) and then
certified by one sweep of that loop. Around the loop sit the admissible-set
membership check (norm budgets summed from one `trajectory_norms` table
per sweep, plus the density band), the audit of a converged window by one
more sweep (`audit_window`), a continuity probe that perturbs the input
trajectory and watches the output gap shrink linearly, and a two-solution
energy experiment that fits the growth constant of the Gronwall envelope.

Budgets and the Gronwall constant are empirical: the analysis guarantees
their existence but not their size. The budgets are sized from the initial
data each run; the Gronwall constant is fitted on one run and may be held
on another.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DensityBandError, LinearSolveError,
                     NonConvergenceError, NonDirichletError,
                     SingularStressSystemError)
from .fields import (ScalarField, SymTensorField, TrajectoryNorms,
                     VectorField, div_tensor, grad_tensor, gradient, mean,
                     norm, norms, rate_tensors, trajectory_norms,
                     viscous_operator)
from .rheology import momentum_source
from .transport import (DensityBoundReport, StressBoundReport,
                        check_density_bounds, check_stress_bounds,
                        step_density, step_stress, trace)
from .velocity import (EnergyBudgetReport, RegularityReport,
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
    number. That number need not fall at every sweep: a sweep alternates
    between the velocity and the transport blocks, so the distances of
    consecutive sweeps can alternate, and on fine grids (n >= 64) a single
    sweep's ratio can exceed 1 while two sweeps together still contract.
    """
    if a.nsteps != b.nsteps or a.dt != b.dt:
        raise ValueError("trajectories live on different time ladders")
    return math.sqrt(max(0.0, *_gap_energies(a, b, params)))


def assemble_forcing(w: VectorField, grad_w: np.ndarray, pi: ScalarField,
                     psi: SymTensorField, params) -> VectorField:
    """Full momentum right-hand side for one frozen guess.

    Density-weighted remainder terms from the momentum source, minus the
    guess self-transport, minus the density push, plus the stress divergence.
    `grad_w` is `grad_tensor(w)`; in a sweep it comes from the step's
    characteristic map. A w and grad pi are taken here, once each.
    """
    gp = gradient(pi)
    base = momentum_source(viscous_operator(w), pi, gp, params)
    adv = np.einsum("j...,ij...->i...", w.values, grad_w)
    vals = (base.values - params.alpha * adv - gp.values
            + div_tensor(psi).values)
    return VectorField(w.grid, vals)


@dataclass(frozen=True)
class SweepDiagnostics:
    """Per-step byproducts of one sweep, in ledger order: entry k belongs
    to step k+1, so ``forcings`` holds F(t_1) .. F(t_N) without F(0)."""

    forcings: tuple
    velocity_reports: tuple
    density_reports: tuple
    stress_reports: tuple


# failures of one step of the window map, labelled with that step
_STEP_FAILURES = (DensityBandError, LinearSolveError, NonDirichletError,
                  SingularStressSystemError)


def picard_sweep(inp: IterTriple, params, tol_lin: float = 1e-10) -> tuple:
    """One application of the frozen-coefficient map, with diagnostics.

    Coefficients for step k are frozen at the arrival node k+1 of the input
    trajectory. Each step first traces that node's velocity; the forcing
    takes its gradient from the trace's map, and the density and stress
    updates share the map. So every frozen velocity is differentiated once.
    No step reads the forcing at node 0, so none is assembled there.
    Initial data pass through exactly. Solver failures gain a ``timestep``
    attribute before propagating.
    """
    u, sg, tau = inp.w[0], inp.pi[0], inp.psi[0]
    us, sgs, taus = [u], [sg], [tau]
    Fs, vreps, dreps, sreps = [], [], [], []
    for k in range(inp.nsteps):
        wk, pk, qk = inp.w[k + 1], inp.pi[k + 1], inp.psi[k + 1]
        try:
            cm = trace(wk, inp.dt)
            Fk = assemble_forcing(wk, cm.grad_w, pk, qk, params)
            u, vr = step_velocity(u, Fk, inp.dt, params, tol_lin=tol_lin)
            sg, dr = step_density(sg, cm, params)
            tau, sr = step_stress(tau, cm, params)
        except _STEP_FAILURES as exc:
            exc.timestep = k + 1
            raise
        us.append(u)
        sgs.append(sg)
        taus.append(tau)
        Fs.append(Fk)
        vreps.append(vr)
        dreps.append(dr)
        sreps.append(sr)
    out = IterTriple(us, sgs, taus, inp.dt)
    diag = SweepDiagnostics(tuple(Fs), tuple(vreps), tuple(dreps),
                            tuple(sreps))
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


def check_membership(candidate: IterTriple, b1: float, b2: float,
                     params) -> MembershipReport:
    """Evaluate the norm-budget and band inequalities; never raises.

    Every term comes from one `trajectory_norms` table: velocity usage is
    its `velocity_budget`, data usage is sup-t H2 of density plus stress,
    rate usage is sup-t H1 of their backward-difference rates.
    """
    if b1 <= 0.0 or b2 <= 0.0:
        raise ValueError("budgets must be positive")
    table = trajectory_norms(candidate.w, candidate.pi, candidate.psi,
                             candidate.dt)
    w_used = table.velocity_budget
    data_used = float(table.pi[:, 2].max() + table.psi[:, 2].max())
    rate_used = float(table.pi_rate[:, 1].max() + table.psi_rate[:, 1].max())

    lo, hi = params.band
    rho_min = min(float((params.alpha + params.eps ** 2 * p.values).min())
                  for p in candidate.pi)
    rho_max = max(float((params.alpha + params.eps ** 2 * p.values).max())
                  for p in candidate.pi)

    items = [("velocity budget", w_used, b1),
             ("data budget", data_used, b1),
             ("rate budget", rate_used, b2)]
    violations = [name for name, used, cap in items if used > cap]
    slacks = [1.0 - used / cap for name, used, cap in items]
    band_slack = min(rho_min - lo, hi - rho_max) / (hi - lo)
    slacks.append(band_slack)
    if rho_min < lo or rho_max > hi:
        violations.append("density band")
    return MembershipReport(
        b1=b1, b2=b2, velocity_budget=w_used, data_budget=data_used,
        rate_budget=rate_used, density_min=rho_min, density_max=rho_max,
        band_lo=lo, band_hi=hi, violations=tuple(violations),
        slack_min=min(slacks), passed=not violations)


def suggest_budgets(u0: VectorField, sigma0: ScalarField,
                    tau0: SymTensorField, params) -> tuple:
    """Size the norm budgets from the initial data.

    The first budget covers the largest of the squared viscous load of the
    initial velocity and the H2 norms of the density and stress data; the
    second follows the relaxation-weighted structure of the stress-rate
    bound. Both carry the empirical, not theoretical, margin 4.
    """
    margin = 4.0
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
    """Distances, contraction ratios and membership slack per sweep."""

    distances: tuple
    ratios: tuple
    slack_mins: tuple
    b1: float
    b2: float
    iterations: int
    converged: bool
    membership: MembershipReport


def _check_hypotheses(u0: VectorField, sigma0: ScalarField, params,
                      T: float, dt: float) -> int:
    """The discrete solvability hypotheses on the data and the window:
    zero-trace velocity, mean-zero density remainder, total density inside
    the strict band, a whole number of steps. Returns that number."""
    if not u0.dirichlet:
        raise ConfigError("initial velocity must vanish on the boundary")
    scale = max(1.0, norm(sigma0, 0))
    drift = abs(mean(sigma0))
    if drift > 1e-11 * scale:
        raise ConfigError("initial density remainder must have zero mean; "
                          f"its mean is {drift:.3e}")
    rho0 = params.alpha + params.eps ** 2 * sigma0.values
    if rho0.min() < params.m1 or rho0.max() > params.M1:
        raise ConfigError(
            f"initial total density range [{rho0.min():.6g}, "
            f"{rho0.max():.6g}] leaves the strict band "
            f"[{params.m1:.6g}, {params.M1:.6g}]")
    if T <= 0.0 or dt <= 0.0:
        raise ConfigError("window length and step must be positive")
    nsteps = int(round(T / dt))
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * T:
        raise ConfigError("window length must be a whole number of steps")
    return nsteps


def iterate(u0: VectorField, sigma0: ScalarField, tau0: SymTensorField,
            params, T: float, dt: float, tol_fp: float = 1e-8,
            max_iter: int = 20, tol_lin: float = 1e-10,
            initial_guess: IterTriple = None) -> tuple:
    """Run sweeps until consecutive trajectories agree to tol_fp.

    Checks the discrete solvability hypotheses first (zero-trace velocity,
    mean-zero density remainder, total density inside the strict band).
    Membership is checked against `suggest_budgets` of the initial data.
    Raises NonConvergenceError with the distance history when max_iter
    sweeps do not contract below tolerance.
    """
    nsteps = _check_hypotheses(u0, sigma0, params, T, dt)

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

    dists, ratios, slacks = [], [], []
    mem = None
    for k in range(1, max_iter + 1):
        y = picard_sweep(x, params, tol_lin=tol_lin)[0]
        d = trajectory_distance(y, x, params)
        mem = check_membership(y, b1, b2, params)
        ratios.append(d / dists[-1] if dists and dists[-1] > 0.0
                      else float("nan"))
        dists.append(d)
        slacks.append(mem.slack_min)
        if d <= tol_fp:
            history = ConvergenceHistory(
                distances=tuple(dists), ratios=tuple(ratios),
                slack_mins=tuple(slacks), b1=b1, b2=b2, iterations=k,
                converged=True, membership=mem)
            return y, history
        x = y
    raise NonConvergenceError(
        f"no fixed point after {max_iter} sweeps (last distance "
        f"{dists[-1]:.3e}); try a shorter window T or smaller data",
        history=tuple(dists))


def march(u0: VectorField, sigma0: ScalarField, tau0: SymTensorField,
          params, T: float, dt: float, tol_fp: float = 1e-8,
          max_iter: int = 20, tol_lin: float = 1e-10) -> IterTriple:
    """Reach the fixed point of the window map one step at a time.

    Step k of the map reads only input node k+1 and output node k. So once
    nodes 0..k are settled, node k+1 is the fixed point of the one-step
    window starting at node k: `picard_sweep` is iterated on that window,
    from the guess "node k held", until its distance falls to 0.1 tol_fp,
    and its last output becomes node k+1. This is Gauss-Seidel waveform
    relaxation with a one-step window; the whole-window sweep of `iterate`
    is its Jacobi form. Pass the result to `iterate` as ``initial_guess``:
    its first sweep certifies the fixed point and checks membership.

    Checks the same hypotheses as `iterate`. Raises NonConvergenceError
    with the local distance history when a step takes more than max_iter
    sweeps; that error and solver failures carry the global ``timestep``.
    """
    nsteps = _check_hypotheses(u0, sigma0, params, T, dt)
    ws, pis, psis = [u0], [sigma0], [tau0]
    for k in range(nsteps):
        x = IterTriple.constant(ws[k], pis[k], psis[k], 1, dt)
        dists = []
        for _ in range(max_iter):
            try:
                y = picard_sweep(x, params, tol_lin=tol_lin)[0]
            except _STEP_FAILURES as exc:
                exc.timestep = k + 1
                raise
            dists.append(trajectory_distance(y, x, params))
            x = y
            if dists[-1] <= 0.1 * tol_fp:
                break
        else:
            exc = NonConvergenceError(
                f"step {k + 1} found no fixed point after {max_iter} sweeps "
                f"(last distance {dists[-1]:.3e}); try a smaller dt or "
                "smaller data", history=tuple(dists))
            exc.timestep = k + 1
            raise exc
        ws.append(x.w[1])
        pis.append(x.pi[1])
        psis.append(x.psi[1])
    return IterTriple(ws, pis, psis, dt)


@dataclass(frozen=True)
class SystemResidual:
    """Sup-in-time L2 defect of a trajectory under one more sweep."""

    velocity: float
    density: float
    stress: float

    @property
    def worst(self):
        return max(self.velocity, self.density, self.stress)


@dataclass(frozen=True)
class WindowAudit:
    """Every post-run estimate of a converged window: ``out`` and ``diag``
    come from one more sweep, ``forcings`` holds F(0) .. F(t_N), and every
    report reads ``table``, the norm table of ``out``."""

    out: IterTriple
    diag: SweepDiagnostics
    forcings: tuple
    table: TrajectoryNorms
    residual: SystemResidual
    energy: EnergyBudgetReport
    regularity: RegularityReport
    density: DensityBoundReport
    stress: StressBoundReport


def audit_window(sol: IterTriple, params,
                 tol_lin: float = 1e-10) -> WindowAudit:
    """Plug a converged trajectory into one more sweep and check that
    sweep against the energy, dissipation, regularity and transport
    estimates. Its gap to ``sol`` is the residual; its per-step reports
    describe exactly the linear problems ``sol`` solves. F(0), which no
    step reads, is assembled here from the initial data.
    """
    out, diag = picard_sweep(sol, params, tol_lin=tol_lin)
    u0 = sol.w[0]
    forcings = (assemble_forcing(u0, grad_tensor(u0), sol.pi[0], sol.psi[0],
                                 params),) + diag.forcings
    table = trajectory_norms(out.w, out.pi, out.psi, out.dt)
    residual_norms = [r.residual_norm for r in diag.velocity_reports]
    return WindowAudit(
        out=out, diag=diag, forcings=forcings, table=table,
        residual=SystemResidual(*map(max, _node_gaps(out, sol))),
        energy=check_energy_budget(table, out.w, forcings, params,
                                   residual_norms),
        regularity=check_regularity_budget(table, u0, forcings),
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

    strain = rate_tensors(vshape)[0]
    tshape = SymTensorField(grid, strain.values / np.abs(strain.values).max())
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
                     tol_lin: float = 1e-10) -> ProbeReport:
    """Perturb the input trajectory at amplitudes delta, delta/2, delta/4.

    The perturbation is a fixed smooth shape times a linear time ramp (so
    initial data stay pinned); the report records the sup-in-time L2 output
    gaps and whether they shrink linearly, within a factor 1.5, as the
    amplitude halves. ``components`` selects which of w/p/s move.
    """
    if delta < 0.0:
        raise ValueError("perturbation amplitude must be nonnegative")
    if not components or set(components) - set("wps"):
        raise ValueError("components must be a nonempty subset of 'wps'")
    shapes = _probe_shapes(base.grid)
    ref = picard_sweep(base, params, tol_lin=tol_lin)[0]
    scales = (delta, delta / 2.0, delta / 4.0) if delta > 0.0 else (0.0,)
    gv, gp, gs, gtot = [], [], [], []
    for s in scales:
        out = picard_sweep(_perturb(base, s, shapes, components), params,
                           tol_lin=tol_lin)[0]
        a, b, c = map(max, _node_gaps(out, ref))
        gv.append(a)
        gp.append(b)
        gs.append(c)
        gtot.append(max(a, b, c))
    shrink = tuple(gtot[i] / gtot[i + 1] if gtot[i + 1] > 0.0
                   else float("inf") for i in range(len(gtot) - 1))
    linear_ok = all(2.0 / 1.5 <= r <= 2.0 * 1.5 for r in shrink)
    return ProbeReport(
        delta=delta, deltas=scales, velocity_gaps=tuple(gv),
        density_gaps=tuple(gp), stress_gaps=tuple(gs), gaps=tuple(gtot),
        shrink_ratios=shrink, linear_ok=linear_ok)


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
    c12_fitted: bool
    identical: bool
    times: tuple
    gap_energy: tuple
    growth_rate: tuple
    envelope: tuple
    max_ratio: float
    satisfied: bool


def uniqueness_experiment(sol1: IterTriple, sol2: IterTriple, delta: float,
                          params, c12: float = None, fp_tol: float = 1e-8,
                          slack: float = 0.0) -> UniquenessReport:
    """Weighted L2 gap energy of two trajectories vs. exp(2 int rate).

    The growth rate combines low-order norms of both solutions linearly in
    the constant and quadratic high-order norms weighted by 1/(2 delta).
    With c12=None the smallest constant closing the envelope at every step
    is fitted in closed form; pass a fitted value (plus slack) to hold it on
    another run. Identical initial data switch the check to a flat
    solver-tolerance budget, since the envelope degenerates to zero.
    """
    if sol1.nsteps != sol2.nsteps or sol1.dt != sol2.dt \
            or sol1.grid != sol2.grid:
        raise ValueError("solution trajectories are not comparable")
    cap = delta_threshold(params)
    if not 0.0 < delta < cap:
        raise ConfigError(
            f"splitting weight delta={delta:.6g} must lie in (0, "
            f"{cap:.6g}) to keep the gap dissipation coefficients positive")

    npts = sol1.nsteps + 1
    lin = np.empty(npts)  # coefficient of c12 in the rate
    quad = np.empty(npts)  # coefficient of c12**2
    e = np.array(_gap_energies(sol1, sol2, params))
    for k in range(npts):
        u1_l2, _, u1_h2, u1_h3 = norms(sol1.w[k], 3)
        lin[k] = u1_l2 + norm(sol2.w[k], 0) + u1_h3
        quad[k] = (u1_h2 ** 3 + norm(sol1.pi[k], 2) ** 2
                   + 2.0 * norm(sol2.pi[k], 2) ** 2
                   + norm(sol1.psi[k], 2) ** 2) / (2.0 * delta)

    dt = sol1.dt
    cum_lin = np.concatenate([[0.0], np.cumsum(dt * lin[1:])])
    cum_quad = np.concatenate([[0.0], np.cumsum(dt * quad[1:])])

    identical = bool(e[0] == 0.0)
    fitted = False
    if identical:
        c = 0.0 if c12 is None else c12
        budget = (10.0 * fp_tol) ** 2
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
            fitted = True
        else:
            c = c12
        envelope = e[0] * np.exp(2.0 * (c * cum_lin + c * c * cum_quad))
        ratios = e[1:] / envelope[1:]
        max_ratio = float(max(ratios.max(), e[0] / envelope[0]))
        satisfied = max_ratio <= (1.0 + slack) * (1.0 + 1e-12)

    rate = c * lin + c * c * quad
    return UniquenessReport(
        delta=delta, delta_cap=cap, c12=c, c12_fitted=fitted,
        identical=identical, times=sol1.times, gap_energy=tuple(e),
        growth_rate=tuple(rate), envelope=tuple(envelope),
        max_ratio=max_ratio, satisfied=satisfied)
