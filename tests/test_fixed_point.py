"""Whole-window successive substitution: map wiring, convergence,
membership, the continuity probe and the two-solution gap experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroydb import (ConfigError, DensityBandError, FluidParams, Grid,
                      IterTriple, NonConvergenceError, ScalarField,
                      SymTensorField, VectorField, assemble_forcing,
                      audit_window, check_membership, continuity_probe,
                      delta_threshold, grad_tensor, iterate, march,
                      mean, picard_sweep, step_density, step_stress,
                      step_velocity, suggest_budgets, trace,
                      trajectory_distance, trajectory_norms,
                      uniqueness_experiment)
from oldroydb import fixed_point, rheology, transport, velocity
from oldroydb.fields import random_smooth_field
from oldroydb.transport import check_density_bounds, check_stress_bounds
from oldroydb.velocity import check_regularity_budget, run_velocity

from conftest import centered_bump_perturbation, draw_trajectory, small_preset


# ---------------------------------------------------------------- triples

def test_constant_triple_shape():
    grid, params, u0, s0, t0 = small_preset(12)
    x = IterTriple.constant(u0, s0, t0, nsteps=4, dt=0.25)
    assert x.nsteps == 4
    assert x.T == pytest.approx(1.0)
    assert x.times == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))
    assert x.grid == grid
    assert all(w is u0 for w in x.w)


def test_triple_validation():
    grid, params, u0, s0, t0 = small_preset(12)
    with pytest.raises(ValueError, match="positive"):
        IterTriple((u0, u0), (s0, s0), (t0, t0), dt=0.0)
    with pytest.raises(ValueError, match="at least one"):
        IterTriple((u0,), (s0,), (t0,), dt=0.1)
    with pytest.raises(ValueError, match="differ in length"):
        IterTriple((u0, u0), (s0,), (t0, t0), dt=0.1)
    loose = VectorField(grid, u0.values)  # no boundary pin
    with pytest.raises(ValueError, match="zero-trace"):
        IterTriple((u0, loose), (s0, s0), (t0, t0), dt=0.1)
    other = Grid.unit(8)
    s_other = ScalarField(other, np.zeros(other.node_shape))
    with pytest.raises(ValueError, match="mixes grids"):
        IterTriple((u0, u0), (s0, s_other), (t0, t0), dt=0.1)


def test_distance_weighted_and_raw():
    grid = Grid.unit(8)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    ones = ScalarField(grid, np.ones(grid.node_shape))
    a = IterTriple.constant(z_w, z_s, z_t, 2, 0.1)
    b = IterTriple.constant(z_w, ones, z_t, 2, 0.1)
    # unit-mass scalar gap, weighted by eps/sqrt(alpha)
    assert trajectory_distance(a, b, params) == pytest.approx(0.1)
    short = IterTriple.constant(z_w, z_s, z_t, 3, 0.1)
    with pytest.raises(ValueError, match="time ladders"):
        trajectory_distance(a, short, params)


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


def test_distance_skips_the_shared_node_0(monkeypatch):
    # a sweep passes node 0 through, so its gap there is exactly zero and
    # is not measured; a copy of node 0 is measured and gives the same
    # distance
    grid, params, u0, s0, t0 = small_preset(12)
    x = IterTriple.constant(u0, s0, t0, 1, 1e-3)
    y = picard_sweep(x, params)[0]
    copied = IterTriple((u0.copy(), y.w[1]), (s0.copy(), y.pi[1]),
                        (t0.copy(), y.psi[1]), y.dt)
    calls = counting(monkeypatch, [fixed_point], ["norm"])
    shared = trajectory_distance(y, x, params)
    assert calls["norm"] == 3
    assert trajectory_distance(copied, x, params) == shared
    assert calls["norm"] == 3 + 6


# ------------------------------------------------------------- the sweep

def test_zero_guess_maps_to_zero():
    grid, params, _, _, _ = small_preset(12)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    x = IterTriple.constant(z_w, z_s, z_t, 5, 1e-3)
    y = picard_sweep(x, params)[0]
    for k in range(6):
        assert not y.w[k].values.any()
        assert not y.pi[k].values.any()
        assert not y.psi[k].values.any()


def test_sweep_matches_manual_composition():
    # one sweep must equal the three solvers chained by hand, sharing a
    # single characteristic trace per step and passing data through node 0
    grid, params, u0, s0, t0 = small_preset(16)
    dt, nsteps = 1e-3, 4
    zero_f = VectorField.zeros(grid, dirichlet=True)
    _, us, _, _ = run_velocity(u0, lambda t: zero_f, nsteps * dt, dt, params)
    x = IterTriple(us, (s0,) * (nsteps + 1), (t0,) * (nsteps + 1), dt)

    out, diag = picard_sweep(x, params)

    u, sg, tau = u0, s0, t0
    for k in range(nsteps):
        wk, pk, qk = x.w[k + 1], x.pi[k + 1], x.psi[k + 1]
        cm = trace(wk, dt)
        Fk = assemble_forcing(wk, cm.grad_w, pk, qk, params)
        u, _ = step_velocity(u, Fk, dt, params)
        sg, _ = step_density(sg, cm, params)
        tau, _ = step_stress(tau, cm, params)
        assert np.array_equal(diag.forcings[k].values, Fk.values)
        assert np.array_equal(out.w[k + 1].values, u.values)
        assert np.array_equal(out.pi[k + 1].values, sg.values)
        assert np.array_equal(out.psi[k + 1].values, tau.values)
    assert out.w[0] is u0 and out.pi[0] is s0 and out.psi[0] is t0
    assert len(diag.forcings) == len(diag.velocity_reports) == nsteps


def test_sweep_differentiates_each_frozen_node_once(monkeypatch):
    # N steps freeze nodes 1..N: each step's forcing reuses the gradient
    # its trace took and takes the density gradient once; no step reads the
    # forcing at node 0, so none is assembled there
    grid, params, u0, s0, t0 = small_preset(12)
    nsteps = 4
    x = IterTriple.constant(u0, s0, t0, nsteps, 1e-3)
    calls = counting(monkeypatch, (fixed_point, rheology, transport),
                     ["grad_tensor", "gradient"])
    _, diag = picard_sweep(x, params)
    assert len(diag.forcings) == nsteps
    assert calls == {"grad_tensor": nsteps, "gradient": nsteps}


def test_zero_forcing_assembles_to_zero():
    grid, params, _, _, _ = small_preset(12)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    F = assemble_forcing(z_w, grad_tensor(z_w), z_s, z_t, params)
    assert not F.values.any()


def test_sweep_failure_reports_timestep():
    grid, params, u0, s0, t0 = small_preset(16)
    pis = [s0] * 6
    # total density alpha + eps^2 * (-150) = -0.5 leaves the working band
    pis[3] = ScalarField(grid, np.full(grid.node_shape, -150.0))
    x = IterTriple((u0,) * 6, pis, (t0,) * 6, dt=1e-3)
    with pytest.raises(DensityBandError) as err:
        picard_sweep(x, params)
    assert err.value.timestep == 3


def test_one_sweep_already_contracts():
    grid, params, u0, s0, t0 = small_preset(32)
    x0 = IterTriple.constant(u0, s0, t0, 10, 1e-3)
    y1 = picard_sweep(x0, params)[0]
    y2 = picard_sweep(y1, params)[0]
    d1 = trajectory_distance(y1, x0, params)
    d2 = trajectory_distance(y2, y1, params)
    assert d2 < 0.5 * d1


# ------------------------------------------------------------ membership

def test_membership_zero_trajectory():
    grid, params, _, _, _ = small_preset(12)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    x = IterTriple.constant(z_w, z_s, z_t, 3, 0.1)
    rep = check_membership(x, 1.0, 1.0, params)
    assert rep.passed and rep.violations == ()
    assert rep.velocity_budget == 0.0
    assert rep.data_budget == 0.0
    assert rep.rate_budget == 0.0
    # background density sits at alpha = 1 inside the working band [1/4, 4]
    assert rep.density_min == rep.density_max == pytest.approx(1.0)
    assert rep.slack_min == pytest.approx(0.2)
    with pytest.raises(ValueError, match="positive"):
        check_membership(x, 0.0, 1.0, params)


def test_membership_flags_band_exit():
    grid, params, u0, s0, t0 = small_preset(12)
    deep = ScalarField(grid, np.full(grid.node_shape,
                                     -2.0 * params.alpha / params.eps ** 2))
    x = IterTriple.constant(u0, deep, t0, 3, 0.1)
    rep = check_membership(x, 1e9, 1e9, params)
    assert not rep.passed
    assert "density band" in rep.violations
    assert rep.density_min < rep.band_lo
    assert rep.slack_min < 0.0


def test_membership_flags_budget_overrun():
    grid, params, u0, s0, t0 = small_preset(12)
    x = IterTriple.constant(u0, s0, t0, 3, 0.1)
    rep = check_membership(x, 1e-12, 1e9, params)
    assert not rep.passed
    assert "velocity budget" in rep.violations
    assert "data budget" in rep.violations
    assert "rate budget" not in rep.violations


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_membership_budgets_are_the_audit_sums(dim, data):
    ws, pis, psis, dt = draw_trajectory(data, dim)
    params = FluidParams(We=0.5)
    rng = np.random.default_rng(0)
    Fs = [random_smooth_field(ws[0].grid, rng) for _ in ws]
    mem = check_membership(IterTriple(ws, pis, psis, dt), 1.0, 1.0, params)
    table = trajectory_norms(ws, pis, psis, dt)
    reg = check_regularity_budget(table, ws[0], Fs)
    dens = check_density_bounds(table, params)
    stress = check_stress_bounds(table, params)
    assert mem.velocity_budget == pytest.approx(reg.lhs, rel=1e-14, abs=0.0)
    assert mem.data_budget == pytest.approx(dens.sup_h2 + stress.sup_h2,
                                            rel=1e-14, abs=0.0)
    assert mem.rate_budget == pytest.approx(
        dens.sup_rate_h1 + stress.sup_rate_h1, rel=1e-14, abs=0.0)


def test_suggested_budgets():
    grid, params, u0, s0, t0 = small_preset(12)
    b1, b2 = suggest_budgets(u0, s0, t0, params)
    assert b1 > 0.0 and b2 > 0.0
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    b1z, b2z = suggest_budgets(z_w, z_s, z_t, params)
    assert b1z == 1.0  # fallback scale for empty data
    assert b2z > 0.0


# --------------------------------------------------------------- iterate

def test_iterate_zero_data_is_immediate():
    grid, params, _, _, _ = small_preset(12)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    sol, hist = iterate(z_w, z_s, z_t, params, T=5e-3, dt=1e-3)
    assert hist.converged and hist.iterations == 1
    assert hist.distances == (0.0,)
    assert math.isnan(hist.ratios[0])
    assert not sol.w[-1].values.any()


def test_iterate_converges_monotonically(converged32):
    hist = converged32.hist
    assert hist.converged
    assert hist.iterations <= 20
    d = hist.distances
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
    assert max(hist.ratios[1:]) < 0.9
    assert hist.membership.passed
    assert min(hist.slack_mins) > 0.0


def test_solution_preserves_structure(converged32):
    sol, params = converged32.sol, converged32.params
    assert np.array_equal(sol.w[0].values, converged32.u0.values)
    assert np.array_equal(sol.pi[0].values, converged32.s0.values)
    assert np.array_equal(sol.psi[0].values, converged32.t0.values)
    for p in sol.pi:
        assert abs(mean(p)) <= 1e-12
    m = sol.grid.dim * (sol.grid.dim + 1) // 2
    for q in sol.psi:
        # symmetric storage: one slot per independent component
        assert q.values.shape[0] == m
        assert np.isfinite(q.values).all()
    lo, hi = params.band
    assert lo < converged32.hist.membership.density_min
    assert converged32.hist.membership.density_max < hi


def test_fixed_point_residual_small(converged32):
    res = converged32.audit.residual
    assert res.worst < 1e-7  # ten times the sweep tolerance


def test_audit_takes_each_node_A_u_once(converged32, monkeypatch):
    # the extra sweep applies A once per frozen node and F(0) once more; the
    # energy check once per swept node, with each step's dissipation read
    # from it; the regularity ratio once at node 0; strain and divergence
    # come from one gradient per node, not from separate derivatives
    c = converged32
    nsteps = c.sol.nsteps
    calls = counting(monkeypatch, (fixed_point, rheology, transport, velocity),
                     ["viscous_operator", "divergence", "rate_tensors"])
    audit = audit_window(c.sol, c.params)
    assert calls["viscous_operator"] <= 2 * nsteps + 2
    assert calls["divergence"] == calls["rate_tensors"] == 0
    assert len(audit.forcings) == nsteps + 1
    assert audit.out.w[0] is c.sol.w[0]
    assert audit.residual == c.audit.residual
    assert audit.energy.dissipation_slack == c.audit.energy.dissipation_slack


def test_iterate_rejects_bad_data():
    grid, params, u0, s0, t0 = small_preset(16)
    loose = VectorField(grid, u0.values)
    with pytest.raises(ConfigError, match="vanish on the boundary"):
        iterate(loose, s0, t0, params, T=5e-3, dt=1e-3)
    drift = ScalarField(grid, s0.values + 0.5)
    with pytest.raises(ConfigError, match="zero mean"):
        iterate(u0, drift, t0, params, T=5e-3, dt=1e-3)
    x, y = grid.coords
    deep = ScalarField(grid, 120.0 * np.cos(2 * np.pi * x)
                       * np.cos(2 * np.pi * y))
    with pytest.raises(ConfigError, match="strict band"):
        iterate(u0, deep, t0, params, T=5e-3, dt=1e-3)
    with pytest.raises(ConfigError, match="positive"):
        iterate(u0, s0, t0, params, T=0.0, dt=1e-3)
    with pytest.raises(ConfigError, match="whole number"):
        iterate(u0, s0, t0, params, T=0.0105, dt=1e-3)


def test_iterate_rejects_bad_guess():
    grid, params, u0, s0, t0 = small_preset(16)
    short = IterTriple.constant(u0, s0, t0, 3, 1e-3)
    with pytest.raises(ConfigError, match="ladder"):
        iterate(u0, s0, t0, params, T=5e-3, dt=1e-3,
                initial_guess=short)
    unpinned = IterTriple.constant(u0 * 0.5, s0, t0, 5, 1e-3)
    with pytest.raises(ConfigError, match="start from the given data"):
        iterate(u0, s0, t0, params, T=5e-3, dt=1e-3,
                initial_guess=unpinned)


def test_iterate_reports_divergence_on_long_window():
    # the contraction argument is local in time: on an eightfold window the
    # sweep distances stop shrinking and the history is handed back
    grid, params, u0, s0, t0 = small_preset(32)
    with pytest.raises(NonConvergenceError, match="shorter window") as err:
        iterate(u0, s0, t0, params, T=0.08, dt=1e-3, max_iter=6)
    h = err.value.history
    assert len(h) == 6
    assert h[-1] > h[2]


# ----------------------------------------------------------------- march

def test_march_lands_on_the_sweep_fixed_point(converged32):
    # one certifying sweep suffices, and the certified trajectory is the
    # fixed point the whole-window sweeps reach, to the solver tolerance
    c = converged32
    guess = march(c.u0, c.s0, c.t0, c.params, T=0.01, dt=1e-3)
    assert guess.nsteps == 10 and guess.w[0] is c.u0
    sol, hist = iterate(c.u0, c.s0, c.t0, c.params, T=0.01, dt=1e-3,
                        max_iter=1, initial_guess=guess)
    assert hist.converged and hist.iterations == 1
    assert hist.distances[0] <= 1e-8
    assert hist.membership.passed
    assert trajectory_distance(sol, c.sol, c.params) <= 1e-8


def test_march_certifies_long_window():
    # where the whole-window sweeps stop contracting (see the test above),
    # each one-step window still contracts: the marched trajectory is a
    # discrete fixed point of the window map, certified by one sweep
    grid, params, u0, s0, t0 = small_preset(32)
    guess = march(u0, s0, t0, params, T=0.08, dt=1e-3)
    sol, hist = iterate(u0, s0, t0, params, T=0.08, dt=1e-3, max_iter=1,
                        initial_guess=guess)
    assert hist.converged and hist.iterations == 1
    assert hist.distances[0] <= 1e-8
    assert hist.membership.passed


def test_march_checks_the_hypotheses_of_iterate():
    grid, params, u0, s0, t0 = small_preset(16)
    loose = VectorField(grid, u0.values)
    with pytest.raises(ConfigError, match="vanish on the boundary"):
        march(loose, s0, t0, params, T=5e-3, dt=1e-3)
    drift = ScalarField(grid, s0.values + 0.5)
    with pytest.raises(ConfigError, match="zero mean"):
        march(u0, drift, t0, params, T=5e-3, dt=1e-3)
    x, y = grid.coords
    deep = ScalarField(grid, 120.0 * np.cos(2 * np.pi * x)
                       * np.cos(2 * np.pi * y))
    with pytest.raises(ConfigError, match="strict band"):
        march(u0, deep, t0, params, T=5e-3, dt=1e-3)
    with pytest.raises(ConfigError, match="whole number"):
        march(u0, s0, t0, params, T=0.0105, dt=1e-3)


def test_march_names_the_step_that_does_not_settle():
    grid, params, u0, s0, t0 = small_preset(16)
    with pytest.raises(NonConvergenceError, match="step 1") as err:
        march(u0, s0, t0, params, T=5e-3, dt=1e-3, max_iter=2)
    assert err.value.timestep == 1
    assert len(err.value.history) == 2


# ----------------------------------------------------------------- probe

def test_probe_gaps_shrink_linearly(converged32):
    rep = continuity_probe(converged32.sol, 1e-3, converged32.params)
    assert rep.deltas == (1e-3, 5e-4, 2.5e-4)
    assert rep.linear_ok
    for r in rep.shrink_ratios:
        assert 1.9 < r < 2.1
    assert rep.gaps[0] > rep.gaps[1] > rep.gaps[2] > 0.0


def test_probe_zero_amplitude_is_exact(converged32):
    rep = continuity_probe(converged32.sol, 0.0, converged32.params)
    assert rep.deltas == (0.0,)
    assert rep.gaps == (0.0,)
    assert rep.shrink_ratios == ()
    assert rep.linear_ok


def test_probe_stress_only_leaves_density_alone(converged32):
    # one sweep of a stress-only perturbation reaches the velocity through
    # the momentum forcing but cannot touch the density update
    rep = continuity_probe(converged32.sol, 1e-3, converged32.params,
                           components="s")
    assert rep.density_gaps == (0.0, 0.0, 0.0)
    assert all(g > 0.0 for g in rep.velocity_gaps)


def test_probe_validates_arguments(converged32):
    with pytest.raises(ValueError, match="nonnegative"):
        continuity_probe(converged32.sol, -1e-3, converged32.params)
    with pytest.raises(ValueError, match="subset"):
        continuity_probe(converged32.sol, 1e-3, converged32.params,
                         components="xyz")
    with pytest.raises(ValueError, match="subset"):
        continuity_probe(converged32.sol, 1e-3, converged32.params,
                         components="")


# ------------------------------------------------------- gap experiment

def test_delta_threshold_value():
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    # gradient branch: 4*1*0.5*0.5 / (10*0.01*0.5 + 0.1) = 20/3, below the
    # divergence branch 0.5/0.01 = 50
    assert delta_threshold(params) == pytest.approx(20.0 / 3.0)


def test_gap_experiment_rejects_bad_delta(converged32):
    sol, params = converged32.sol, converged32.params
    cap = delta_threshold(params)
    with pytest.raises(ConfigError, match="must lie in"):
        uniqueness_experiment(sol, sol, cap * 1.01, params)
    with pytest.raises(ConfigError, match="must lie in"):
        uniqueness_experiment(sol, sol, 0.0, params)


def test_gap_experiment_rejects_mismatched_runs(converged32):
    grid, params, u0, s0, t0 = small_preset(32)
    short = IterTriple.constant(u0, s0, t0, 3, 1e-3)
    with pytest.raises(ValueError, match="not comparable"):
        uniqueness_experiment(converged32.sol, short, 1.0, params)


def test_identical_data_land_on_same_trajectory(converged32):
    # start the sweeps from a different (still pinned) guess: the limits
    # must agree to within the solver tolerance budget
    c = converged32
    nudge = picard_sweep(
        IterTriple.constant(c.u0, c.s0, c.t0, 10, 1e-3), c.params)[0]
    sol_b, hist_b = iterate(c.u0, c.s0, c.t0, c.params, T=0.01,
                            dt=1e-3, initial_guess=nudge)
    assert hist_b.converged
    rep = uniqueness_experiment(c.sol, sol_b, 1.0, c.params, fp_tol=1e-8)
    assert rep.identical
    assert rep.satisfied
    assert max(rep.gap_energy) <= (10.0 * 1e-8) ** 2


def test_dissipative_pair_needs_no_growth_constant(converged32):
    # a centered density bump on the gentle vortex decays outright, so the
    # smallest closing constant is exactly zero and the flat envelope holds
    c = converged32
    pert = centered_bump_perturbation(c.grid)
    solp, _ = iterate(c.u0, c.s0 + pert, c.t0, c.params, T=0.01,
                      dt=1e-3)
    rep = uniqueness_experiment(c.sol, solp, 1.0, c.params)
    assert not rep.identical
    assert rep.c12_fitted
    assert rep.c12 == 0.0
    assert rep.satisfied
    assert max(rep.gap_energy) <= rep.gap_energy[0]


def test_compressive_pair_fits_positive_constant(gronwall32):
    g = gronwall32
    rep = uniqueness_experiment(g.sol, g.solp, 1.0, g.params)
    assert not rep.identical
    assert rep.c12_fitted
    assert 1e-4 < rep.c12 < 1e-1
    assert max(rep.gap_energy) > rep.gap_energy[0]  # genuine growth
    assert rep.satisfied
    assert rep.max_ratio <= 1.0 + 1e-12

    held = uniqueness_experiment(g.sol, g.solp, 1.0, g.params,
                                 c12=rep.c12, slack=0.05)
    assert not held.c12_fitted
    assert held.satisfied
