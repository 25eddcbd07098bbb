"""Whole-window successive substitution: map wiring, convergence,
membership, the continuity probe and the two-solution gap experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroydb import (ConfigError, DensityBandError, FluidParams, Grid,
                      IterTriple, NonConvergenceError, ScalarField,
                      SymTensorField, SystemResidual, VectorField,
                      assemble_forcing, audit_window, check_energy_budget,
                      check_membership, check_regularity_budget,
                      continuity_probe, delta_threshold, grad_tensor,
                      iterate, march, mean, norm, picard_sweep,
                      step_density, step_stress, step_velocity,
                      suggest_budgets, sym_components, trace,
                      trajectory_distance, trajectory_norms,
                      uniqueness_experiment, viscous_operator)
from oldroydb import fields, fixed_point, rheology, transport, velocity
from oldroydb.transport import check_density_bounds, check_stress_bounds

from conftest import (centered_bump_perturbation, compressive_preset,
                      copy_field, counting, draw_trajectory,
                      random_smooth_field, run_velocity, small_preset,
                      window_forcings)


def interior(grid):
    """Index of a vector stack's interior nodes."""
    return (slice(None),) + (slice(1, -1),) * grid.dim


def forcing_spy(monkeypatch):
    """Every forcing `assemble_forcing` returns inside `picard_sweep`, in
    call order; the sweep keeps none of them."""
    seen = []
    real = fixed_point.assemble_forcing

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(fixed_point, "assemble_forcing", spy)
    return seen


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


def test_a_nan_node_is_not_a_zero_distance():
    # Python's max skips a NaN that does not come first: an all-NaN density
    # node must make the distance and the residual NaN, not 0
    grid = Grid.unit(8)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    zero = IterTriple.constant(VectorField.zeros(grid, dirichlet=True),
                               ScalarField.zeros(grid),
                               SymTensorField.zeros(grid), 2, 0.1)
    nan = ScalarField(grid, np.full(grid.node_shape, np.nan))
    bad = IterTriple(zero.w, (zero.pi[0], nan, zero.pi[2]), zero.psi, 0.1)
    assert math.isnan(trajectory_distance(bad, zero, params))
    assert math.isnan(SystemResidual(0.0, math.nan, 0.0).worst)


def test_iterate_and_march_stop_at_a_non_finite_distance(monkeypatch):
    grid, params, u0, s0, t0 = small_preset(8)
    monkeypatch.setattr(fixed_point, "trajectory_distance",
                        lambda a, b, p: math.nan)
    with pytest.raises(NonConvergenceError, match="after 1 sweeps") as err:
        iterate(u0, s0, t0, params, T=3e-3, dt=1e-3)
    assert len(err.value.history) == 1 and math.isnan(err.value.history[0])
    with pytest.raises(NonConvergenceError, match="step 1 .* 1 sweeps") \
            as err:
        march(u0, s0, t0, params, T=3e-3, dt=1e-3)
    assert err.value.timestep == 1 and len(err.value.history) == 1


def test_distance_skips_the_shared_node_0(monkeypatch):
    # a sweep passes node 0 through, so its gap there is exactly zero and
    # is not measured; a copy of node 0 is measured and gives the same
    # distance
    grid, params, u0, s0, t0 = small_preset(12)
    x = IterTriple.constant(u0, s0, t0, 1, 1e-3)
    y = picard_sweep(x, params)[0]
    copied = IterTriple((copy_field(u0), y.w[1]), (copy_field(s0), y.pi[1]),
                        (copy_field(t0), y.psi[1]), y.dt)
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


def test_sweep_matches_manual_composition(monkeypatch):
    # one sweep must equal the three solvers chained by hand, sharing a
    # single characteristic trace per step and passing data through node 0;
    # each step's forcing has the whole-grid forcing's interior rows, the
    # only rows its velocity solve reads
    grid, params, u0, s0, t0 = small_preset(16)
    dt, nsteps = 1e-3, 4
    zero_f = VectorField.zeros(grid, dirichlet=True)
    _, us, _, _ = run_velocity(u0, lambda t: zero_f, nsteps * dt, dt, params)
    x = IterTriple(us, (s0,) * (nsteps + 1), (t0,) * (nsteps + 1), dt)

    forcings = forcing_spy(monkeypatch)
    out, diag = picard_sweep(x, params)
    inside = interior(grid)

    u, sg, tau = u0, s0, t0
    for k in range(nsteps):
        wk, pk, qk = x.w[k + 1], x.pi[k + 1], x.psi[k + 1]
        cm = trace(wk, dt)
        Fk = assemble_forcing(wk, cm.grad_w, viscous_operator(wk), pk, qk,
                              params)
        u, _ = step_velocity(u, Fk, dt, params)
        sg, _ = step_density(sg, cm, params)
        tau, _ = step_stress(tau, cm, params)
        assert np.array_equal(forcings[k].values[inside], Fk.values[inside])
        assert np.array_equal(out.w[k + 1].values, u.values)
        assert np.array_equal(out.pi[k + 1].values, sg.values)
        assert np.array_equal(out.psi[k + 1].values, tau.values)
    assert out.w[0] is u0 and out.pi[0] is s0 and out.psi[0] is t0
    assert len(forcings) == len(diag.velocity_reports) == nsteps


def test_sweep_differentiates_each_frozen_node_once(monkeypatch):
    # N steps freeze nodes 1..N: each step's forcing reuses the gradient
    # its trace took and takes the density gradient once; no step reads the
    # forcing at node 0, so none is assembled there
    grid, params, u0, s0, t0 = small_preset(12)
    nsteps = 4
    x = IterTriple.constant(u0, s0, t0, nsteps, 1e-3)
    calls = counting(monkeypatch, (fixed_point, rheology, transport),
                     ["grad_tensor", "gradient"])
    forcings = forcing_spy(monkeypatch)
    picard_sweep(x, params)
    assert len(forcings) == nsteps
    assert calls == {"grad_tensor": nsteps, "gradient": nsteps}


def test_sweep_takes_no_whole_grid_viscous_operator(monkeypatch):
    # a step reads only the interior rows of A w, which the stencil gives;
    # the whole-grid composition `viscous_operator` builds is never taken
    grid, params, u0, s0, t0 = small_preset(12)
    nsteps = 4
    x = IterTriple.constant(u0, s0, t0, nsteps, 1e-3)
    calls = counting(monkeypatch,
                     (fields, fixed_point, rheology, transport, velocity),
                     ["viscous_operator", "viscous_interior"])
    picard_sweep(x, params)
    picard_sweep(x, params, seidel=True)
    assert calls == {"viscous_operator": 0, "viscous_interior": 2 * nsteps}


def test_default_sweep_forcing_reads_the_input_node(monkeypatch):
    # the paper's map, which `run` iterates and audits: step k's forcing
    # is assembled from the input trajectory's node k+1 alone, and its
    # interior rows are the whole-grid forcing's to the bit
    grid, params, u0, s0, t0 = small_preset(16)
    x = picard_sweep(IterTriple.constant(u0, s0, t0, 4, 1e-3), params)[0]
    forcings = forcing_spy(monkeypatch)
    picard_sweep(x, params)
    assert len(forcings) == x.nsteps
    inside = interior(grid)
    for k in range(x.nsteps):
        w = x.w[k + 1]
        F = assemble_forcing(w, grad_tensor(w), viscous_operator(w),
                             x.pi[k + 1], x.psi[k + 1], params)
        assert np.array_equal(forcings[k].values[inside], F.values[inside])


def test_seidel_sweep_reads_the_fresh_density_and_stress(monkeypatch):
    # a Gauss-Seidel sweep is the default sweep of the input that carries,
    # at node k+1, the density and stress step k produced: those and the
    # forcings are bit-identical, and the velocity, whose CG starts from
    # the input node instead of the previous step, agrees within the
    # linear tolerance: alpha I + dt (1-omega) A_h >= alpha I, so each
    # step adds at most the two solves' weighted residuals over alpha to
    # the gap it inherits
    grid, params, u0, s0, t0 = small_preset(16)
    x = picard_sweep(IterTriple.constant(u0, s0, t0, 4, 1e-3), params)[0]
    forcings = forcing_spy(monkeypatch)
    gs, gs_diag = picard_sweep(x, params, seidel=True)
    fresh = IterTriple(x.w, (x.pi[0],) + gs.pi[1:],
                       (x.psi[0],) + gs.psi[1:], x.dt)
    jac, jac_diag = picard_sweep(fresh, params)
    gs_forcings, jac_forcings = forcings[:x.nsteps], forcings[x.nsteps:]
    assert len(jac_forcings) == x.nsteps
    bound = 0.0
    for k in range(x.nsteps):
        assert np.array_equal(gs_forcings[k].values, jac_forcings[k].values)
        assert np.array_equal(gs.pi[k + 1].values, jac.pi[k + 1].values)
        assert np.array_equal(gs.psi[k + 1].values, jac.psi[k + 1].values)
        bound += (gs_diag.velocity_reports[k].residual_norm
                  + jac_diag.velocity_reports[k].residual_norm) / params.alpha
        assert 0.0 < norm(gs.w[k + 1] - jac.w[k + 1], 0) <= bound
        assert gs_diag.velocity_reports[k].residual <= 1e-10


def test_zero_forcing_assembles_to_zero():
    grid, params, _, _, _ = small_preset(12)
    z_w = VectorField.zeros(grid, dirichlet=True)
    z_s = ScalarField(grid, np.zeros(grid.node_shape))
    z_t = SymTensorField.zeros(grid)
    F = assemble_forcing(z_w, grad_tensor(z_w), viscous_operator(z_w), z_s,
                         z_t, params)
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


def _reflected(f, axis):
    """f under x_axis -> L - x_axis: velocity component axis and the
    stress components with exactly one index equal to axis change sign."""
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, np.flip(f.values, axis))
    if isinstance(f, VectorField):
        signs = [-1.0 if i == axis else 1.0 for i in range(f.grid.dim)]
    else:
        signs = [-1.0 if (i == axis) != (j == axis) else 1.0
                 for i, j in sym_components(f.grid.dim)]
    signs = np.reshape(signs, (-1,) + (1,) * f.grid.dim)
    return type(f)(f.grid, np.flip(f.values, axis + 1) * signs, **f._flags())


def _permuted(f, perm):
    """f with new axis i read from old axis perm[i], its components too."""
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, np.transpose(f.values, perm))
    if isinstance(f, VectorField):
        comps = list(perm)
    else:
        index = {ij: k for k, ij in enumerate(sym_components(f.grid.dim))}
        comps = [index[tuple(sorted((perm[i], perm[j])))]
                 for i, j in sym_components(f.grid.dim)]
    vals = np.stack([np.transpose(f.values[c], perm) for c in comps])
    return type(f)(f.grid, vals, **f._flags())


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sweep_commutes_with_the_grid_symmetries(dim, data):
    # the frame-indifferent equations on a square or cubic box: reflecting
    # or permuting the axes of the data reflects or permutes the sweep
    n = data.draw(st.integers(8, 12 if dim == 2 else 10), label="n")
    nsteps = data.draw(st.integers(2, 3), label="nsteps")
    dt = data.draw(st.floats(1e-3, 1e-2), label="dt")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    grid = Grid(dim, n)
    x = IterTriple(*([random_smooth_field(grid, rng, kind=kind)
                      for _ in range(nsteps + 1)]
                     for kind in ("vector", "scalar_free", "symtensor")), dt)
    params = FluidParams()
    out = picard_sweep(x, params)[0]
    if dim == 2:
        maps = [lambda f: _reflected(f, 0), lambda f: _reflected(f, 1),
                lambda f: _permuted(f, (1, 0))]
    else:
        maps = [lambda f: _reflected(f, 2), lambda f: _permuted(f, (1, 2, 0))]
    for g in maps:
        moved = picard_sweep(IterTriple(*([g(f) for f in fs] for fs in
                                          (x.w, x.pi, x.psi)), dt),
                             params)[0]
        for fs, gs in zip((out.w, out.pi, out.psi),
                          (moved.w, moved.pi, moved.psi)):
            for f, h in zip(fs, gs):
                scale = np.abs(f.values).max()
                assert np.abs(g(f).values - h.values).max() <= 1e-12 * scale


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


def test_membership_fails_closed_on_a_nan_node():
    # a NaN usage is not within its budget, and Python's min/max would skip
    # a NaN density node that does not come first
    grid = Grid.unit(8)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    zero = IterTriple.constant(VectorField.zeros(grid, dirichlet=True),
                               ScalarField.zeros(grid),
                               SymTensorField.zeros(grid), 2, 0.1)
    nan = ScalarField(grid, np.full(grid.node_shape, np.nan))
    bad = IterTriple(zero.w, (zero.pi[0], nan, zero.pi[2]), zero.psi, 0.1)
    rep = check_membership(bad, 1.0, 1.0, params)
    assert not rep.passed
    assert rep.violations == ("data budget", "rate budget", "density band")
    assert math.isnan(rep.density_min) and math.isnan(rep.density_max)
    assert math.isnan(rep.slack_min)
    assert all(type(v) is float
               for v in (rep.density_min, rep.density_max, rep.slack_min))


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_membership_budgets_are_the_audit_sums(dim, data):
    ws, pis, psis, dt = draw_trajectory(data, dim)
    params = FluidParams(We=0.5)
    mem = check_membership(IterTriple(ws, pis, psis, dt), 1.0, 1.0, params)
    table = trajectory_norms(ws, pis, psis, dt)
    dens = check_density_bounds(table, params)
    stress = check_stress_bounds(table, params)
    assert mem.velocity_budget == pytest.approx(table.velocity_budget,
                                                rel=1e-14, abs=0.0)
    assert mem.data_budget == pytest.approx(dens.sup_h2 + stress.sup_h2,
                                            rel=1e-14, abs=0.0)
    assert mem.rate_budget == pytest.approx(
        table.pi_rate[:, 1].max() + table.psi_rate[:, 1].max(),
        rel=1e-14, abs=0.0)


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
    assert hist.iterations == 1
    assert hist.distances == (0.0,)
    assert math.isnan(hist.ratios[0])
    assert not sol.w[-1].values.any()


def test_iterate_converges_monotonically(converged32):
    hist = converged32.hist
    assert hist.distances[-1] <= 1e-8
    assert hist.iterations <= 20
    d = hist.distances
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
    assert max(hist.ratios[1:]) < 0.9
    assert hist.membership.passed
    assert min(hist.slack_mins) > 0.0


def test_iterate_warms_every_sweep_but_the_first(monkeypatch):
    # on the small-data preset (the `smalldata2d` config, n=32) a warm
    # start from the input velocity keeps the sweep count and saves CG
    # iterations against every sweep cold; the first sweep is cold
    grid, params, u0, s0, t0 = small_preset(32)
    real = fixed_point.picard_sweep

    def run(cold):
        warms, iters = [], []

        def sweep(*args, **kwargs):
            if cold:
                kwargs["warm"] = False
            warms.append(kwargs.get("warm", False))
            out, diag = real(*args, **kwargs)
            iters.append(sum(r.iterations for r in diag.velocity_reports))
            return out, diag

        monkeypatch.setattr(fixed_point, "picard_sweep", sweep)
        hist = iterate(u0, s0, t0, params, T=0.01, dt=1e-3)[1]
        return hist, warms, iters

    warm_hist, warms, warm_iters = run(cold=False)
    cold_hist, _, cold_iters = run(cold=True)
    assert warms == [False] + [True] * (warm_hist.iterations - 1)
    assert warm_hist.iterations == cold_hist.iterations > 2
    assert warm_iters[0] == cold_iters[0]
    assert sum(warm_iters) < sum(cold_iters)


def test_iterate_norms_node_0_once(monkeypatch):
    # every sweep passes node 0 through, so one iterate call norms it once
    # and reuses its rows; the returned table is the solution's own
    grid, params, u0, s0, t0 = small_preset(12)
    firsts = []
    real = fields._batched_norms

    def batched(nodes, k, dt=None):
        if dt is None:
            firsts.append(nodes[0])
        return real(nodes, k, dt)

    monkeypatch.setattr(fields, "_batched_norms", batched)
    sol, hist = iterate(u0, s0, t0, params, T=5e-3, dt=1e-3)
    assert hist.iterations > 2
    assert len(firsts) == 3 * hist.iterations
    assert [sum(f is x for f in firsts) for x in (u0, s0, t0)] == [1, 1, 1]
    fresh = trajectory_norms(sol.w, sol.pi, sol.psi, sol.dt)
    for name in ("w", "w_rate", "pi", "pi_rate", "psi", "psi_rate"):
        assert np.array_equal(getattr(hist.membership.table, name),
                              getattr(fresh, name))


@pytest.mark.parametrize("name", ["converged32", "converged64"])
def test_distances_contract_over_two_sweeps(request, name):
    # every two-sweep factor d_k / d_{k-2} over the last four sweeps is at
    # most 0.25 (measured: 0.142 at n=32, 0.178 at n=64), while the
    # per-sweep ratio alternates between small and large values
    d = request.getfixturevalue(name).hist.distances
    assert len(d) >= 6
    assert max(d[k] / d[k - 2] for k in range(len(d) - 4, len(d))) <= 0.25


def test_per_sweep_ratio_is_not_a_contraction_bound(converged64):
    # at n=64 one sweep grows the distance (worst ratio 1.022) although the
    # two-sweep factors above contract
    assert max(converged64.hist.ratios[1:]) > 1.0


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
    # the whole-grid forcings apply A once per node of the window, and at
    # node 0 F(0) and the regularity bracket share it; the extra sweep
    # takes only the stencil's interior rows; the energy check applies A
    # once per swept node, with each step's dissipation read from it;
    # strain and divergence come from one gradient per node, not from
    # separate derivatives
    c = converged32
    nsteps = c.sol.nsteps
    calls = counting(monkeypatch, (fixed_point, rheology, transport, velocity),
                     ["viscous_operator", "divergence", "strain"])
    audit = audit_window(c.sol, c.params)
    assert calls["viscous_operator"] == 2 * nsteps + 1
    assert calls["divergence"] == calls["strain"] == 0
    assert audit.out.w[0] is c.sol.w[0]
    assert audit.residual == c.audit.residual
    assert audit.energy.dissipation_slack == c.audit.energy.dissipation_slack


def test_audit_forcings_are_the_whole_grid_forcings_of_the_window(
        converged32):
    # the energy and regularity checks read F(t_k), the whole-grid forcing
    # of node k of the audited window, for every k = 0..N: its boundary
    # rows too, which the sweep's forcings do not carry
    c, audit = converged32, converged32.audit
    Fs = window_forcings(c.sol, c.params)
    residual_norms = [r.residual_norm for r in audit.diag.velocity_reports]
    energy = check_energy_budget(audit.table, audit.out.w, Fs, c.params,
                                 residual_norms)
    assert (energy.lhs, energy.rhs) == (audit.energy.lhs, audit.energy.rhs)
    assert energy.dissipation_slack == audit.energy.dissipation_slack
    assert check_regularity_budget(
        audit.table, viscous_operator(c.sol.w[0]), Fs) == audit.regularity


def test_audit_table_reuses_node_0_rows_bit_for_bit(converged32):
    # the audit sweep passes node 0 through, so the solution table's node-0
    # rows serve the audit table, which equals one normed from scratch
    c = converged32
    audit = audit_window(c.sol, c.params,
                         first_rows=c.hist.membership.table.first_rows)
    out = audit.out
    fresh = trajectory_norms(out.w, out.pi, out.psi, out.dt)
    for name in ("w", "w_rate", "pi", "pi_rate", "psi", "psi_rate"):
        assert np.array_equal(getattr(audit.table, name),
                              getattr(fresh, name)), name
        assert np.array_equal(getattr(audit.table, name),
                              getattr(c.audit.table, name)), name


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
    for T in (0.0, np.nan):
        with pytest.raises(ConfigError, match="positive"):
            iterate(u0, s0, t0, params, T=T, dt=1e-3)
    with pytest.raises(ConfigError, match="whole number"):
        iterate(u0, s0, t0, params, T=0.0105, dt=1e-3)


@pytest.mark.parametrize("solve", [iterate, march])
@pytest.mark.parametrize("field", ["u0", "sigma0", "tau0"])
def test_non_finite_initial_data_is_a_config_error(field, solve):
    # a NaN fails every comparison, so the drift and band tests alone
    # would wave it through; one interior NaN node in any field is refused
    grid, params, u0, s0, t0 = small_preset(8)
    data = {"u0": u0, "sigma0": s0, "tau0": t0}
    vals = data[field].values.copy()
    vals[..., 3, 3] = np.nan
    data[field] = (VectorField(grid, vals, dirichlet=True) if field == "u0"
                   else type(data[field])(grid, vals))
    with pytest.raises(ConfigError, match=f"initial .*{field} has a non-finite"):
        solve(data["u0"], data["sigma0"], data["tau0"], params,
              T=2e-3, dt=1e-3)


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
    # fixed point the whole-window sweeps reach, to the solver tolerance;
    # its history carries the norm table of exactly that trajectory
    c = converged32
    sol, hist = march(c.u0, c.s0, c.t0, c.params, T=0.01, dt=1e-3)
    assert sol.nsteps == 10 and sol.w[0] is c.u0
    assert hist.iterations == 1
    assert hist.distances[0] <= 1e-8
    assert hist.membership.passed
    assert trajectory_distance(sol, c.sol, c.params) <= 1e-8
    table = trajectory_norms(sol.w, sol.pi, sol.psi, sol.dt)
    for name in ("w", "w_rate", "pi", "pi_rate", "psi", "psi_rate"):
        assert np.array_equal(getattr(hist.membership.table, name),
                              getattr(table, name))


def test_march_certifies_long_window():
    # where the whole-window sweeps stop contracting (see the test above),
    # each one-step window still contracts: the marched trajectory is a
    # discrete fixed point of the window map, certified by one sweep
    grid, params, u0, s0, t0 = small_preset(32)
    sol, hist = march(u0, s0, t0, params, T=0.08, dt=1e-3)
    assert hist.iterations == 1
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


def _counted_march(monkeypatch, *args, **kwargs):
    """`march` with its `picard_sweep` calls and CG iterations counted at
    the module globals it looks them up by."""
    counts = {"sweeps": 0, "cg_iters": 0}
    sweep, solve = fixed_point.picard_sweep, fixed_point.step_velocity

    def counted_sweep(*a, **kw):
        counts["sweeps"] += 1
        return sweep(*a, **kw)

    def counted_solve(*a, **kw):
        u, rep = solve(*a, **kw)
        counts["cg_iters"] += rep.iterations
        return u, rep

    monkeypatch.setattr(fixed_point, "picard_sweep", counted_sweep)
    monkeypatch.setattr(fixed_point, "step_velocity", counted_solve)
    return march(*args, **kwargs), counts


def test_march_sweeps_through_the_module_picard_sweep(monkeypatch):
    """Every local sweep and the certifying sweep call the module global
    `fixed_point.picard_sweep`: perfbench's set-up marker
    (`perfbench/layers.py` `FIRST_WORK`) is the first call of that name, so
    a march that bypassed it would count its own work as set-up."""
    grid, params, u0, s0, t0 = small_preset(16)
    (sol, hist), counts = _counted_march(monkeypatch, u0, s0, t0, params,
                                         T=5e-3, dt=1e-3)
    assert len(hist.local_sweeps) == 5 and min(hist.local_sweeps) >= 1
    assert hist.iterations == 1
    assert counts["sweeps"] == sum(hist.local_sweeps) + hist.iterations


def test_march_work_is_bounded(monkeypatch):
    # Gauss-Seidel windows, warm-started CG and extrapolated step guesses:
    # fixed at the measured counts (the Jacobi march took 92 sweeps and
    # 606 CG iterations), which a change may lower but not raise
    grid, params, u0, s0, t0 = compressive_preset(16)
    (sol, hist), counts = _counted_march(monkeypatch, u0, s0, t0, params,
                                         T=0.01, dt=1e-3, max_iter=25)
    assert hist.distances[0] <= 1e-8
    assert counts["sweeps"] <= 58
    assert counts["cg_iters"] <= 216


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


def test_probe_refuses_zero_amplitude(converged32):
    # a zero amplitude measures one gap and no shrink ratio, so the
    # linearity verdict would pass on an empty measurement
    for delta in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            continuity_probe(converged32.sol, delta, converged32.params)


def test_probe_stress_only_leaves_density_alone(converged32):
    # one sweep of a stress-only perturbation reaches the velocity through
    # the momentum forcing but cannot touch the density update
    rep = continuity_probe(converged32.sol, 1e-3, converged32.params,
                           components="s")
    assert rep.density_gaps == (0.0, 0.0, 0.0)
    assert all(g > 0.0 for g in rep.velocity_gaps)


def test_probe_validates_arguments(converged32):
    with pytest.raises(ValueError, match="positive"):
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
    table = converged32.hist.membership.table
    cap = delta_threshold(params)
    with pytest.raises(ConfigError, match="must lie in"):
        uniqueness_experiment(sol, table, sol, table, cap * 1.01, params)
    with pytest.raises(ConfigError, match="must lie in"):
        uniqueness_experiment(sol, table, sol, table, 0.0, params)


def test_gap_experiment_rejects_mismatched_runs(converged32):
    grid, params, u0, s0, t0 = small_preset(32)
    short = IterTriple.constant(u0, s0, t0, 3, 1e-3)
    table = converged32.hist.membership.table
    short_table = trajectory_norms(short.w, short.pi, short.psi, short.dt)
    with pytest.raises(ValueError, match="not comparable"):
        uniqueness_experiment(converged32.sol, table, short, short_table,
                              1.0, params)
    with pytest.raises(ValueError, match="not comparable"):
        uniqueness_experiment(converged32.sol, short_table, converged32.sol,
                              table, 1.0, params)


def test_gap_experiment_reads_every_solution_norm_from_the_tables(
        gronwall32, monkeypatch):
    # the growth rate's norms come from the two certified solutions' tables:
    # the experiment takes no norm beyond the L2 gaps of the gap energy
    g = gronwall32
    calls = counting(monkeypatch, (fields, fixed_point), ["norm", "norms"])
    fixed_point._gap_energies(g.sol, g.solp, g.params)
    gap_calls = dict(calls)
    assert gap_calls["norm"] > 0
    uniqueness_experiment(g.sol, g.table, g.solp, g.tablep, 1.0, g.params)
    assert {k: calls[k] - gap_calls[k] for k in calls} == gap_calls


def test_identical_data_land_on_same_trajectory(converged32):
    # start the sweeps from a different (still pinned) guess: the limits
    # must agree to within the solver tolerance budget
    c = converged32
    nudge = picard_sweep(
        IterTriple.constant(c.u0, c.s0, c.t0, 10, 1e-3), c.params)[0]
    sol_b, hist_b = iterate(c.u0, c.s0, c.t0, c.params, T=0.01,
                            dt=1e-3, initial_guess=nudge)
    assert hist_b.distances[-1] <= 1e-8
    rep = uniqueness_experiment(c.sol, c.hist.membership.table, sol_b,
                                hist_b.membership.table, 1.0, c.params,
                                fp_tol=1e-8)
    assert rep.identical
    assert rep.satisfied
    assert max(rep.gap_energy) <= (10.0 * 1e-8) ** 2


def test_dissipative_pair_needs_no_growth_constant(converged32):
    # a centered density bump on the gentle vortex decays outright, so the
    # smallest closing constant is exactly zero and the flat envelope holds
    c = converged32
    pert = centered_bump_perturbation(c.grid)
    solp, histp = iterate(c.u0, c.s0 + pert, c.t0, c.params, T=0.01,
                          dt=1e-3)
    rep = uniqueness_experiment(c.sol, c.hist.membership.table, solp,
                                histp.membership.table, 1.0, c.params)
    assert not rep.identical
    assert rep.c12 == 0.0
    assert rep.satisfied
    assert max(rep.gap_energy) <= rep.gap_energy[0]


def test_compressive_pair_fits_positive_constant(gronwall32):
    g = gronwall32
    rep = uniqueness_experiment(g.sol, g.table, g.solp, g.tablep, 1.0,
                                g.params)
    assert not rep.identical
    assert 1e-4 < rep.c12 < 1e-1
    assert max(rep.gap_energy) > rep.gap_energy[0]  # genuine growth
    assert rep.satisfied
    assert rep.max_ratio <= 1.0 + 1e-12

    held = uniqueness_experiment(g.sol, g.table, g.solp, g.tablep, 1.0,
                                 g.params, c12=rep.c12, slack=0.05)
    assert held.c12 == rep.c12
    assert held.satisfied


def test_coarse_constant_held_on_the_fine_pair_reads_below_one(gronwall32,
                                                              gronwall64):
    # the fitted envelope closes by construction; the n=32 constant held
    # on the n=64 pair is a measurement, and it stays inside its envelope
    # at every step k >= 1 (e_0 / envelope_0 = 1 is not counted)
    g32, g64 = gronwall32, gronwall64
    fit = uniqueness_experiment(g32.sol, g32.table, g32.solp, g32.tablep,
                                1.0, g32.params)
    held = uniqueness_experiment(g64.sol, g64.table, g64.solp, g64.tablep,
                                 1.0, g64.params, c12=fit.c12)
    assert held.c12 == fit.c12
    assert held.max_ratio < 1.0
    assert held.satisfied
