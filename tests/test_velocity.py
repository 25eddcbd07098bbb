"""Backward-Euler velocity subproblem: solver, budgets, convergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroydb import (FluidParams, Grid, LinearSolveError, NonDirichletError,
                      ScalarField, SymTensorField, VectorField, divergence,
                      inner, norm, strain, trajectory_norms,
                      viscous_operator)
from oldroydb import mms
from oldroydb.mms import (taylor_vortex, velocity_spatial_study,
                          velocity_temporal_study)
from oldroydb.velocity import (check_energy_budget, check_regularity_budget,
                               step_velocity)

from conftest import draw_trajectory, random_smooth_field, run_velocity

PARAMS = FluidParams()


def diff_norm(a, b):
    return norm(VectorField(a.grid, a.values - b.values), 0)


def velocity_table(us, dt):
    """The `trajectory_norms` table of a velocity trajectory with zero
    density and stress."""
    grid = us[0].grid
    return trajectory_norms(us, [ScalarField.zeros(grid)] * len(us),
                            [SymTensorField.zeros(grid)] * len(us), dt)


def regularity(us, Fs, dt):
    return check_regularity_budget(velocity_table(us, dt),
                                   viscous_operator(us[0]), Fs)


def energy(us, Fs, dt, residual_norms):
    return check_energy_budget(velocity_table(us, dt), us, Fs, PARAMS,
                               residual_norms)


# ---------------------------------------------------------------------------
# single step


def test_zero_data_stays_zero():
    grid = Grid.unit(8)
    u, rep = step_velocity(VectorField.zeros(grid, dirichlet=True),
                           VectorField.zeros(grid), 1e-2, PARAMS)
    assert np.all(u.values == 0.0)
    assert rep.iterations == 0 and rep.residual == 0.0


def test_steady_manufactured_state():
    # F = (1-omega) A_h u*, u_prev = u*: the step must return u* back
    grid = Grid.unit(16)
    star = taylor_vortex(grid)
    F = VectorField(grid, (1.0 - PARAMS.omega)
                    * viscous_operator(star).values)
    u, rep = step_velocity(star, F, 1e-2, PARAMS, tol_lin=1e-10)
    assert diff_norm(u, star) / norm(star, 0) < 1e-8
    assert rep.residual <= 1e-10


def test_homogeneous_decay_contracts():
    grid = Grid.unit(16)
    u0 = random_smooth_field(grid, np.random.default_rng(0), kind="vector")
    u, rep = step_velocity(u0, VectorField.zeros(grid), 5e-3, PARAMS)
    assert norm(u, 0) < norm(u0, 0)
    assert rep.iterations > 0
    assert rep.residual <= 1e-10


def test_step_is_linear_superposition():
    grid = Grid.unit(12)
    rng = np.random.default_rng(1)
    u1 = random_smooth_field(grid, rng, kind="vector")
    u2 = random_smooth_field(grid, rng, kind="vector")
    F1 = random_smooth_field(grid, rng, kind="vector")
    F2 = random_smooth_field(grid, rng, kind="vector")
    dt = 4e-3
    a, _ = step_velocity(u1, F1, dt, PARAMS)
    b, _ = step_velocity(u2, F2, dt, PARAMS)
    both, _ = step_velocity(VectorField(grid, u1.values + u2.values,
                                        dirichlet=True),
                            VectorField(grid, F1.values + F2.values),
                            dt, PARAMS)
    assert diff_norm(both, VectorField(grid, a.values + b.values)) < 1e-8


def test_step_rejects_bad_dt_and_boundary_data():
    grid = Grid.unit(8)
    u0 = VectorField.zeros(grid, dirichlet=True)
    with pytest.raises(ValueError):
        step_velocity(u0, VectorField.zeros(grid), 0.0, PARAMS)
    leaky = VectorField(grid, np.ones((2,) + grid.node_shape))
    with pytest.raises(NonDirichletError):
        step_velocity(leaky, VectorField.zeros(grid), 1e-2, PARAMS)


def test_step_reports_nonconvergence():
    # one PCG iteration cannot solve a stiff step; the true-residual check
    # must give up loudly rather than return a bad field
    grid = Grid.unit(16)
    u0 = random_smooth_field(grid, np.random.default_rng(2), kind="vector")
    with pytest.raises(LinearSolveError, match="stalled"):
        step_velocity(u0, VectorField.zeros(grid), 10.0, PARAMS,
                      tol_lin=1e-12, max_iter=1)


def test_nan_forcing_stops_the_solve_at_once():
    # no iteration brings a NaN residual under tolerance: CG gives up at
    # its first residual check instead of running to max_iter
    grid = Grid.unit(64)
    F = VectorField.zeros(grid)
    F.values[0, 30, 30] = np.nan
    with pytest.raises(LinearSolveError, match=r", [01] iterations\)"):
        step_velocity(VectorField.zeros(grid, dirichlet=True), F, 1e-3,
                      PARAMS)


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (2, 128), (3, 16),
                                   (3, 32), (2, (32, 48)), (3, (16, 12, 20))])
def test_pcg_iterations_bounded_across_grids_and_steps(dim, n):
    # the sine-basis preconditioner keeps cold solves at a fixed iteration
    # bound whatever n, the extents and dt: plain CG took 18-620 here
    extent = 1.0 if np.isscalar(n) else (1.0, 0.6, 1.3)[:dim]
    grid = Grid(dim, n, extent)
    rng = np.random.default_rng(5)
    for F in (random_smooth_field(grid, rng, kind="vector"),
              VectorField(grid, rng.normal(size=(dim,) + grid.node_shape))):
        for dt in (1e-3, 1e-1, 10.0):
            _, rep = step_velocity(VectorField.zeros(grid, dirichlet=True), F,
                                   dt, PARAMS, tol_lin=1e-10)
            assert rep.residual <= 1e-10
            assert rep.iterations <= 16, (n, dt, rep.iterations)


# ---------------------------------------------------------------------------
# trajectory budgets


def driven_run(n=16, T=0.05, dt=5e-3, amp=0.3, at_rest=False):
    grid = Grid.unit(n)
    u0 = (VectorField.zeros(grid, dirichlet=True) if at_rest
          else taylor_vortex(grid))
    base = taylor_vortex(grid).values

    def forcing(t):
        return VectorField(grid, amp * np.cos(3.0 * t) * base)

    times, us, Fs, reports = run_velocity(u0, forcing, T, dt, PARAMS)
    return grid, us, Fs, reports, dt


def test_energy_budget_zero_trajectory():
    grid = Grid.unit(8)
    zero = VectorField.zeros(grid, dirichlet=True)
    rep = energy([zero] * 4, [VectorField.zeros(grid)] * 4, 1e-2, [0.0] * 3)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied
    assert rep.dissipation_slack == (0.0,) * 3 and rep.dissipation_satisfied


def test_energy_budget_driven_run():
    _, us, Fs, reports, dt = driven_run()
    rep = energy(us, Fs, dt, [r.residual_norm for r in reports])
    assert rep.satisfied
    assert rep.lhs <= rep.rhs * (1.0 + 10.0 * dt)
    assert rep.lhs_history.shape == (len(us),)
    # histories are cumulative
    assert np.all(np.diff(rep.rhs_history) >= 0.0)


def test_energy_budget_forcing_scaling_is_exactly_quartic():
    # from rest the initial-strain term is exactly zero, so the right side
    # at each node is the forcing integral up to that node
    _, us, Fs, reports, dt = driven_run(at_rest=True)
    res = [r.residual_norm for r in reports]
    base = energy(us, Fs, dt, res)
    doubled = [VectorField(F.grid, 2.0 * F.values) for F in Fs]
    scaled = energy(us, doubled, dt, res)
    assert base.rhs_history[0] == 0.0 and base.rhs_history[-1] > 0.0
    assert np.array_equal(scaled.rhs_history, 4.0 * base.rhs_history)


def test_dissipation_inequality_every_step():
    _, us, Fs, reports, dt = driven_run()
    rep = energy(us, Fs, dt, [r.residual_norm for r in reports])
    assert len(rep.dissipation_slack) == len(reports)
    assert rep.dissipation_satisfied, rep.dissipation_slack


def separate_energy_checks(us, Fs, dt, residual_norms):
    """The energy inequality and each step's dissipation inequality, every
    norm, operator, strain and divergence taken by its own call per node:
    returns (lhs_history, rhs_history, dissipation slacks, dissipation
    satisfied)."""
    om, alpha = PARAMS.omega, PARAMS.alpha

    def strain_pieces(u):
        return norm(strain(u), 0) ** 2, norm(divergence(u), 0) ** 2

    sup_d, sup_c = strain_pieces(us[0])
    initial = 4.0 * (1.0 - om) * sup_d
    lhs, rhs = [(1.0 - om) * (sup_d + sup_c)], [initial]
    rate_int = visc_int = forcing_int = 0.0
    slacks, ok = [], True
    for n in range(1, len(us)):
        rate = VectorField(us[n].grid, (us[n].values - us[n - 1].values) / dt)
        rate_int += dt * norm(rate, 0) ** 2
        visc_int += dt * norm(viscous_operator(us[n]), 0) ** 2
        forcing_int += dt * norm(Fs[n], 0) ** 2
        dn, cn = strain_pieces(us[n])
        sup_d, sup_c = max(sup_d, dn), max(sup_c, cn)
        lhs.append(0.5 * alpha * rate_int + 0.5 * (1.0 - om) ** 2 * visc_int
                   + (1.0 - om) * (sup_d + sup_c))
        rhs.append(initial + forcing_int)

        u1sq = norm(us[n], 0) ** 2
        step_lhs = (alpha * (u1sq - norm(us[n - 1], 0) ** 2) / (2.0 * dt)
                    + (1.0 - om) * inner(viscous_operator(us[n]), us[n]))
        step_rhs = (inner(Fs[n], us[n])
                    + residual_norms[n - 1] * np.sqrt(u1sq) / dt)
        slacks.append(step_rhs - step_lhs)
        scale = max(1.0, abs(step_lhs), abs(step_rhs))
        ok = ok and bool(step_lhs <= step_rhs + 1e-11 * scale)
    return lhs, rhs, tuple(slacks), ok


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_energy_check_matches_separate_checks(dim, data):
    # one gradient and one A u per node give, bit for bit, what separate
    # norm, operator, strain, divergence and inner-product calls give
    us, _, _, dt = draw_trajectory(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="forcing seed"))
    Fs = [random_smooth_field(us[0].grid, rng) for _ in us]
    residual_norms = data.draw(
        st.lists(st.floats(0.0, 1e-3), min_size=len(us) - 1,
                 max_size=len(us) - 1), label="residual norms")
    rep = energy(us, Fs, dt, residual_norms)
    lhs, rhs, slacks, ok = separate_energy_checks(us, Fs, dt, residual_norms)
    assert rep.lhs_history.tolist() == lhs
    assert rep.rhs_history.tolist() == rhs
    assert rep.lhs == lhs[-1] and rep.rhs == rhs[-1]
    assert rep.slack == rhs[-1] * (1.0 + 10.0 * dt) - lhs[-1]
    assert rep.dissipation_slack == slacks
    assert rep.dissipation_satisfied == ok


def test_regularity_zero_data_is_vacuous():
    grid = Grid.unit(8)
    zero = VectorField.zeros(grid, dirichlet=True)
    rep = regularity([zero] * 4, [VectorField.zeros(grid)] * 4, 1e-2)
    assert rep.vacuous
    assert np.isnan(rep.c1_emp)


def test_regularity_constant_forcing_kills_rate_term():
    grid = Grid.unit(12)
    u0 = taylor_vortex(grid)
    Fconst = VectorField(grid, 0.4 * u0.values)
    _, us, Fs, _ = run_velocity(u0, lambda t: Fconst, 0.03, 3e-3, PARAMS)
    rep = regularity(us, Fs, 3e-3)
    assert not rep.vacuous
    # F' is exactly zero, so the bracket is ||A u0||^2 + ||F(0)||^2 +
    # ||F||_{L2 H1}^2 to the bit
    table = velocity_table(us, 3e-3)
    bracket = (norm(viscous_operator(u0), 0) ** 2 + norm(Fs[0], 0) ** 2
               + table.integral(norm(F, 1) ** 2 for F in Fs[1:]))
    assert rep.c1_emp == table.velocity_budget / bracket


def test_regularity_ratio_stable_under_refinement():
    def c1_at(n):
        grid = Grid.unit(n)
        base = taylor_vortex(grid).values

        def forcing(t):
            return VectorField(grid, 0.3 * np.cos(3.0 * t) * base)

        _, us, Fs, _ = run_velocity(taylor_vortex(grid), forcing,
                                    0.05, 5e-3, PARAMS)
        return regularity(us, Fs, 5e-3).c1_emp

    c32, c64 = c1_at(32), c1_at(64)
    assert np.isfinite(c32) and np.isfinite(c64)
    assert c64 <= 1.2 * c32


def test_budget_checks_validate_lengths():
    grid = Grid.unit(8)
    zero = VectorField.zeros(grid, dirichlet=True)
    with pytest.raises(ValueError, match="forcing sample"):
        energy([zero] * 3, [VectorField.zeros(grid)] * 2, 1e-2, [0.0] * 2)
    with pytest.raises(ValueError, match="residual norm"):
        energy([zero] * 3, [VectorField.zeros(grid)] * 3, 1e-2, [0.0])
    with pytest.raises(ValueError):
        regularity([zero] * 3, [VectorField.zeros(grid)] * 2, 1e-2)


# ---------------------------------------------------------------------------
# manufactured-solution convergence


def test_spatial_convergence_second_order():
    res = velocity_spatial_study(PARAMS)
    assert res.passed, res
    assert all(o >= 1.8 for o in res.orders)


def test_temporal_convergence_first_order():
    res = velocity_temporal_study(PARAMS)
    assert res.passed, res
    assert all(o >= 0.9 for o in res.orders)


@pytest.mark.parametrize("n, T, nsteps, tol_lin",
                         [(16, 0.04, 8, 1e-10), (24, 0.05, 8, 1e-11)],
                         ids=["spatial-rung", "temporal-rung"])
def test_ladder_rung_keeps_one_velocity_with_the_trajectory_bits(
        n, T, nsteps, tol_lin):
    # a rung of each velocity ladder holds only its current velocity; its
    # final velocity is the last node of the whole trajectory, to the bit
    grid = Grid.unit(n)
    vort, forcing = mms._decaying_vortex(grid, PARAMS)
    final = mms._final_velocity(vort, forcing, nsteps, T / nsteps, PARAMS,
                                tol_lin)
    _, us, _, _ = run_velocity(vort, forcing, T, T / nsteps, PARAMS,
                               tol_lin=tol_lin)
    assert len(us) == nsteps + 1
    assert final.dirichlet
    assert np.array_equal(final.values, us[-1].values)


def test_spatial_study_peak_memory_is_one_velocity_per_rung():
    # the n=64 rung takes 128 steps; holding every velocity and forcing
    # peaked at 18.3 MB, one velocity at a time at 1.3 MB
    tracemalloc.start()
    try:
        velocity_spatial_study(PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20

