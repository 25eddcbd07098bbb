"""Acceptance gate: eight desk-scale checks covering the whole pipeline.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with -s) and
enforces its own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from oldroydb import (FluidParams, Grid, IterTriple, ScalarField,
                      SymTensorField, VectorField, continuity_probe,
                      div_tensor, divergence, grad_tensor, gradient, inner,
                      iterate, laplacian, mean, norm, picard_sweep,
                      rate_tensors, step_density, step_stress, trace,
                      uniqueness_experiment, viscous_operator)
from oldroydb.mms import taylor_vortex


def _report(num, ok, detail, elapsed, limit):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def _wl2sq(grid, arr):
    return float(np.sum(grid.weights * arr * arr))


def test_criterion_1_operator_oracles():
    t0 = time.perf_counter()
    errs = {name: {} for name in
            ("gradient", "divergence", "laplacian", "div_tensor",
             "viscous")}
    identity_off = []
    for n in (32, 64):
        g = Grid.unit(n)
        x, y = g.coords
        s2x, c2x = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        s2y, c2y = np.sin(2 * np.pi * y), np.cos(2 * np.pi * y)
        sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)

        f = ScalarField(g, s2x * cy)
        exact = np.stack([2 * np.pi * c2x * cy, -np.pi * s2x * sy])
        errs["gradient"][n] = float(np.abs(gradient(f).values
                                           - exact).max())

        v = VectorField(g, np.stack([s2x * cy, cx * s2y]))
        exact = 2 * np.pi * (c2x * cy + cx * c2y)
        errs["divergence"][n] = float(np.abs(divergence(v).values
                                             - exact).max())

        w = VectorField(g, np.stack([sx * sy, 0.0 * x]))
        exact = -2 * np.pi ** 2 * sx * sy
        errs["laplacian"][n] = float(np.abs(laplacian(w).values[0]
                                            - exact).max())

        # symmetric tensor with components (xx, xy, yy)
        psi = SymTensorField(g, np.stack([s2x * cy, cx * cy, cx * s2y]))
        exact = np.stack([2 * np.pi * c2x * cy - np.pi * cx * sy,
                          -np.pi * sx * cy + 2 * np.pi * cx * c2y])
        errs["div_tensor"][n] = float(np.abs(div_tensor(psi).values
                                             - exact).max())

        vals = np.stack([sx * sy, sx * sy])
        vals[:, g.boundary_mask] = 0.0
        vd = VectorField(g, vals, dirichlet=True)
        exact = 3 * np.pi ** 2 * sx * sy - np.pi ** 2 * cx * cy
        av = viscous_operator(vd)
        interior = ~g.boundary_mask
        errs["viscous"][n] = max(
            float(np.abs(av.values[i][interior] - exact[interior]).max())
            for i in range(2))

        for field in (taylor_vortex(g), vd):
            q = inner(viscous_operator(field), field)
            gt = grad_tensor(field)
            rhs = sum(_wl2sq(g, gt[i, j]) for i in range(2)
                      for j in range(2))
            rhs += _wl2sq(g, divergence(field).values)
            identity_off.append(abs(q - rhs) / rhs)

    orders = {name: math.log2(e[32] / e[64]) for name, e in errs.items()}
    ok = all(o >= 1.8 for o in orders.values()) \
        and max(identity_off) <= 0.02
    detail = ("orders " + " ".join(f"{k}={v:.2f}" for k, v in
                                   orders.items())
              + f", identity off by {max(identity_off):.2%}")
    _report(1, ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_2_exact_stress_decay():
    t0 = time.perf_counter()
    grid = Grid.unit(16)
    params = FluidParams(eps=0.1, omega=0.5, We=0.5, alpha=1.0, a=1.0)
    still = VectorField.zeros(grid, dirichlet=True)
    base = rate_tensors(taylor_vortex(grid))[0]
    tau = SymTensorField(grid, 0.4 * base.values)
    tau0_norm = norm(tau, 0)
    dt = 1e-3
    for _ in range(1000):
        tau, _ = step_stress(tau, trace(still, dt), params)
    ratio = norm(tau, 0) / tau0_norm
    rel = abs(ratio - math.exp(-2.0)) / math.exp(-2.0)
    _report(2, rel <= 1e-3,
            f"|tau(1)|/|tau0| = {ratio:.6f} vs e^-2, rel err {rel:.2e}",
            time.perf_counter() - t0, 10.0)


def test_criterion_3_still_fluid_density_fixed_point():
    t0 = time.perf_counter()
    grid = Grid.unit(24)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    still = VectorField.zeros(grid, dirichlet=True)
    x, y = grid.coords
    sigma0 = ScalarField(grid, 0.3 * np.cos(2 * np.pi * x)
                         * np.cos(2 * np.pi * y))
    sigma = sigma0
    worst_mean = 0.0
    for _ in range(100):
        sigma, _ = step_density(sigma, trace(still, 1e-3), params)
        worst_mean = max(worst_mean, abs(mean(sigma)))
    drift = float(np.abs(sigma.values - sigma0.values).max())
    ok = drift <= 1e-13 and worst_mean <= 1e-12
    _report(3, ok, f"drift {drift:.1e}, worst |mean| {worst_mean:.1e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_energy_inequality(request):
    t0 = time.perf_counter()
    run = request.getfixturevalue("converged32")
    dt = run.sol.dt
    energy = run.audit.energy
    diss_ok = energy.dissipation_satisfied \
        and len(energy.dissipation_slack) == run.sol.nsteps
    ok = energy.satisfied and energy.lhs <= energy.rhs * (1 + 10 * dt) \
        and diss_ok
    _report(4, ok,
            f"lhs {energy.lhs:.4g} <= rhs {energy.rhs:.4g}, "
            f"dissipation at all {run.sol.nsteps} steps: {diss_ok}",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_fixed_point_convergence(request):
    t0 = time.perf_counter()
    run = request.getfixturevalue("converged32")
    hist, sol, params = run.hist, run.sol, run.params
    d = hist.distances
    monotone = all(d[i + 1] < d[i] for i in range(len(d) - 1))
    worst_ratio = max(hist.ratios[1:]) if len(d) > 1 else 0.0
    residual = run.audit.residual.worst
    lo, hi = params.band
    band_ok = (hist.membership.density_min >= lo
               and hist.membership.density_max <= hi)
    mean_ok = all(abs(mean(p)) <= 1e-12 for p in sol.pi)
    m = sol.grid.dim * (sol.grid.dim + 1) // 2
    sym_ok = all(q.values.shape[0] == m and np.isfinite(q.values).all()
                 for q in sol.psi)
    ok = (hist.converged and hist.iterations <= 20 and monotone
          and worst_ratio < 0.9 and residual < 1e-7 and band_ok
          and mean_ok and sym_ok)
    _report(5, ok,
            f"{hist.iterations} sweeps, worst ratio {worst_ratio:.3f}, "
            f"residual {residual:.1e}", time.perf_counter() - t0, 300.0)


def test_criterion_6_continuity_probe(request):
    t0 = time.perf_counter()
    run = request.getfixturevalue("converged32")
    rep = continuity_probe(run.sol, 1e-3, run.params)
    ok = rep.linear_ok and all(2.0 / 1.5 <= r <= 2.0 * 1.5
                               for r in rep.shrink_ratios)
    ratios = ", ".join(f"{r:.3f}" for r in rep.shrink_ratios)
    _report(6, ok, f"gap shrink per halving: {ratios}",
            time.perf_counter() - t0, 300.0)


def test_criterion_7_uniqueness_envelope(request):
    t0 = time.perf_counter()
    run = request.getfixturevalue("converged32")
    c = run
    nudge = picard_sweep(
        IterTriple.constant(c.u0, c.s0, c.t0, 10, 1e-3), c.params)[0]
    sol_b, _ = iterate(c.u0, c.s0, c.t0, c.params, T=0.01, dt=1e-3,
                       initial_guess=nudge)
    same = uniqueness_experiment(c.sol, sol_b, 1.0, c.params, fp_tol=1e-8)
    identical_ok = same.identical and same.satisfied \
        and max(same.gap_energy) <= (10.0 * 1e-8) ** 2

    g32 = request.getfixturevalue("gronwall32")
    g64 = request.getfixturevalue("gronwall64")
    fit = uniqueness_experiment(g32.sol, g32.solp, 1.0, g32.params)
    held32 = uniqueness_experiment(g32.sol, g32.solp, 1.0, g32.params,
                                   c12=fit.c12, slack=0.05)
    held64 = uniqueness_experiment(g64.sol, g64.solp, 1.0, g64.params,
                                   c12=fit.c12, slack=0.05)
    ok = identical_ok and fit.c12_fitted and fit.c12 > 0.0 \
        and held32.satisfied and held64.satisfied
    _report(7, ok,
            f"identical gap {max(same.gap_energy):.1e}, c12 {fit.c12:.4g} "
            f"held on 64^2 with ratio {held64.max_ratio:.4f}",
            time.perf_counter() - t0, 300.0)


def test_criterion_8_constant_stability(request):
    t0 = time.perf_counter()
    consts = {}
    for name in ("converged32", "converged64"):
        audit = request.getfixturevalue(name).audit
        consts[name] = (audit.regularity.c1_emp, audit.density.c_domain)

    (c1a, cda), (c1b, cdb) = consts["converged32"], consts["converged64"]
    var_c1 = abs(c1a - c1b) / max(abs(c1a), abs(c1b))
    var_cd = abs(cda - cdb) / max(abs(cda), abs(cdb))
    ok = var_c1 < 0.3 and var_cd < 0.3
    _report(8, ok,
            f"c1_emp {c1a:.4g}/{c1b:.4g} ({var_c1:.1%}), "
            f"c_domain {cda:.4g}/{cdb:.4g} ({var_cd:.1%})",
            time.perf_counter() - t0, 600.0)
