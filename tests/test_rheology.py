"""Pressure laws, the objective stress coupling and the momentum source."""

import math

import numpy as np
import pytest

from oldroydb import (DensityBandError, FluidParams, Grid, PressureLaw,
                      ScalarField, SymTensorField, VectorField, grad_tensor,
                      gradient, momentum_source, norm, objective_coupling,
                      pressure_increment, rate_tensors, sym_components,
                      viscous_operator)
from oldroydb.fields import random_smooth_field


def make_params(**kw):
    base = dict(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0, m1=0.5, M1=2.0)
    base.update(kw)
    return FluidParams(**base)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("bad", [
    dict(eps=0.0), dict(eps=1.5), dict(eps=-0.1),
    dict(omega=0.0), dict(omega=1.0),
    dict(We=0.0), dict(We=-1.0),
    dict(alpha=0.0),
    dict(a=1.5), dict(a=-1.01),
    dict(m1=0.0), dict(m1=1.2), dict(M1=0.9),
])
def test_params_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        make_params(**bad)


def test_params_band():
    p = make_params(m1=0.5, M1=2.0)
    assert p.band == (0.25, 4.0)


def test_pressure_law_validation():
    for kind in ("cubic", "table"):
        with pytest.raises(ValueError, match="unknown pressure law"):
            PressureLaw(kind=kind)


# ---------------------------------------------------------------------------
# pressure increment


def test_linear_law_increment_is_zero_field():
    grid = Grid.unit(8)
    params = make_params(law=PressureLaw(kind="linear"))
    rng = np.random.default_rng(7)
    sigma = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.node_shape))
    w = pressure_increment(sigma, params)
    assert np.all(w.values == 0.0)


def test_isothermal_law_increment_is_zero_field():
    grid = Grid.unit(8)
    params = make_params(law=PressureLaw(kind="isothermal", cs=2.5))
    rng = np.random.default_rng(8)
    sigma = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.node_shape))
    w = pressure_increment(sigma, params)
    assert np.all(w.values == 0.0)


def test_quadratic_law_frozen_value():
    # p = kappa rho^2 / 2, dp/drho = kappa rho, increment = kappa eps^2 sigma
    # kappa = 1, eps = 0.1, sigma = 2 -> 0.02 everywhere
    grid = Grid.unit(8)
    params = make_params(eps=0.1, law=PressureLaw(kind="quadratic", kappa=1.0))
    sigma = ScalarField(grid, np.full(grid.node_shape, 2.0))
    w = pressure_increment(sigma, params)
    assert np.allclose(w.values, 0.02, rtol=1e-14, atol=0.0)


def test_quadratic_law_zero_sigma_exact():
    grid = Grid.unit(8)
    params = make_params(law=PressureLaw(kind="quadratic", kappa=3.7))
    w = pressure_increment(ScalarField.zeros(grid), params)
    assert np.all(w.values == 0.0)


def test_pressure_increment_band_violation_names_node():
    grid = Grid.unit(8)
    params = make_params(eps=1.0, law=PressureLaw(kind="quadratic"))
    vals = np.zeros(grid.node_shape)
    vals[3, 4] = 5.0  # rho = 6 > 2 M1 = 4
    with pytest.raises(DensityBandError) as err:
        pressure_increment(ScalarField(grid, vals), params)
    assert err.value.node == (3, 4)


# ---------------------------------------------------------------------------
# objective coupling g


def sample_flow(grid, seed=0):
    v = random_smooth_field(grid, np.random.default_rng(seed), kind="vector")
    return grad_tensor(v)


def sample_tau(grid, seed=1):
    return random_smooth_field(grid, np.random.default_rng(seed),
                               kind="symtensor")


def test_coupling_zero_tau_is_zero():
    grid = Grid.unit(8)
    g = objective_coupling(sample_flow(grid), SymTensorField.zeros(grid), 0.7)
    assert np.all(g.values == 0.0)


def test_coupling_identity_tau_gives_minus_2a_rate():
    # tau = I commutes with W, and D I + I D = 2D, so g = -2 a D
    grid = Grid.unit(12)
    gw = sample_flow(grid, seed=3)
    a = 0.6
    g = objective_coupling(gw, SymTensorField.identity(grid), a)
    D = 0.5 * (gw + np.swapaxes(gw, 0, 1))
    for k, (i, j) in enumerate(sym_components(grid.dim)):
        assert np.allclose(g.values[k], -2.0 * a * D[i, j],
                           rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_coupling_matches_dense_pernode_oracle(dim):
    # independent oracle: explicit per-node matrix algebra with a = 0
    # (tau W - W tau) and with general a
    grid = Grid.unit(8, dim=dim)
    gw = sample_flow(grid, seed=4 + dim)
    tau = sample_tau(grid, seed=5 + dim)
    for a in (0.0, -0.4):
        g = objective_coupling(gw, tau, a)
        t_full = tau.full()
        worst = 0.0
        for node in np.ndindex(grid.node_shape):
            gmat = np.array([[gw[(i, j) + node] for j in range(dim)]
                             for i in range(dim)])
            tmat = np.array([[t_full[(i, j) + node] for j in range(dim)]
                             for i in range(dim)])
            D = 0.5 * (gmat + gmat.T)
            W = 0.5 * (gmat - gmat.T)
            expect = tmat @ W - W @ tmat - a * (D @ tmat + tmat @ D)
            got = g.full()[(slice(None), slice(None)) + node]
            worst = max(worst, float(np.abs(got - expect).max()))
        assert worst < 1e-13


def test_coupling_output_symmetric_roundoff():
    grid = Grid.unit(16, dim=3)
    g = objective_coupling(sample_flow(grid, seed=11),
                           sample_tau(grid, seed=12), a=0.9)
    full = g.full()
    assert np.array_equal(full, np.swapaxes(full, 0, 1))


def test_coupling_scaling_exact_power_of_two():
    # multiplying either argument by 2 commutes with rounding bitwise
    grid = Grid.unit(8)
    gw = sample_flow(grid, seed=13)
    tau = sample_tau(grid, seed=14)
    a = 0.3
    base = objective_coupling(gw, tau, a)
    assert np.array_equal(objective_coupling(2.0 * gw, tau, a).values,
                          2.0 * base.values)
    scaled = SymTensorField(grid, 2.0 * tau.values)
    assert np.array_equal(objective_coupling(gw, scaled, a).values,
                          2.0 * base.values)


def test_coupling_not_jointly_additive():
    # g(c grad w, tau) + g(grad w, c tau) equals 2c g, not (1+c) g
    grid = Grid.unit(8)
    gw = sample_flow(grid, seed=15)
    tau = sample_tau(grid, seed=16)
    a, c = 0.5, 2.0
    base = objective_coupling(gw, tau, a)
    lhs = (objective_coupling(c * gw, tau, a).values
           + objective_coupling(gw, SymTensorField(grid, c * tau.values),
                                a).values)
    assert not np.allclose(lhs, (1.0 + c) * base.values, rtol=1e-3)
    assert np.allclose(lhs, 2.0 * c * base.values, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# momentum source


def test_source_zero_inputs_zero():
    grid = Grid.unit(8)
    params = make_params()
    w = random_smooth_field(grid, np.random.default_rng(20), kind="vector")
    out = momentum_source(w, ScalarField.zeros(grid),
                          VectorField.zeros(grid), params)
    assert np.all(out.values == 0.0)


def test_source_body_force_only():
    grid = Grid.unit(8)
    params = make_params(alpha=1.3)
    w = random_smooth_field(grid, np.random.default_rng(21), kind="vector")
    f = VectorField(grid, np.stack([np.ones(grid.node_shape),
                                    np.zeros(grid.node_shape)]))
    out = momentum_source(w, ScalarField.zeros(grid), f, params)
    assert np.allclose(out.values[0], 1.3, rtol=1e-15, atol=0.0)
    assert np.all(out.values[1] == 0.0)


def test_source_matches_pernode_scalar_oracle():
    # eps = 0.1, alpha = 1, linear law, pi = 1: re-evaluate the formula with
    # plain python floats at every node
    grid = Grid.unit(8)
    params = make_params(eps=0.1, alpha=1.0, omega=0.5,
                         law=PressureLaw(kind="linear"))
    w = random_smooth_field(grid, np.random.default_rng(22), kind="vector")
    pi = ScalarField(grid, np.ones(grid.node_shape))
    f = random_smooth_field(grid, np.random.default_rng(23),
                            kind="scalar_free")
    fvec = VectorField(grid, np.stack([f.values, -f.values]))
    out = momentum_source(w, pi, fvec, params)

    aw = viscous_operator(w)
    gp = gradient(pi)
    eps2, al, om = params.eps ** 2, params.alpha, params.omega
    for node in [(0, 0), (3, 5), (8, 8), (2, 7), (5, 1)]:
        for i in range(2):
            pv = float(pi.values[node])
            rho = al + eps2 * pv
            # linear law: constant dp/drho, so the increment w(pi) is zero
            expect = (al * float(fvec.values[(i,) + node])
                      + (1.0 - om) * (eps2 * pv / rho)
                      * float(aw.values[(i,) + node])
                      + (eps2 / rho) * (pv - 0.0)
                      * float(gp.values[(i,) + node]))
            got = float(out.values[(i,) + node])
            assert math.isclose(got, expect, rel_tol=1e-13, abs_tol=1e-15)


def test_source_depends_only_on_increments():
    # linear (dp/drho = eps^-2) and isothermal (dp/drho = cs^2) laws have
    # different absolute dp/drho but identical increments, hence identical F
    grid = Grid.unit(8)
    w = random_smooth_field(grid, np.random.default_rng(24), kind="vector")
    pi = ScalarField(grid, 0.3 * np.cos(np.pi * grid.coords[0])
                     * np.cos(np.pi * grid.coords[1]))
    f = VectorField.zeros(grid)
    out_lin = momentum_source(w, pi, f, make_params(
        law=PressureLaw(kind="linear")))
    out_iso = momentum_source(w, pi, f, make_params(
        law=PressureLaw(kind="isothermal", cs=3.0)))
    assert np.array_equal(out_lin.values, out_iso.values)


def test_source_low_mach_limit():
    # with f fixed, || F - alpha f || scales like eps^2
    grid = Grid.unit(16)
    w = random_smooth_field(grid, np.random.default_rng(25), kind="vector")
    pi = ScalarField(grid, 0.5 * np.sin(np.pi * grid.coords[0])
                     * np.sin(np.pi * grid.coords[1]))
    f = random_smooth_field(grid, np.random.default_rng(26), kind="vector")

    def defect(eps):
        params = make_params(eps=eps, law=PressureLaw(kind="quadratic"))
        out = momentum_source(w, pi, f, params)
        diff = VectorField(grid, out.values - params.alpha * f.values)
        return norm(diff, 0)

    d1, d2 = defect(0.1), defect(0.01)
    assert d2 < 1e-2 * d1 * 1.2
    ratio = d1 / d2
    assert 90.0 < ratio < 110.0


def test_source_band_violation_names_node():
    grid = Grid.unit(8)
    params = make_params(eps=1.0)
    vals = np.zeros(grid.node_shape)
    vals[6, 2] = -0.9  # rho = 0.1 < m1/2 = 0.25
    w = random_smooth_field(grid, np.random.default_rng(27), kind="vector")
    with pytest.raises(DensityBandError) as err:
        momentum_source(w, ScalarField(grid, vals),
                        VectorField.zeros(grid), params)
    assert err.value.node == (6, 2)
    assert "momentum_source" in str(err.value)
