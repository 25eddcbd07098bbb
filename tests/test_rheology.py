"""Parameters, the objective stress coupling as the stress step applies it,
and the momentum source with its pressure increment."""

import dataclasses
import math

import numpy as np
import pytest

from oldroydb import (DensityBandError, FluidParams, Grid, ScalarField,
                      SymTensorField, VectorField, density_band_check,
                      grad_tensor, gradient, momentum_source, norm,
                      sym_components, viscous_operator)
from oldroydb import rheology
from oldroydb.transport import _coupling_matrices

from conftest import identity_tensor, random_smooth_field


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


# ---------------------------------------------------------------------------
# pressure increment and the density band


def linear_law_source(aw, pi, grad_pi, params):
    """The former 'linear' branch of `momentum_source`, verbatim: its
    pressure increment was a zero array."""
    density_band_check(pi, params, context="momentum_source")
    rho = params.total_density(pi.values)
    coef_visc = (1.0 - params.omega) * (params.eps ** 2 * pi.values / rho)
    coef_pres = (params.eps ** 2 / rho) * (pi.values - np.zeros_like(rho))
    return VectorField(pi.grid, coef_visc * aw.values
                       + coef_pres * grad_pi.values)


def pressure_increment(sigma, params):
    """w(sigma) = p'(alpha + eps^2 sigma) - p'(alpha), read through
    `momentum_source`: on A w = 0 and a unit grad pi the forcing is
    (eps^2 / rho) (sigma - w), so the forcing at kappa = 0 minus the one at
    `params.kappa`, over eps^2 / rho, is w."""
    grid = sigma.grid
    zero = VectorField.zeros(grid)
    unit = VectorField(grid, np.ones((grid.dim,) + grid.node_shape))
    linear = dataclasses.replace(params, kappa=0.0)
    gap = (momentum_source(zero, sigma, unit, linear).values
           - momentum_source(zero, sigma, unit, params).values)
    return gap[0] / (params.eps ** 2 / params.total_density(sigma.values))


def test_linear_law_increment_is_zero_field():
    # kappa = 0 is the linear law: the forcing is bit for bit the one the
    # former linear branch, with its zero increment, computed
    grid = Grid.unit(8)
    params = make_params()
    assert params.kappa == 0.0
    rng = np.random.default_rng(7)
    w = random_smooth_field(grid, rng, kind="vector")
    pi = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.node_shape))
    aw, gp = viscous_operator(w), gradient(pi)
    out = momentum_source(aw, pi, gp, params)
    assert np.array_equal(out.values,
                          linear_law_source(aw, pi, gp, params).values)


def test_quadratic_law_frozen_value():
    # p = kappa rho^2 / 2, dp/drho = kappa rho, increment = kappa eps^2 sigma
    # kappa = 1, eps = 0.1, sigma = 2 -> 0.02 everywhere
    grid = Grid.unit(8)
    params = make_params(eps=0.1, kappa=1.0)
    sigma = ScalarField(grid, np.full(grid.node_shape, 2.0))
    w = pressure_increment(sigma, params)
    assert np.allclose(w, 0.02, rtol=1e-14, atol=0.0)


def test_quadratic_law_zero_sigma_exact():
    grid = Grid.unit(8)
    params = make_params(kappa=3.7)
    w = pressure_increment(ScalarField.zeros(grid), params)
    assert np.all(w == 0.0)


def test_band_check_upper_violation_names_node():
    grid = Grid.unit(8)
    params = make_params(eps=1.0)
    vals = np.zeros(grid.node_shape)
    vals[3, 4] = 5.0  # rho = 6 > 2 M1 = 4
    with pytest.raises(DensityBandError) as err:
        density_band_check(ScalarField(grid, vals), params, context="here")
    assert err.value.node == (3, 4)
    assert str(err.value).startswith("here: density 6 at node (3, 4)")


def test_band_check_names_nan_node():
    # a NaN total density meets neither bound: the check fails closed, in
    # the band check itself and in the momentum source that calls it
    grid = Grid.unit(8)
    params = make_params()
    vals = np.zeros(grid.node_shape)
    vals[2, 5] = np.nan
    pi = ScalarField(grid, vals)
    with pytest.raises(DensityBandError) as err:
        density_band_check(pi, params)
    assert err.value.node == (2, 5)
    assert math.isnan(err.value.value)
    w = random_smooth_field(grid, np.random.default_rng(29), kind="vector")
    with pytest.raises(DensityBandError, match="momentum_source"):
        momentum_source(viscous_operator(w), pi, gradient(pi), params)


# ---------------------------------------------------------------------------
# objective coupling g(grad w, tau) = tau W - W tau - a (D tau + tau D)


def applied_coupling(grad_w, tau, a):
    """g(grad w, tau) as the stress step applies it: the per-node matrices
    of `transport._coupling_matrices` on the stored components of tau."""
    m = tau.ncomp
    vals = np.einsum("pqn,qn->pn", _coupling_matrices(grad_w, a),
                     tau.values.reshape(m, -1))
    return SymTensorField(tau.grid, vals.reshape(tau.values.shape))


def sample_flow(grid, seed=0):
    v = random_smooth_field(grid, np.random.default_rng(seed), kind="vector")
    return grad_tensor(v)


def sample_tau(grid, seed=1):
    return random_smooth_field(grid, np.random.default_rng(seed),
                               kind="symtensor")


def test_coupling_zero_tau_is_zero():
    grid = Grid.unit(8)
    g = applied_coupling(sample_flow(grid), SymTensorField.zeros(grid), 0.7)
    assert np.all(g.values == 0.0)


def test_coupling_identity_tau_gives_minus_2a_rate():
    # tau = I commutes with W, and D I + I D = 2D, so g = -2 a D
    grid = Grid.unit(12)
    gw = sample_flow(grid, seed=3)
    a = 0.6
    g = applied_coupling(gw, identity_tensor(grid), a)
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
        g = applied_coupling(gw, tau, a)
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
    g = applied_coupling(sample_flow(grid, seed=11),
                           sample_tau(grid, seed=12), a=0.9)
    full = g.full()
    assert np.array_equal(full, np.swapaxes(full, 0, 1))


def test_coupling_scaling_exact_power_of_two():
    # multiplying either argument by 2 commutes with rounding bitwise
    grid = Grid.unit(8)
    gw = sample_flow(grid, seed=13)
    tau = sample_tau(grid, seed=14)
    a = 0.3
    base = applied_coupling(gw, tau, a)
    assert np.array_equal(applied_coupling(2.0 * gw, tau, a).values,
                          2.0 * base.values)
    scaled = SymTensorField(grid, 2.0 * tau.values)
    assert np.array_equal(applied_coupling(gw, scaled, a).values,
                          2.0 * base.values)


def test_coupling_not_jointly_additive():
    # g(c grad w, tau) + g(grad w, c tau) equals 2c g, not (1+c) g
    grid = Grid.unit(8)
    gw = sample_flow(grid, seed=15)
    tau = sample_tau(grid, seed=16)
    a, c = 0.5, 2.0
    base = applied_coupling(gw, tau, a)
    lhs = (applied_coupling(c * gw, tau, a).values
           + applied_coupling(gw, SymTensorField(grid, c * tau.values),
                              a).values)
    assert not np.allclose(lhs, (1.0 + c) * base.values, rtol=1e-3)
    assert np.allclose(lhs, 2.0 * c * base.values, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# momentum source


def source(w, pi, params):
    """momentum_source on the derivative samples a forcing assembly takes."""
    return momentum_source(viscous_operator(w), pi, gradient(pi), params)


def test_source_zero_inputs_zero():
    grid = Grid.unit(8)
    params = make_params()
    w = random_smooth_field(grid, np.random.default_rng(20), kind="vector")
    out = source(w, ScalarField.zeros(grid), params)
    assert np.all(out.values == 0.0)


def test_source_matches_pernode_scalar_oracle():
    # eps = 0.1, alpha = 1, linear law (kappa = 0), pi = 1: re-evaluate the
    # formula with plain python floats at every node
    grid = Grid.unit(8)
    params = make_params(eps=0.1, alpha=1.0, omega=0.5, kappa=0.0)
    w = random_smooth_field(grid, np.random.default_rng(22), kind="vector")
    pi = ScalarField(grid, np.ones(grid.node_shape))
    out = source(w, pi, params)

    aw = viscous_operator(w)
    gp = gradient(pi)
    eps2, al, om = params.eps ** 2, params.alpha, params.omega
    for node in [(0, 0), (3, 5), (8, 8), (2, 7), (5, 1)]:
        for i in range(2):
            pv = float(pi.values[node])
            rho = al + eps2 * pv
            # linear law: constant dp/drho, so the increment w(pi) is zero
            expect = ((1.0 - om) * (eps2 * pv / rho)
                      * float(aw.values[(i,) + node])
                      + (eps2 / rho) * (pv - 0.0)
                      * float(gp.values[(i,) + node]))
            got = float(out.values[(i,) + node])
            assert math.isclose(got, expect, rel_tol=1e-13, abs_tol=1e-15)


def test_kappa_changes_the_source_on_nonzero_pi():
    # F(kappa = 1) - F(kappa = 0) = -(eps^2 / rho) w(pi) grad pi with
    # w(pi) = kappa eps^2 pi: on a pi in [0.2, 0.5] it is nonzero wherever
    # grad pi is
    grid = Grid.unit(8)
    w = random_smooth_field(grid, np.random.default_rng(24), kind="vector")
    pi = ScalarField(grid, 0.2 + 0.3 * grid.coords[0] * grid.coords[1])
    params = make_params(kappa=1.0)
    diff = (source(w, pi, params).values
            - source(w, pi, make_params()).values)
    gp = gradient(pi).values
    sloped = np.abs(gp) > 1e-12
    assert sloped.mean() > 0.8
    assert np.all(diff[sloped] != 0.0)
    eps2 = params.eps ** 2
    expect = -(eps2 / params.total_density(pi.values)) * eps2 * pi.values * gp
    assert np.allclose(diff, expect, rtol=1e-12,
                       atol=1e-12 * np.abs(expect).max())


def test_source_low_mach_limit():
    # with w and pi fixed, || F || scales like eps^2
    grid = Grid.unit(16)
    w = random_smooth_field(grid, np.random.default_rng(25), kind="vector")
    pi = ScalarField(grid, 0.5 * np.sin(np.pi * grid.coords[0])
                     * np.sin(np.pi * grid.coords[1]))

    def size(eps):
        params = make_params(eps=eps, kappa=1.0)
        return norm(source(w, pi, params), 0)

    d1, d2 = size(0.1), size(0.01)
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
        source(w, ScalarField(grid, vals), params)
    assert err.value.node == (6, 2)
    assert "momentum_source" in str(err.value)


@pytest.mark.parametrize("kappa", [0.0, 1.0], ids=["linear", "quadratic"])
def test_source_checks_the_band_once(monkeypatch, kappa):
    # one frozen node, one band check: the pressure increment inside the
    # source reads the samples the source has already checked
    grid = Grid.unit(8)
    params = make_params(kappa=kappa)
    w = random_smooth_field(grid, np.random.default_rng(28), kind="vector")
    pi = ScalarField(grid, 0.5 * np.cos(np.pi * grid.coords[0]))
    real = rheology.density_band_check
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("context"))
        return real(*args, **kwargs)

    monkeypatch.setattr(rheology, "density_band_check", counted)
    source(w, pi, params)
    assert calls == ["momentum_source"]
