"""Characteristic trace, density and stress transport, a-priori bounds."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.ndimage import map_coordinates
from scipy.optimize import brentq

from oldroydb import (DensityBandError, FluidParams, Grid,
                      NonDirichletError, ScalarField,
                      SingularStressSystemError, SymTensorField, VectorField,
                      grad_tensor, mean, mean_zero_project, norm, strain,
                      sym_components, trajectory_norms)
from oldroydb import transport
from oldroydb.fields import _diff1
from oldroydb.mms import (_ADVECTION_AMP, _ADVECTION_T, _RELAX_DRAWS,
                          _STILL_DRAWS, _cosine_sum, _vortex_feet,
                          density_advection_study, density_still_study,
                          stress_relaxation_study, taylor_vortex)
from oldroydb.transport import (_COUPLING_COLUMN_SUMS, _DOMINANCE_MARGIN,
                                _coupling_matrices, _diagonally_dominant,
                                _rate_constant, _solve_nodes,
                                check_density_bounds, check_stress_bounds,
                                step_density, step_stress, trace)

from conftest import identity_tensor, random_smooth_field


def smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def rotation_field(grid, rate=2.0, r_flat=0.25, r_out=0.42):
    """Rigid rotation inside a disk, tapered to zero before the boundary."""
    x, y = grid.coords
    r = np.hypot(x - 0.5, y - 0.5)
    chi = 1.0 - smoothstep((r - r_flat) / (r_out - r_flat))
    vals = np.stack([-rate * (y - 0.5) * chi, rate * (x - 0.5) * chi])
    return VectorField(grid, vals, dirichlet=True)


def random_dirichlet_velocity(grid, rng, courant):
    """Rough nodal velocity, zero on the boundary, with the dt giving the
    Courant number max_i dt |w_i| / h_i."""
    vals = rng.normal(size=(grid.dim,) + grid.node_shape)
    vals[:, grid.boundary_mask] = 0.0
    speed = max(np.abs(vals[i]).max() / grid.h[i] for i in range(grid.dim))
    return VectorField(grid, vals, dirichlet=True), courant / speed


def drawn_grid(data, dim):
    n = data.draw(st.tuples(*[st.integers(8, 12)] * dim), label="n")
    extent = data.draw(st.tuples(*[st.floats(0.25, 4.0)] * dim),
                       label="extent")
    return Grid(dim, n, extent)


def objective_coupling(grad_w, tau, a):
    """Reference g(grad w, tau) = tau W - W tau - a (D tau + tau D) from
    whole-grid matrix products, D and W the symmetric and skew parts of
    grad w; the stored components of the symmetrized product."""
    D = 0.5 * (grad_w + np.swapaxes(grad_w, 0, 1))
    W = grad_w - D
    t = tau.full()
    tW = np.einsum("ik...,kj...->ij...", t, W)
    Dt = np.einsum("ik...,kj...->ij...", D, t)
    # tau W - W tau = tW + tW^T ; D tau + tau D = Dt + Dt^T
    m = tW - a * Dt
    return SymTensorField.from_full(tau.grid, m + np.swapaxes(m, 0, 1))


def mean_zero_noise(grid, seed, amp=0.35):
    raw = random_smooth_field(grid, np.random.default_rng(seed),
                              kind="scalar_free")
    scaled = ScalarField(grid, amp * raw.values / np.abs(raw.values).max())
    return mean_zero_project(scaled)


# ---------------------------------------------------------------------------
# characteristic trace


def departure_index(cm):
    """The departure points of a map in index units: the node-index field
    pulled through its stencil, exact at still nodes, exact up to rounding
    elsewhere."""
    return cm.pull(np.indices(cm.grid.node_shape, dtype=float))


def departure_points(cm):
    """The departure points of a map in physical coordinates."""
    h = np.array(cm.grid.h).reshape((-1,) + (1,) * cm.grid.dim)
    return departure_index(cm) * h


def in_closed_box(points, grid):
    """Whether index-space points (dim, ...) lie in the closed index box."""
    return all(0.0 <= points[i].min() and points[i].max() <= n - 1
               for i, n in enumerate(grid.node_shape))


def test_trace_still_fluid_is_identity():
    grid = Grid.unit(16)
    cm = trace(VectorField.zeros(grid, dirichlet=True), 1e-3)
    assert np.array_equal(departure_index(cm),
                          np.indices(grid.node_shape, dtype=float))


def test_trace_boundary_nodes_are_fixed_points():
    grid = Grid.unit(16)
    w = rotation_field(grid)
    cm = trace(w, 0.01)
    base = np.indices(grid.node_shape, dtype=float)
    bd = grid.boundary_mask
    assert np.array_equal(departure_index(cm)[:, bd], base[:, bd])


def test_trace_matches_rigid_rotation_locally():
    # midpoint rule: local error O(dt^3) against the exact rotation
    grid = Grid.unit(32)
    rate = 2.0
    w = rotation_field(grid, rate=rate)
    x, y = grid.coords
    r = np.hypot(x - 0.5, y - 0.5)
    sel = r <= 0.18  # rigid zone, interpolation exact on the linear field
    errs = []
    for dt in (0.02, 0.01):
        dep = departure_points(trace(w, dt))
        th = -rate * dt
        exact = np.stack([
            0.5 + np.cos(th) * (x - 0.5) - np.sin(th) * (y - 0.5),
            0.5 + np.sin(th) * (x - 0.5) + np.cos(th) * (y - 0.5)])
        errs.append(np.abs(dep - exact)[:, sel].max())
    assert errs[0] < 8.0 * 0.02 ** 3
    assert errs[0] / errs[1] > 6.0  # third-order local truncation


def test_trace_rejects_domain_excursion():
    # boundary-layer jet: moderate speed two cells in carries the midpoint
    # onto a spike that then punches the departure point through the wall
    grid = Grid.unit(16)
    h, dt = grid.h[0], 0.1
    vals = np.zeros((2,) + grid.node_shape)
    vals[0, 1, :] = 10.0
    vals[0, 2, :] = 2.0 * h / dt
    vals[:, :, 0] = vals[:, :, -1] = 0.0
    vals[:, 0, :] = vals[:, -1, :] = 0.0
    w = VectorField(grid, vals, dirichlet=True)
    with pytest.raises(NonDirichletError, match="departure"):
        trace(w, dt)
    with pytest.raises(ValueError):
        trace(w, 0.0)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_trace_stays_in_box_and_pull_interpolates(dim, data):
    # with w zero on the boundary, |w_i| <= max|w_i| * (index distance to
    # the wall), so a Courant number c <= 0.7 keeps every departure point
    # at least (1 - c - c^2/2) > 0 cells inside: nothing may be clipped
    grid = drawn_grid(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    courant = data.draw(st.floats(0.01, 0.7), label="courant")
    w, dt = random_dirichlet_velocity(grid, rng, courant)
    with mock.patch.object(transport, "_stencil",
                           wraps=transport._stencil) as stencil:
        cm = trace(w, dt)
    exact = stencil.call_args.args[1]  # the departure points it was built on
    # the midpoint rule before any clipping: the midpoints and then the
    # departure points lie in the closed box, so the map was built on the
    # unclipped departure points
    base = np.indices(grid.node_shape, dtype=float)
    h = np.array(grid.h).reshape((-1,) + (1,) * dim)
    mid = base - (0.5 * dt / h) * w.values
    assert in_closed_box(mid, grid)
    unclipped = base - (dt / h) * transport._gather(
        w.values.reshape(dim, -1),
        *transport._stencil(grid, mid)).reshape(w.values.shape)
    assert in_closed_box(unclipped, grid)
    assert np.array_equal(unclipped, exact)
    dep = departure_index(cm)
    assert np.abs(dep - exact).max() <= 1e-14 * max(grid.node_shape)
    assert in_closed_box(dep, grid)

    stack = rng.normal(size=(4,) + grid.node_shape)
    pulled = cm.pull(stack)
    assert pulled.shape == stack.shape
    coords = [c.ravel() for c in exact]
    for k in range(len(stack)):
        oracle = map_coordinates(stack[k], coords, order=1, mode="nearest")
        scale = np.abs(stack[k]).max()
        assert np.abs(pulled[k].ravel() - oracle).max() <= 1e-14 * scale
        assert np.abs(cm.pull(stack[k]) - pulled[k]).max() <= 1e-14 * scale

    # multilinear interpolation reproduces affine fields
    coef = rng.normal(size=dim + 1)

    def affine(points):
        return coef[0] + sum(coef[i + 1] * points[i] for i in range(dim))

    scale = abs(coef[0]) + sum(abs(coef[i + 1]) * grid.extent[i]
                               for i in range(dim))
    assert np.abs(cm.pull(affine(grid.coords))
                  - affine(departure_points(cm))).max() <= 1e-14 * scale


def reference_divergence(w):
    """div w as `fields.divergence` forms it: second-order differences with
    one-sided edges, summed in axis order."""
    h = w.grid.h
    acc = np.gradient(w.values[0], h[0], axis=0, edge_order=2)
    for ax in range(1, w.grid.dim):
        acc = acc + np.gradient(w.values[ax], h[ax], axis=ax, edge_order=2)
    return acc


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_steps_on_one_map_equal_a_fresh_trace_per_step(dim, data):
    # the map carries everything a step reads of its frozen velocity, so a
    # steady velocity traced once must give the same bits as a new trace
    # per step; the density step's div w is the trace of grad_w, summed in
    # the order of `divergence`
    grid = drawn_grid(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    # repeated steps on one rough velocity compound its dilation at the
    # same nodes: a total Courant number of 0.7 and a wide band keep the
    # density inside it
    nsteps = data.draw(st.integers(1, 3), label="steps")
    courant = data.draw(st.floats(0.01, 0.7 / nsteps), label="courant")
    w, dt = random_dirichlet_velocity(grid, rng, courant)
    params = FluidParams(eps=1.0, m1=1e-3, M1=1e3,
                         We=data.draw(st.floats(0.01, 2.0), label="We"),
                         a=data.draw(st.floats(-1.0, 1.0), label="a"))
    cm = trace(w, dt)
    assert np.array_equal(cm.grad_w, grad_tensor(w))

    theta = dt * reference_divergence(w)
    m = dim * (dim + 1) // 2
    sigma = sigma_fresh = mean_zero_noise(grid, int(rng.integers(2**32)))
    tau = tau_fresh = SymTensorField(grid,
                                     rng.normal(size=(m,) + grid.node_shape))
    for _ in range(nsteps):
        vals = (cm.pull(sigma.values) * np.exp(-theta)
                + params.alpha / params.eps ** 2 * np.expm1(-theta))
        drift = mean(ScalarField(grid, vals))
        sigma, rep = step_density(sigma, cm, params)
        assert rep.mean_preproject == drift
        assert np.array_equal(sigma.values, vals - drift)
        sigma_fresh, _ = step_density(sigma_fresh, trace(w, dt), params)
        assert np.array_equal(sigma.values, sigma_fresh.values)
        tau, _ = step_stress(tau, cm, params)
        tau_fresh, _ = step_stress(tau_fresh, trace(w, dt), params)
        assert np.array_equal(tau.values, tau_fresh.values)


# ---------------------------------------------------------------------------
# density step


PARAMS = FluidParams()


def test_density_still_fluid_fixed_point():
    grid = Grid.unit(32)
    sigma = mean_zero_noise(grid, 3)
    w0 = VectorField.zeros(grid, dirichlet=True)
    s = sigma
    for _ in range(25):
        s, rep = step_density(s, trace(w0, 1e-3), PARAMS)
        assert abs(mean(s)) <= 1e-12
    assert np.abs(s.values - sigma.values).max() < 1e-13


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_density_step_is_bitwise_identity_in_still_fluid(dim, data):
    # w = 0: the departure points are the nodes with unit weights and the
    # dilation update is exp(0) = 1, expm1(0) = 0, so the step only
    # subtracts the mean of its input
    grid = drawn_grid(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    sigma = ScalarField(grid, rng.normal(size=grid.node_shape))
    still = VectorField.zeros(grid, dirichlet=True)
    dt = data.draw(st.floats(1e-4, 1e-1), label="dt")
    assert np.array_equal(trace(still, dt).pull(sigma.values), sigma.values)
    out, rep = step_density(sigma, trace(still, dt), PARAMS)
    drift = mean(sigma)
    assert rep.mean_preproject == drift
    assert np.array_equal(out.values, sigma.values - drift)


def test_density_uniform_dilation_closed_form():
    # radial stretch with constant divergence 2*gamma on a center patch;
    # starting from zero the update equals -lift (1 - exp(-2 gamma dt))
    grid = Grid.unit(32)
    params = FluidParams(eps=0.5)
    x, y = grid.coords
    chi = (smoothstep((x - 0.2) / 0.15) * smoothstep((0.8 - x) / 0.15)
           * smoothstep((y - 0.2) / 0.15) * smoothstep((0.8 - y) / 0.15))
    gamma = 0.8
    w = VectorField(grid, np.stack([gamma * (x - 0.5) * chi,
                                    gamma * (y - 0.5) * chi]),
                    dirichlet=True)
    dt = 1e-3
    out, rep = step_density(ScalarField.zeros(grid), trace(w, dt), params)
    lift = params.alpha / params.eps ** 2
    closed = -lift * (1.0 - np.exp(-2.0 * gamma * dt))
    patch = (np.abs(x - 0.5) < 0.1) & (np.abs(y - 0.5) < 0.1)
    recovered = out.values[patch] + rep.mean_preproject
    assert np.abs(recovered - closed).max() < 1e-12


def test_density_advection_max_principle():
    # monotone interpolation: the range cannot grow beyond projection shift
    # and round-off-scale dilation noise
    grid = Grid.unit(32)
    params = FluidParams(eps=1.0)
    sigma = mean_zero_noise(grid, 5)
    w = VectorField(grid, 0.7 * taylor_vortex(grid).values, dirichlet=True)
    cap0 = np.abs(sigma.values).max()
    s = sigma
    drift_total = 0.0
    for _ in range(20):
        s, rep = step_density(s, trace(w, 5e-3), params)
        drift_total += abs(rep.mean_preproject)
    assert np.abs(s.values).max() <= cap0 * (1.0 + 1e-3) + drift_total


def test_density_step_is_affine():
    grid = Grid.unit(16)
    params = FluidParams(eps=1.0)
    s1 = mean_zero_noise(grid, 6)
    s2 = mean_zero_noise(grid, 7)
    w = VectorField(grid, 0.5 * taylor_vortex(grid).values, dirichlet=True)
    dt = 2e-3
    a, _ = step_density(s1, trace(w, dt), params)
    b, _ = step_density(s2, trace(w, dt), params)
    ab, _ = step_density(ScalarField(grid, s1.values + s2.values),
                         trace(w, dt), params)
    z, _ = step_density(ScalarField.zeros(grid), trace(w, dt), params)
    lhs = a.values + b.values - ab.values
    assert np.abs(lhs - z.values).max() < 1e-12


def test_density_band_violation_raises():
    grid = Grid.unit(16)
    params = FluidParams(eps=1.0)
    vals = np.full(grid.node_shape, 0.1)
    vals[2:5, 2:5] = -3.0  # alpha + sigmaapproaches -2: far below m1/2
    sigma = mean_zero_project(ScalarField(grid, vals))
    with pytest.raises(DensityBandError, match="step_density"):
        step_density(sigma, trace(VectorField.zeros(grid, dirichlet=True),
                                  1e-3), params)


def test_density_mean_drift_refines_at_first_order():
    def worst_drift(n):
        grid = Grid.unit(n)
        params = FluidParams(eps=1.0)
        x, y = grid.coords
        sigma = mean_zero_project(ScalarField(
            grid, np.exp(-((x - 0.4) ** 2 + (y - 0.5) ** 2) / 0.02)))
        w = VectorField(grid, 0.7 * taylor_vortex(grid).values,
                        dirichlet=True)
        worst = 0.0
        s = sigma
        for _ in range(10):
            s, rep = step_density(s, trace(w, 5e-3), params)
            worst = max(worst, abs(rep.mean_preproject))
        return worst

    d16, d32 = worst_drift(16), worst_drift(32)
    assert d32 < d16 / 2.0  # order >= 1; expect about 4x


# ---------------------------------------------------------------------------
# stress step


def test_stress_still_fluid_relaxes_exponentially():
    params = FluidParams(We=0.5)
    grid = Grid.unit(16)
    tau0 = random_smooth_field(grid, np.random.default_rng(8),
                               kind="symtensor")
    w0 = VectorField.zeros(grid, dirichlet=True)
    tau = tau0
    dt = 1e-2
    for _ in range(100):
        tau, _ = step_stress(tau, trace(w0, dt), params)
    ratio = norm(tau, 0) / norm(tau0, 0)
    assert abs(ratio - np.exp(-2.0)) / np.exp(-2.0) < 1e-4


def test_stress_one_step_from_zero_matches_closed_form():
    params = FluidParams(We=0.1, omega=0.5)
    grid = Grid.unit(32)
    w = VectorField(grid, 0.05 * taylor_vortex(grid).values, dirichlet=True)
    dt = 1e-3
    tau, _ = step_stress(SymTensorField.zeros(grid), trace(w, dt), params)
    D = strain(w)
    pred = 2.0 * params.omega * dt / (params.We + 0.5 * dt) * D.values
    scale = np.abs(pred).max()
    # deviation is the implicit g coupling, quadratic in the small output
    assert np.abs(tau.values - pred).max() < 5e-3 * scale


@pytest.mark.parametrize("a", [1.0, 0.0, -0.6])
@pytest.mark.parametrize("dim", [2, 3])
def test_stress_step_matches_pernode_dense_solve(dim, a):
    params = FluidParams(We=0.3, omega=0.4, a=a)
    rng = np.random.default_rng(9)
    if dim == 2:
        grid = Grid.unit(16)
        tau_prev = random_smooth_field(grid, rng, kind="symtensor")
        w = VectorField(grid, 0.6 * taylor_vortex(grid).values,
                        dirichlet=True)
        nodes = [(3, 4), (8, 8), (12, 5), (1, 14), (7, 2)]
    else:
        grid = Grid(3, 8)
        tau_prev = random_smooth_field(grid, rng, kind="symtensor")
        w = random_smooth_field(grid, rng, kind="vector", amplitude=4.0)
        nodes = [(3, 4, 2), (4, 4, 4), (6, 5, 1), (1, 7, 3), (7, 2, 6),
                 (0, 3, 5)]
    dt = 5e-3
    tau, _ = step_stress(tau_prev, trace(w, dt), params)

    cm = trace(w, dt)
    m = dim * (dim + 1) // 2
    dep = np.stack([cm.pull(tau_prev.values[k]) for k in range(m)])
    gw = grad_tensor(w)
    lam = params.We / dt
    pairs = sym_components(dim)
    for node in nodes:
        at = (slice(None),) + node
        gmat = gw[(slice(None), slice(None)) + node]
        Dm = 0.5 * (gmat + gmat.T)
        Wm = 0.5 * (gmat - gmat.T)

        def g_of(mat):
            return mat @ Wm - Wm @ mat - a * (Dm @ mat + mat @ Dm)

        def to_comps(mat):
            return np.array([mat[i, j] for i, j in pairs])

        basis = []
        for i, j in pairs:
            E = np.zeros((dim, dim))
            E[i, j] = 1.0
            E[j, i] = 1.0
            basis.append(E)
        G = np.column_stack([to_comps(g_of(E)) for E in basis])
        M = (lam + 0.5) * np.eye(m) + 0.5 * params.We * G
        dep_mat = np.empty((dim, dim))
        for q, (i, j) in enumerate(pairs):
            dep_mat[i, j] = dep_mat[j, i] = dep[at][q]
        rhs = ((lam - 0.5) * to_comps(dep_mat)
               - 0.5 * params.We * to_comps(g_of(dep_mat))
               + 2.0 * params.omega * to_comps(Dm))
        expect = np.linalg.solve(M, rhs)
        got = tau.values[at]
        assert np.abs(got - expect).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), a=st.floats(-1.0, 1.0), data=st.data())
def test_coupling_matrix_and_min_det_match_dense_reference(dim, a, data):
    grid = drawn_grid(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    m = dim * (dim + 1) // 2
    gw = rng.normal(size=(dim, dim) + grid.node_shape)
    tau = SymTensorField(grid, rng.normal(size=(m,) + grid.node_shape))
    applied = np.einsum("pqn,qn->pn", _coupling_matrices(gw, a),
                        tau.values.reshape(m, -1))
    expect = objective_coupling(gw, tau, a).values.reshape(m, -1)
    scale = np.abs(gw).max() * np.abs(tau.values).max()
    assert np.abs(applied - expect).max() <= 1e-14 * scale

    # Courant numbers up to 0.05 keep dt |grad w| below 0.4, so every
    # system stays far from singular
    w, dt = random_dirichlet_velocity(
        grid, rng, data.draw(st.floats(0.005, 0.05), label="courant"))
    params = FluidParams(We=data.draw(st.floats(0.01, 2.0), label="We"), a=a)
    _, rep = step_stress(tau, trace(w, dt), params)
    gw = grad_tensor(w)
    columns = []
    for k in range(m):
        basis = SymTensorField.zeros(grid)
        basis.values[k] = 1.0
        columns.append(objective_coupling(gw, basis, a).values.reshape(m, -1))
    lam = params.We / dt
    G = np.moveaxis(np.stack(columns, axis=1), -1, 0)    # (N, m, m)
    M = (lam + 0.5) * np.eye(m) + 0.5 * params.We * G
    expect = np.abs(np.linalg.det(M)).min() / (lam + 0.5) ** m
    assert abs(rep.min_det_scale - expect) <= 1e-12 * expect


def test_stress_identity_under_rigid_rotation_only_relaxes():
    # D[w] = 0 in the rigid zone and the identity commutes with W, so the
    # patch follows the pure-relaxation recurrence exactly
    params = FluidParams(We=0.5, a=1.0)
    grid = Grid.unit(32)
    w = rotation_field(grid, rate=1.5)
    tau = identity_tensor(grid)
    dt, nsteps = 1e-3, 10
    for _ in range(nsteps):
        tau, _ = step_stress(tau, trace(w, dt), params)
    lam = params.We / dt
    per_step = (lam - 0.5) / (lam + 0.5)
    # keep a few cells of buffer: taper-zone values creep inward one
    # interpolation cell per step
    x, y = grid.coords
    sel = np.hypot(x - 0.5, y - 0.5) <= 0.1
    assert np.abs(tau.values[0][sel] - per_step ** nsteps).max() < 1e-12
    assert np.abs(tau.values[1][sel]).max() < 1e-12
    assert np.abs(tau.values[2][sel] - per_step ** nsteps).max() < 1e-12
    # and the recurrence tracks the continuum decay to O(dt^2)
    assert abs(per_step ** nsteps - np.exp(-nsteps * dt / params.We)) < 1e-6


def test_stress_step_is_affine():
    params = FluidParams(We=0.2, omega=0.6, a=0.3)
    grid = Grid.unit(16)
    rng = np.random.default_rng(11)
    t1 = random_smooth_field(grid, rng, kind="symtensor")
    t2 = random_smooth_field(grid, rng, kind="symtensor")
    w = VectorField(grid, 0.4 * taylor_vortex(grid).values, dirichlet=True)
    dt = 2e-3
    a, _ = step_stress(t1, trace(w, dt), params)
    b, _ = step_stress(t2, trace(w, dt), params)
    ab, _ = step_stress(SymTensorField(grid, t1.values + t2.values),
                        trace(w, dt), params)
    z, _ = step_stress(SymTensorField.zeros(grid), trace(w, dt), params)
    assert np.abs(a.values + b.values - ab.values - z.values).max() < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_stress_singular_system_raises_with_node(dim):
    # pure stretch tuned so (We/dt + 1/2) + (We/2)(-2 a d1) = 0 exactly at
    # the strongest-stretch node; the wall nodes of the opposite side come
    # within round-off of it, so the error must name the smallest |det|
    grid = Grid.unit(16, dim=dim) if dim == 2 else Grid(3, 8)
    x = grid.coords
    w1 = np.sin(2.0 * np.pi * x[0])
    for ax in range(1, dim):
        w1 = w1 * np.sin(np.pi * x[ax])
    w1[grid.boundary_mask] = 0.0
    g11 = _diff1(w1, grid.h[0], 0)
    node = np.unravel_index(int(np.argmax(g11)), g11.shape)
    dt, We, a = 1.0, 1.0, 1.0
    crit = (We / dt + 0.5) / (a * We)
    vals = np.zeros((dim,) + grid.node_shape)
    vals[0] = (crit / g11[node]) * w1
    w = VectorField(grid, vals, dirichlet=True)
    params = FluidParams(We=We, a=a)
    with pytest.raises(SingularStressSystemError) as err:
        step_stress(identity_tensor(grid), trace(w, dt), params)
    assert err.value.node == node


@pytest.mark.filterwarnings("error")
def test_stress_exactly_singular_system_raises_without_warnings():
    # dyadic data make d w1/dx = (We/dt + 1/2) / (a We) = 1.5 exactly at the
    # centre node and nowhere else, so the first column of its system is
    # exactly zero: the zero pivot must not surface as a RuntimeWarning
    grid = Grid.unit(16)
    vals = np.zeros((2,) + grid.node_shape)
    vals[0, 9, 8] = 0.09375
    vals[0, 7, 8] = -0.09375
    w = VectorField(grid, vals, dirichlet=True)
    assert grad_tensor(w)[0, 0, 8, 8] == 1.5
    with pytest.raises(SingularStressSystemError) as err:
        step_stress(identity_tensor(grid), trace(w, 1.0),
                    FluidParams(We=1.0, a=1.0))
    assert err.value.node == (8, 8)
    assert err.value.det == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [3, 6])
def test_pivoted_elimination_matches_lapack(m):
    # zero diagonals and permutation-like blocks force row exchanges
    rng = np.random.default_rng(m)
    N = 64
    M = rng.normal(size=(m, m, N))
    M[np.arange(m), np.arange(m), :N // 2] = 0.0
    M[:, :, -1] = np.eye(m)[::-1]
    b = rng.normal(size=(m, N))
    stacked = np.moveaxis(M, -1, 0)
    expect_x = np.linalg.solve(stacked, b.T[..., None])[..., 0].T
    expect_det = np.linalg.det(stacked)
    x, det = _solve_nodes(M.copy(), b.copy())
    assert np.abs(det - expect_det).max() <= 1e-12 * np.abs(expect_det).max()
    assert np.abs(x - expect_x).max() <= 1e-10 * np.abs(expect_x).max()


def stress_system(grad_w, params, dt):
    """The per-node matrix of `step_stress`, (We/dt + 1/2) I + (We/2) G."""
    G = _coupling_matrices(grad_w, params.a)
    m = G.shape[0]
    M = 0.5 * params.We * G
    M[np.arange(m), np.arange(m)] += params.We / dt + 0.5
    return M


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), a=st.floats(-1.0, 1.0),
       We=st.floats(1e-3, 10.0), dt=st.floats(1e-4, 1.0),
       reach=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_certified_elimination_needs_no_row_exchange(dim, a, We, dt, reach,
                                                    seed):
    # inside the dominance certificate the elimination without row
    # exchanges is the pivoted one, bit for bit, solution and determinant
    rng = np.random.default_rng(seed)
    grad_w = rng.normal(size=(dim, dim, 40))
    diagonal = We / dt + 0.5
    g_cap = diagonal / (_DOMINANCE_MARGIN * 0.5 * We
                        * _COUPLING_COLUMN_SUMS[dim]
                        * 0.5 * (abs(1.0 + a) + abs(a - 1.0)))
    grad_w *= 0.999 * reach * g_cap / np.abs(grad_w).max()
    assert _diagonally_dominant(grad_w, a, We, diagonal)
    params = FluidParams(We=We, a=a)
    M = stress_system(grad_w, params, dt)
    m = M.shape[0]
    diag = np.abs(M[np.arange(m), np.arange(m)])
    assert np.all(np.abs(M).sum(axis=0) - diag < diag)  # column dominance
    b = rng.normal(size=(m, 40))
    x_piv, det_piv = _solve_nodes(M.copy(), b.copy(), pivot=True)
    x, det = _solve_nodes(M.copy(), b.copy(), pivot=False)
    assert np.array_equal(x, x_piv) and np.array_equal(det, det_piv)
    grad_w[0, 0, 0] = np.nan
    assert not _diagonally_dominant(grad_w, a, We, diagonal)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_uncertified_stress_step_pivots_and_matches_lapack(dim):
    # a strong, step-long rotation fails the certificate, and the first
    # column of some node's system has its largest entry off the
    # diagonal; the system stays regular (the rotation part of G is skew
    # up to scaling), and the pivoted fallback solves it
    grid = Grid(dim, 8)
    rng = np.random.default_rng(dim)
    spin = rng.normal(size=(dim, dim) + grid.node_shape)
    grad_w = (3.0 * (spin - spin.swapaxes(0, 1))
              + 0.2 * rng.normal(size=spin.shape))
    dt = 1.0
    params = FluidParams(We=1.0, a=0.5)
    still = trace(VectorField.zeros(grid, dirichlet=True), dt)
    cm = dataclasses.replace(still, grad_w=grad_w)
    assert not _diagonally_dominant(grad_w, params.a, params.We,
                                    params.We / dt + 0.5)
    M = stress_system(grad_w, params, dt)
    assert np.any(np.argmax(np.abs(M[:, 0]), axis=0) != 0)

    tau = SymTensorField(grid, rng.normal(size=(len(M),) + grid.node_shape))
    with mock.patch.object(transport, "_solve_nodes",
                           wraps=_solve_nodes) as solve:
        out, rep = step_stress(tau, cm, params)
    assert solve.call_args.kwargs["pivot"] is True
    m = len(M)
    t = tau.values.reshape(m, -1)
    D = SymTensorField.from_full(grid, grad_w).values.reshape(m, -1)
    G = _coupling_matrices(grad_w, params.a)
    rhs = ((params.We / dt - 0.5) * t
           - 0.5 * params.We * np.einsum("pqn,qn->pn", G, t)
           + 2.0 * params.omega * D)
    stacked = np.moveaxis(M, -1, 0)
    expect = np.linalg.solve(stacked, rhs.T[..., None])[..., 0].T
    assert rep.min_det_scale > 1e-3
    assert (np.abs(out.values.reshape(m, -1) - expect).max()
            <= 1e-12 * np.abs(expect).max())


def one_shot_solve(M, b, pivot):
    """`_solve_nodes` as it was before the batched step: the trailing
    block of each elimination step updated by one product."""
    m = b.shape[0]
    det = np.ones(b.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m - 1):
            if pivot:
                piv = k + np.argmax(np.abs(M[k:, k]), axis=0)
                swap = np.flatnonzero(piv != k)
                p = piv[swap]
                M[p, k:, swap], M[k, k:, swap] = (M[k, k:, swap],
                                                  M[p, k:, swap])
                b[p, swap], b[k, swap] = b[k, swap], b[p, swap]
                det[swap] = -det[swap]
            det *= M[k, k]
            f = M[k + 1:, k] / M[k, k]
            M[k + 1:, k + 1:] -= f[:, None] * M[k, k + 1:]
            b[k + 1:] -= f * b[k]
        det *= M[m - 1, m - 1]
        x = np.empty_like(b)
        for k in reversed(range(m)):
            x[k] = (b[k] - (M[k, k + 1:] * x[k + 1:]).sum(axis=0)) / M[k, k]
    return x, det


def one_shot_step_stress(tau_prev, cm, params):
    """`step_stress` as one elimination over every node at once, the way
    it was before the nodes were batched."""
    grid = tau_prev.grid
    m = tau_prev.ncomp
    tau_dep = np.einsum("kcn,cn->kn", tau_prev.values.reshape(m, -1).take(
        cm.corners, axis=1, mode="clip"), cm.weights)
    D = SymTensorField.from_full(grid, cm.grad_w).values
    G = _coupling_matrices(cm.grad_w, params.a)
    lam = params.We / cm.dt
    rhs = ((lam - 0.5) * tau_dep
           - 0.5 * params.We * np.einsum("pqn,qn->pn", G, tau_dep)
           + 2.0 * params.omega * D.reshape(m, -1))
    M = G
    M *= 0.5 * params.We
    M.reshape(m * m, -1)[::m + 1] += lam + 0.5
    sol, det = one_shot_solve(M, rhs, pivot=not _diagonally_dominant(
        cm.grad_w, params.a, params.We, lam + 0.5))
    scale = (lam + 0.5) ** m
    dets = np.nan_to_num(det / scale, nan=0.0, posinf=0.0, neginf=0.0)
    worst = int(np.argmin(np.abs(dets)))
    if abs(dets[worst]) < 1e-12:
        node = np.unravel_index(worst, grid.node_shape)
        raise SingularStressSystemError(node, float(dets[worst] * scale))
    return (SymTensorField(grid, sol.reshape((m,) + grid.node_shape)),
            transport.StressStepReport(min_det_scale=float(abs(dets[worst]))))


def stress_outcome(step, tau, cm, params):
    """The bytes of a stress step's values and its min_det_scale, or the
    node and determinant its SingularStressSystemError names."""
    try:
        out, rep = step(tau, cm, params)
    except SingularStressSystemError as err:
        return "singular", err.node, err.det
    return "solved", out.values.tobytes(), rep.min_det_scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       case=st.sampled_from(["certified", "pivoted", "singular"]),
       data=st.data())
def test_batched_stress_step_is_the_one_shot_step_bit_for_bit(dim, case,
                                                              data):
    # every operation of the step is per node, so any batching gives the
    # one-shot bits: the solution, min_det_scale, and the node and value a
    # singular system names.  A cap below two nodes gives batches of two:
    # np.einsum sums the product of a lone node in another order
    grid = drawn_grid(data, dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    m = dim * (dim + 1) // 2
    shape = grid.node_shape
    nodes = int(np.prod(shape))
    # the departure stencil of a rough velocity; D, G and dt are the case's
    w, dt = random_dirichlet_velocity(grid, rng, 0.5)
    stencil = trace(w, dt)
    tau = SymTensorField(grid, rng.normal(size=(m,) + shape))
    gw = rng.normal(size=(dim, dim) + shape)
    if case == "certified":
        params = FluidParams(We=data.draw(st.floats(0.01, 2.0), label="We"),
                             omega=0.4,
                             a=data.draw(st.floats(-1.0, 1.0), label="a"))
        # half the largest max|grad w| the certificate admits
        g_cap = (params.We / dt + 0.5) / (
            _DOMINANCE_MARGIN * 0.5 * params.We * _COUPLING_COLUMN_SUMS[dim]
            * 0.5 * (abs(1.0 + params.a) + abs(params.a - 1.0)))
        gw *= 0.5 * g_cap / np.abs(gw).max()
    else:
        # a strong, step-long rotation fails the certificate; at a few
        # nodes a pure stretch d w1/dx near (We/dt + 1/2) / (a We) makes
        # the system singular or nearly so
        dt = 1.0
        params = FluidParams(We=1.0, omega=0.4, a=0.5)
        gw = 3.0 * (gw - gw.swapaxes(0, 1)) + 0.2 * rng.normal(size=gw.shape)
        if case == "singular":
            crit = (params.We / dt + 0.5) / (params.a * params.We)
            tilts = data.draw(st.lists(st.sampled_from(
                [0.0, 1e-15, -1e-15, 3e-14, -2e-13]), min_size=1,
                max_size=3), label="tilts")
            hits = rng.choice(nodes, size=len(tilts), replace=False)
            for node, tilt in zip(zip(*np.unravel_index(hits, shape)), tilts):
                gw[(slice(None), slice(None)) + node] = 0.0
                gw[(0, 0) + node] = crit * (1.0 + tilt)
    cm = dataclasses.replace(stencil, dt=dt, grad_w=gw)
    pivot = not _diagonally_dominant(gw, params.a, params.We,
                                     params.We / dt + 0.5)
    assert pivot == (case != "certified")

    expect = stress_outcome(one_shot_step_stress, tau, cm, params)
    assert expect[0] == ("singular" if case == "singular" else "solved")
    ragged = data.draw(st.integers(2, nodes - 1), label="nodes per batch")
    for per_batch in (1, ragged, nodes - 1):
        with (mock.patch.object(transport, "_STRESS_BATCH",
                                per_batch * m * m),
              mock.patch.object(transport, "_solve_nodes",
                                wraps=_solve_nodes) as solve):
            got = stress_outcome(step_stress, tau, cm, params)
        assert got == expect
        # full batches, then a last one that takes a lone node left over
        size = max(2, per_batch)
        widths = [c.args[1].shape[1] for c in solve.call_args_list]
        assert widths[:-1] == [size] * (len(widths) - 1)
        assert 2 <= widths[-1] <= size + 1 and sum(widths) == nodes
        assert all(c.kwargs["pivot"] is pivot for c in solve.call_args_list)


def test_stress_step_scratch_is_bounded_by_its_batches():
    # a new fixed bound: the one-shot step peaked at 3.34 MB (3D n=16)
    # and 24.4 MB (n=32), the batched step at 1.82 MB and 5.05 MB; most
    # of the n=32 figure is the whole-grid D, solution and determinants
    params = FluidParams(We=0.1, omega=0.5)
    for n, bound in ((16, 2.5e6), (32, 7e6)):
        grid = Grid(3, n)
        rng = np.random.default_rng(0)
        w = random_smooth_field(grid, rng, kind="vector", amplitude=0.05)
        tau = random_smooth_field(grid, rng, kind="symtensor")
        cm = trace(w, 1e-3)
        step_stress(tau, cm, params)
        tracemalloc.start()
        try:
            step_stress(tau, cm, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)


# ---------------------------------------------------------------------------
# a-priori bound fitting


def still_density_history(grid, nsteps=10, dt=1e-3):
    sigma = mean_zero_noise(grid, 13)
    w0 = VectorField.zeros(grid, dirichlet=True)
    sigmas, ws = [sigma], [w0]
    s = sigma
    for _ in range(nsteps):
        s, _ = step_density(s, trace(w0, dt), PARAMS)
        sigmas.append(s)
        ws.append(w0)
    return sigmas, ws, dt


def driven_histories(n, nsteps=10, dt=5e-3, seed=14):
    grid = Grid.unit(n)
    params = FluidParams(eps=1.0, We=0.5)
    w = VectorField(grid, 0.7 * taylor_vortex(grid).values, dirichlet=True)
    sigma = mean_zero_noise(grid, seed)
    tau = random_smooth_field(grid, np.random.default_rng(seed + 1),
                              kind="symtensor")
    sigmas, taus, ws = [sigma], [tau], [w]
    for _ in range(nsteps):
        sigma, _ = step_density(sigma, trace(w, dt), params)
        tau, _ = step_stress(tau, trace(w, dt), params)
        sigmas.append(sigma)
        taus.append(tau)
        ws.append(w)
    return params, sigmas, taus, ws, dt


def test_density_bounds_still_fluid():
    grid = Grid.unit(16)
    sigmas, ws, dt = still_density_history(grid)
    taus = [SymTensorField.zeros(grid)] * len(ws)
    table = trajectory_norms(ws, sigmas, taus, dt)
    rep = check_density_bounds(table, PARAMS)
    assert table.w_l1h3 == 0.0
    assert abs(rep.sup_h2 - norm(sigmas[0], 2)) < 1e-10
    assert rep.c_domain == 0.0
    assert rep.sup_bound_margin > 0.0


def rate_constant_brentq(target, l1h3):
    """The bracketed root search the closed form replaced, kept as its
    reference: the c in [0, min(target, 700/l)] with c e^{c l} = target."""
    hi = min(target, 700.0 / l1h3)  # keep exp() finite in the bracket
    with np.errstate(over="ignore"):  # hi e^700 may still overflow to inf
        if hi * np.exp(hi * l1h3) < target:
            return hi
        return brentq(lambda c: c * np.exp(c * l1h3) - target, 0.0, hi,
                      xtol=1e-15, rtol=1e-12)


@settings(max_examples=300, deadline=None)
@given(log_target=st.floats(np.log(1e-12), np.log(1e12)),
       log_l=st.floats(np.log(1e-6), np.log(1e3)))
@example(log_target=np.log(1e-12), log_l=np.log(1e-6))
@example(log_target=np.log(1e12), log_l=np.log(1e3))
@example(log_target=np.log(1e12), log_l=np.log(1e-6))
@example(log_target=np.log(1e-12), log_l=np.log(1e3))
def test_rate_constant_closed_form_matches_brentq(log_target, log_l):
    target, l1h3 = float(np.exp(log_target)), float(np.exp(log_l))
    c = _rate_constant(target, l1h3)
    assert c * np.exp(c * l1h3) == pytest.approx(target, rel=1e-13)
    assert abs(c - rate_constant_brentq(target, l1h3)) <= 1e-15 + 1e-12 * c


def test_rate_constant_degenerate_branches():
    assert _rate_constant(0.0, 2.0) == 0.0
    assert _rate_constant(-1.0, 2.0) == 0.0
    assert _rate_constant(3.5, 0.0) == 3.5


def test_stress_bounds_still_fluid():
    params = FluidParams(We=0.5)
    grid = Grid.unit(16)
    tau = random_smooth_field(grid, np.random.default_rng(15),
                              kind="symtensor")
    w0 = VectorField.zeros(grid, dirichlet=True)
    taus, ws = [tau], [w0]
    for _ in range(10):
        tau, _ = step_stress(tau, trace(w0, 1e-3), params)
        taus.append(tau)
        ws.append(w0)
    sigmas = [ScalarField.zeros(grid)] * len(ws)
    table = trajectory_norms(ws, sigmas, taus, 1e-3)
    rep = check_stress_bounds(table, params)
    assert rep.sup_bound_holds
    assert rep.sup_h2 <= table.psi[0, 2] * (1.0 + 1e-12)  # relaxation shrinks
    assert rep.c_domain == 1.0  # any constant closes the bound when w = 0


def test_density_bound_fit_is_grid_stable():
    fits = []
    for n in (32, 64):
        params, sigmas, taus, ws, dt = driven_histories(n)
        rep = check_density_bounds(trajectory_norms(ws, sigmas, taus, dt),
                                   params)
        assert rep.c_domain > 0.0
        assert rep.sup_bound_margin >= 0.0
        fits.append(rep.c_domain)
    assert abs(fits[1] - fits[0]) <= 0.3 * fits[0]


def test_stress_bound_fit_driven():
    params, sigmas, taus, ws, dt = driven_histories(32)
    rep = check_stress_bounds(trajectory_norms(ws, sigmas, taus, dt), params)
    assert rep.sup_bound_holds
    assert rep.c_relax > 0.0
    assert np.isfinite(rep.c_domain) and rep.c_domain > 0.0


def test_bound_checks_validate_lengths():
    grid = Grid.unit(8)
    s = ScalarField.zeros(grid)
    t = SymTensorField.zeros(grid)
    w = VectorField.zeros(grid, dirichlet=True)
    with pytest.raises(ValueError):
        check_density_bounds(trajectory_norms([w], [s, s], [t], 1e-3), PARAMS)
    with pytest.raises(ValueError):
        check_stress_bounds(trajectory_norms([w, w], [s, s], [t], 1e-3),
                            PARAMS)


# ---------------------------------------------------------------------------
# manufactured-solution studies


def test_density_advection_study_first_order():
    res = density_advection_study()
    assert res.passed, res
    assert all(o >= 0.9 for o in res.orders)


@pytest.mark.parametrize("n", [24, 48])
def test_vortex_feet_match_a_tight_adaptive_reference(n):
    # the advection study's exact solution is the bump at these feet: the
    # fixed-step trace of every node agrees with scipy's DOP853 at rtol
    # 1e-13 to 1e-11, no looser than the adaptive RK45 reference it
    # replaced (7.5e-12 there, 3.3e-12 and 3.4e-12 measured here)
    amp, T = _ADVECTION_AMP, _ADVECTION_T
    grid = Grid.unit(n)
    nodes = np.stack([grid.coords[0].ravel(), grid.coords[1].ravel()])

    def back_velocity(t, y):
        x1, x2 = y.reshape(2, -1)
        u1 = np.sin(np.pi * x1) ** 2 * np.sin(2.0 * np.pi * x2)
        u2 = -np.sin(2.0 * np.pi * x1) * np.sin(np.pi * x2) ** 2
        return -amp * np.concatenate([u1, u2])

    ref = solve_ivp(back_velocity, (0.0, T), nodes.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15).y[:, -1].reshape(2, -1)
    assert np.abs(_vortex_feet(nodes, amp, T) - ref).max() <= 1e-11


def test_coarse_feet_are_strides_of_the_finest_trace():
    # the advection study traces its finest rung's nodes once and reads
    # each coarser rung's feet at a stride: the rungs' nodes nest bit for
    # bit, and the elementwise trace of those nodes, raveled as the study
    # once traced them rung by rung, is the strided slice of the fine trace
    amp, T = _ADVECTION_AMP, _ADVECTION_T
    fine = Grid.unit(96).coords
    feet = _vortex_feet(fine, amp, T)
    for n in (24, 48):
        coords = Grid.unit(n).coords
        stride = 96 // n
        assert np.array_equal(coords, fine[:, ::stride, ::stride])
        direct = _vortex_feet(coords.reshape(2, -1), amp, T)
        assert np.array_equal(direct.reshape(coords.shape),
                              feet[:, ::stride, ::stride])


def test_study_draws_are_the_seeded_normal_draws():
    # the still-fluid and relaxation studies hold the draws they once took
    # from seeded generators, so the mms command loads no numpy.random
    rng42, rng7 = np.random.default_rng(42), np.random.default_rng(7)
    assert _STILL_DRAWS == tuple(rng42.normal() for _ in range(15))
    assert _RELAX_DRAWS == tuple(rng7.normal() for _ in range(45))


@pytest.mark.parametrize("grid", [Grid.unit(16), Grid.unit(32),
                                  Grid(2, (8, 12), (0.5, 2.0)),
                                  Grid(3, 8, (1.0, 0.5, 2.0))],
                         ids=["2d-16", "2d-32", "2d-box", "3d-box"])
def test_cosine_sum_is_the_seeded_random_field_bit_for_bit(grid):
    # the studies' builder given a generator's draws repeats the arithmetic
    # of the test fields' cosine sum: the same wave order, coefficients and
    # product order, so the studies' data keep every bit
    rng = np.random.default_rng(42)
    draws = [rng.normal() for _ in range(4 ** grid.dim - 1)]
    free = random_smooth_field(grid, np.random.default_rng(42),
                               kind="scalar_free")
    assert np.array_equal(_cosine_sum(grid, draws), free.values)


def test_relaxation_stress_is_the_seeded_random_field():
    # the relaxation study's tau0: one component per 15 draws, in order
    grid = Grid.unit(16)
    tau = random_smooth_field(grid, np.random.default_rng(7),
                              kind="symtensor")
    assert np.array_equal(np.stack([_cosine_sum(grid, _RELAX_DRAWS[i:i + 15])
                                    for i in (0, 15, 30)]), tau.values)


def test_density_still_study_exact():
    res = density_still_study()
    assert res.exact and res.passed
    assert all(e < 1e-12 for e in res.errors)


def test_stress_relaxation_study_second_order():
    res = stress_relaxation_study()
    assert res.passed, res
    assert all(o >= 1.8 for o in res.orders)  # trapezoid beats the gate
