"""Grid, operator, norm and snapshot unit tests.

Derivative checks compare against hand-derived analytic formulas; grid
constants are fitted on the coarse grid and verified on the fine one.
"""

import ast
import dataclasses
import importlib
import itertools
import math
import os
import pkgutil
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, cg, spsolve

from oldroydb import (Grid, ScalarField, SymTensorField, VectorField,
                      div_tensor, divergence, grad_tensor, gradient, inner,
                      laplacian, mean, mean_zero_project, norm, norm_hminus1,
                      norms, save_snapshot, strain, trajectory_norms,
                      viscous_operator)
from oldroydb import fields
from oldroydb.errors import NonDirichletError
from oldroydb.fields import (_diff1, _diff2, _poisson_dirichlet,
                             conjugate_gradient, sym_components,
                             viscous_interior, viscous_preconditioner,
                             viscous_system)

from conftest import (counting, draw_trajectory, identity_tensor,
                      random_smooth_field, scalar_from_function,
                      vector_from_function)


def weighted_l2(grid, values):
    return math.sqrt(float(np.sum(grid.weights * values * values)))


# ---------------------------------------------------------------------------
# grid


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 32)
    with pytest.raises(ValueError):
        Grid(4, 32)
    with pytest.raises(ValueError):
        Grid(2, 4)
    with pytest.raises(ValueError):
        Grid(2, (32, 7))
    with pytest.raises(ValueError):
        Grid(2, 32, extent=-1.0)
    g = Grid(2, (8, 16), extent=(1.0, 2.0))
    assert g.node_shape == (9, 17)
    assert g.h == (1.0 / 8, 2.0 / 16)


def test_grid_weights_sum_to_volume():
    g = Grid(2, 32, extent=(1.0, 2.0))
    assert np.isclose(np.sum(g.weights), 2.0, rtol=1e-14)
    g3 = Grid(3, 8)
    assert np.isclose(np.sum(g3.weights), 1.0, rtol=1e-14)


def test_boundary_mask_is_exactly_the_box_boundary():
    g = Grid(2, 8)
    m = g.boundary_mask
    assert m[0, :].all() and m[-1, :].all() and m[:, 0].all() and m[:, -1].all()
    assert not m[1:-1, 1:-1].any()
    assert int(m.sum()) == 9 * 9 - 7 * 7


# ---------------------------------------------------------------------------
# norms


def test_unit_constant_has_unit_norm():
    for g in (Grid(2, 32), Grid(3, 8)):
        f = ScalarField(g, np.ones(g.node_shape))
        assert norm(f, 0) == pytest.approx(1.0, rel=1e-14)


def test_h1_norm_of_cosine_converges_to_closed_form():
    target = 0.5 * (1.0 + 4.0 * math.pi**2)
    errs = []
    for n in (32, 64):
        g = Grid(2, n)
        f = scalar_from_function(g, lambda x, y: np.cos(2 * np.pi * x))
        errs.append(abs(norm(f, 1) ** 2 - target))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 0.005 * target


def test_norm_order_validation():
    g = Grid(2, 8)
    f = ScalarField.zeros(g)
    for bad in (4, -1, 1.5, "2", True):
        with pytest.raises(ValueError):
            norm(f, bad)
        with pytest.raises(ValueError):
            norms(f, bad)


def _reference_components(f):
    """(samples, multiplicity) of each component, in storage order."""
    g = f.grid
    if isinstance(f, ScalarField):
        return [(f.values, 1.0)]
    if isinstance(f, VectorField):
        return [(f.values[i], 1.0) for i in range(g.dim)]
    return [(f.values[q], 1.0 if i == j else 2.0)
            for q, (i, j) in enumerate(sym_components(g.dim))]


def _norm_reference(f, k):
    """H^k with every multi-index quotient differenced from scratch by
    `np.gradient`, one component at a time: the formula `norms` must
    reproduce bit for bit."""
    g = f.grid
    total = 0.0
    for comp, mult in _reference_components(f):
        total += mult * float(np.sum(g.weights * comp * comp))
        for order in range(1, k + 1):
            for axes in itertools.combinations_with_replacement(range(g.dim),
                                                                order):
                d = comp
                for ax in axes:
                    d = np.gradient(d, g.h[ax], axis=ax, edge_order=2)
                total += mult * float(np.sum(g.weights * d * d))
    return float(np.sqrt(total))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_norms_equal_norm_and_per_multi_index_reference(dim, data):
    n = data.draw(st.tuples(*[st.integers(8, 14)] * dim), label="n")
    extent = data.draw(st.tuples(*[st.floats(0.25, 4.0)] * dim),
                       label="extent")
    kind = data.draw(st.sampled_from([ScalarField, VectorField,
                                      SymTensorField]), label="kind")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    g = Grid(dim, n, extent)
    ncomp = {ScalarField: (), VectorField: (dim,),
             SymTensorField: (dim * (dim + 1) // 2,)}[kind]
    f = kind(g, np.random.default_rng(seed).normal(size=ncomp + g.node_shape))
    every = norms(f, 3)
    assert len(every) == 4
    for j in range(4):
        assert every[j] == norm(f, j) == _norm_reference(f, j)
        assert norms(f, j) == every[:j + 1]


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_inner_and_hminus1_add_component_sums_in_order(dim, data):
    # each component's own np.sum, times its multiplicity, added in
    # component order: the arithmetic of one np.sum per component
    n = data.draw(st.tuples(*[st.integers(8, 14)] * dim), label="n")
    kind = data.draw(st.sampled_from([ScalarField, VectorField,
                                      SymTensorField]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    g = Grid(dim, n)
    ncomp = {ScalarField: (), VectorField: (dim,),
             SymTensorField: (dim * (dim + 1) // 2,)}[kind]
    a, b = (kind(g, rng.normal(size=ncomp + g.node_shape)) for _ in "ab")
    expect = 0.0
    for (x, m), (y, _) in zip(_reference_components(a),
                              _reference_components(b)):
        expect += m * float(np.sum(g.weights * x * y))
    assert inner(a, b) == expect
    stack = a.values.reshape((-1,) + g.node_shape)
    phis = _poisson_dirichlet(g, stack)
    expect = 0.0
    for (x, m), phi in zip(_reference_components(a), phis):
        expect += m * float(np.sum(g.weights * x * phi))
    assert norm_hminus1(a) == math.sqrt(max(expect, 0.0))


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_trajectory_norms_are_norms_of_each_node_and_rate(dim, data):
    assert_table_is_norms_of_each_node_and_rate(*draw_trajectory(data, dim))


@pytest.mark.parametrize("dim,n", [(3, 16), (2, 64)])
def test_trajectory_norms_split_into_batches_are_norms_of_each_node(dim, n):
    # the shapes of the benchmark windows: 11 nodes, whose velocity,
    # density and stress stacks each take several batches, some of them
    # several nodes long and the last one short
    grid = Grid(dim, n)
    rng = np.random.default_rng(n)
    ws, pis, psis = ([random_smooth_field(grid, rng, kind=kind)
                      for _ in range(11)]
                     for kind in ("vector", "scalar_free", "symtensor"))
    per_batch = [max(1, fields._NORM_BATCH // (ncomp * (n + 1) ** dim))
                 for ncomp in (dim, 1, dim * (dim + 1) // 2)]
    assert max(per_batch) < 10 and any(11 % b > 1 for b in per_batch)
    assert_table_is_norms_of_each_node_and_rate(ws, pis, psis, 1e-3)


def test_trajectory_norms_reuse_the_given_first_rows(monkeypatch):
    # node 0's rows come from an earlier table and are not recomputed
    grid = Grid(2, 12)
    rng = np.random.default_rng(5)
    ws, pis, psis = ([random_smooth_field(grid, rng, kind=kind)
                      for _ in range(4)]
                     for kind in ("vector", "scalar_free", "symtensor"))
    table = trajectory_norms(ws, pis, psis, 1e-2)
    normed = []
    real = fields._stack_norms
    monkeypatch.setattr(fields, "_stack_norms",
                        lambda grid, stack, *a: normed.append(len(stack))
                        or real(grid, stack, *a))
    again = trajectory_norms(ws, pis, psis, 1e-2,
                             first_rows=table.first_rows)
    assert sum(normed) == 3 * 3 + 3 * 3  # nodes 1..3 and three rates each
    for name in ("w", "w_rate", "pi", "pi_rate", "psi", "psi_rate"):
        assert np.array_equal(getattr(again, name), getattr(table, name))


def assert_table_is_norms_of_each_node_and_rate(ws, pis, psis, dt):
    table = trajectory_norms(ws, pis, psis, dt)

    def rate(prev, cur):
        return type(cur)(cur.grid, (cur.values - prev.values) / dt)

    for k in range(len(ws)):
        assert tuple(table.w[k]) == norms(ws[k], 3)
        assert tuple(table.pi[k]) == norms(pis[k], 2)
        assert tuple(table.psi[k]) == norms(psis[k], 2)
        if k == 0:
            continue
        assert tuple(table.w_rate[k - 1]) == norms(rate(ws[k - 1], ws[k]), 1)
        assert tuple(table.pi_rate[k - 1]) == norms(rate(pis[k - 1], pis[k]),
                                                    1)
        assert tuple(table.psi_rate[k - 1]) == norms(
            rate(psis[k - 1], psis[k]), 1)
    assert table.w[0, 3] == norms(ws[0], 3)[3]
    assert table.w.shape == (len(ws), 4)
    assert table.pi.shape == table.psi.shape == (len(ws), 3)
    assert table.w_rate.shape == table.pi_rate.shape == (len(ws) - 1, 2)

    # the velocity budget and int H^3 keep their node-by-node formulas,
    # squared on Python floats: node 0's H^3 row enters neither
    h3 = [norms(v, 3)[3] for v in ws[1:]]
    h2 = [norms(v, 2)[2] for v in ws]
    w_rates = [norms(rate(a, b), 1) for a, b in zip(ws[:-1], ws[1:])]
    assert table.w_l1h3 == sum(dt * x for x in h3)
    assert table.velocity_budget == (
        sum(dt * x ** 2 for x in h3) + max(x ** 2 for x in h2)
        + sum(dt * r[1] ** 2 for r in w_rates)
        + max(r[0] ** 2 for r in w_rates))


def test_trajectory_norms_validates_lengths():
    g = Grid(2, 8)
    w = VectorField.zeros(g, dirichlet=True)
    s, t = ScalarField.zeros(g), SymTensorField.zeros(g)
    with pytest.raises(ValueError):
        trajectory_norms([w, w], [s], [t, t], 0.1)
    with pytest.raises(ValueError):
        trajectory_norms([w], [s], [t], 0.1)


def test_tensor_norm_counts_off_diagonals_twice():
    g = Grid(2, 8)
    t = SymTensorField.zeros(g)
    t.values[1] = 1.0  # the (0,1) component
    assert norm(t, 0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_mean_zero_projection():
    g = Grid(2, 16)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.normal(size=g.node_shape) + 0.7)
    p = mean_zero_project(f)
    assert abs(mean(p)) < 1e-14
    p2 = mean_zero_project(p)
    assert abs(mean(p2)) < 1e-15
    assert np.allclose(p2.values, p.values, atol=1e-14)


# ---------------------------------------------------------------------------
# first/second derivative operators


def _moveaxis_diff2(values, h, axis):
    """The second difference as sliced along a moved axis: the arithmetic
    `_diff2` must reproduce bit for bit."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def _difference_inputs(data, shortest):
    """Random samples on a 2-4 dim shape whose axes have at least
    `shortest` nodes, in every layout the package differences: contiguous,
    a column `full[:, j]` of a full tensor (as `div_tensor` passes), a
    component `values[i]` of a stack, and a transposed view."""
    shape = data.draw(st.lists(st.integers(shortest, 9), min_size=2,
                               max_size=4).map(tuple), label="shape")
    scale = 10.0 ** data.draw(st.integers(-3, 3), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    full = scale * rng.normal(size=(shape[0], 3) + shape[1:])
    stack = scale * rng.normal(size=(2,) + shape)
    return [scale * rng.normal(size=shape), full[:, 1], stack[1],
            np.ascontiguousarray(stack[0].T).T]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diff1_is_numpy_gradient_bit_for_bit(data):
    for values in _difference_inputs(data, 3):
        for axis in range(values.ndim):
            h = data.draw(st.floats(1e-3, 10.0), label="h")
            assert np.array_equal(
                _diff1(values, h, axis),
                np.gradient(values, h, axis=axis, edge_order=2))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diff2_is_the_moveaxis_stencil_bit_for_bit(data):
    for values in _difference_inputs(data, 4):
        for axis in range(values.ndim):
            h = data.draw(st.floats(1e-3, 10.0), label="h")
            assert np.array_equal(_diff2(values, h, axis),
                                  _moveaxis_diff2(values, h, axis))


def test_gradient_exact_on_affine_fields():
    for g in (Grid(2, 8, extent=(1.0, 2.0)), Grid(3, 8)):
        coeffs = np.arange(1, g.dim + 1, dtype=float)
        f = ScalarField(g, 0.3 + sum(c * g.coords[ax] for ax, c in enumerate(coeffs)))
        grad = gradient(f)
        for ax in range(g.dim):
            assert np.allclose(grad.values[ax], coeffs[ax], atol=1e-12)


def test_gradient_of_constant_is_zero():
    g = Grid(2, 16)
    grad = gradient(ScalarField(g, np.full(g.node_shape, 4.2)))
    assert np.all(np.abs(grad.values) < 1e-13)


def test_gradient_trig_error_below_fitted_ch2():
    errs = {}
    for n in (32, 64):
        g = Grid(2, n)
        f = scalar_from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * g.coords[0])
        errs[n] = float(np.max(np.abs(gradient(f).values[0] - exact)))
    order = math.log2(errs[32] / errs[64])
    assert order > 1.8, f"observed gradient order {order:.2f}"
    c_fit = errs[32] / (1.0 / 32) ** 2
    assert errs[64] <= 1.2 * c_fit * (1.0 / 64) ** 2


def test_divergence_of_shear_rotation_is_zero():
    g = Grid(2, 16)
    v = vector_from_function(g, lambda x, y: (x, -y))
    assert np.allclose(divergence(v).values, 0.0, atol=1e-12)


def test_div_tensor_of_constant_identity_is_zero():
    for g in (Grid(2, 8), Grid(3, 8)):
        t = identity_tensor(g, 3.5)
        assert np.allclose(div_tensor(t).values, 0.0, atol=1e-12)


def test_div_tensor_affine_exact():
    g = Grid(2, 16)
    x, y = g.coords
    t = SymTensorField.zeros(g)
    t.values[0] = 2.0 * x          # T00
    t.values[1] = y                # T01 = T10
    t.values[2] = -3.0 * y         # T11
    dv = div_tensor(t)
    assert np.allclose(dv.values[0], 2.0 + 1.0, atol=1e-12)   # dT00/dx + dT01/dy
    assert np.allclose(dv.values[1], 0.0 - 3.0, atol=1e-12)   # dT10/dx + dT11/dy


def test_laplacian_exact_on_quadratics():
    g = Grid(2, 16, extent=(2.0, 1.0))
    x, y = g.coords
    f = ScalarField(g, x * x + 3.0 * y * y + x * y + x + 2.0)
    assert np.allclose(laplacian(f).values, 2.0 + 6.0, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_difference_operators_exact_on_affine_fields(dim, data):
    # v_i = c_i + sum_j B_ij x_j: every first difference, one-sided ones at
    # the boundary nodes included, is exact, and every second one vanishes,
    # up to round-off in the samples scaled by 1/h per difference
    n, extent, _ = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    coef = st.floats(-3.0, 3.0)
    c = np.array(data.draw(st.tuples(*[coef] * dim), label="c"))
    B = np.array(data.draw(st.tuples(*[st.tuples(*[coef] * dim)] * dim),
                           label="B"))
    v = VectorField(g, c.reshape((dim,) + (1,) * dim)
                    + np.einsum("ij,j...->i...", B, g.coords))
    scale = 64 * np.finfo(float).eps * (np.abs(v.values).max()
                                        + np.abs(B).max() * max(extent))
    tol1, tol2 = scale / min(g.h), scale / min(g.h) ** 2
    jac = B.reshape((dim, dim) + (1,) * dim)
    assert np.abs(grad_tensor(v) - jac).max() <= tol1
    assert np.abs(gradient(ScalarField(g, v.values[0])).values
                  - jac[0]).max() <= tol1
    assert np.abs(divergence(v).values - np.trace(B)).max() <= dim * tol1
    assert np.abs(laplacian(v).values).max() <= dim * tol2
    assert np.abs(laplacian(ScalarField(g, v.values[-1])).values).max() \
        <= dim * tol2


def _axis_sum(terms):
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _grad_tensor_reference(v):
    """[i, j] = d v_i / d x_j, one component and one axis per call."""
    g = v.grid
    return np.array([[np.gradient(v.values[i], g.h[j], axis=j, edge_order=2)
                      for j in range(g.dim)] for i in range(g.dim)])


def _div_tensor_reference(t):
    """(div T)_i = sum_j d T_ij / d x_j, added in axis order per row."""
    g = t.grid
    full = t.full()
    return np.array([_axis_sum([np.gradient(full[i, j], g.h[j], axis=j,
                                            edge_order=2)
                                for j in range(g.dim)])
                     for i in range(g.dim)])


def _laplacian_reference(comp, h):
    """The second differences of one component, added in axis order."""
    return _axis_sum([_moveaxis_diff2(comp, h[ax], ax)
                      for ax in range(len(h))])


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_stacked_operators_equal_per_component_reference(dim, data):
    n = data.draw(st.tuples(*[st.integers(8, 14)] * dim), label="n")
    extent = data.draw(st.tuples(*[st.floats(0.25, 4.0)] * dim),
                       label="extent")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    g = Grid(dim, n, extent)
    v = VectorField(g, rng.normal(size=(dim,) + g.node_shape))
    t = SymTensorField(g, rng.normal(size=(dim * (dim + 1) // 2,)
                                     + g.node_shape))
    s = ScalarField(g, rng.normal(size=g.node_shape))
    grad = grad_tensor(v)
    assert np.array_equal(grad, _grad_tensor_reference(v))
    assert np.array_equal(divergence(v).values,
                          _axis_sum([grad[i, i] for i in range(dim)]))
    assert np.array_equal(div_tensor(t).values, _div_tensor_reference(t))
    lap_s, lap_v = laplacian(s), laplacian(v)
    assert isinstance(lap_s, ScalarField) and isinstance(lap_v, VectorField)
    assert np.array_equal(lap_s.values, _laplacian_reference(s.values, g.h))
    assert np.array_equal(lap_v.values,
                          np.array([_laplacian_reference(c, g.h)
                                    for c in v.values]))


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_operators_make_one_difference_call_per_axis(monkeypatch,
                                                             dim):
    g = Grid.unit(8, dim)
    rng = np.random.default_rng(11)
    v = random_smooth_field(g, rng, kind="vector")
    t = random_smooth_field(g, rng, kind="symtensor")
    calls = counting(monkeypatch, [fields], ["_diff1", "_diff2"])
    grad_tensor(v)
    assert calls["_diff1"] == dim
    div_tensor(t)
    assert calls["_diff1"] == 2 * dim
    laplacian(v)
    assert calls["_diff2"] == dim


def test_laplacian_trig_order():
    errs = {}
    for n in (32, 64):
        g = Grid(2, n)
        v = vector_from_function(
            g, lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y), 0.0 * x))
        exact = -2 * np.pi**2 * np.sin(np.pi * g.coords[0]) * np.sin(np.pi * g.coords[1])
        errs[n] = float(np.max(np.abs(laplacian(v).values[0] - exact)))
    order = math.log2(errs[32] / errs[64])
    assert order > 1.8, f"observed laplacian order {order:.2f}"


# ---------------------------------------------------------------------------
# the elliptic viscous block


def dirichlet_noise(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(grid.dim,) + grid.node_shape)
    vals[:, grid.boundary_mask] = 0.0
    return VectorField(grid, vals, dirichlet=True)


def test_viscous_operator_rejects_non_dirichlet():
    g = Grid(2, 8)
    v = vector_from_function(g, lambda x, y: (x, y))
    with pytest.raises(NonDirichletError):
        viscous_operator(v)


def test_viscous_operator_zero_field():
    g = Grid(2, 8)
    out = viscous_operator(VectorField.zeros(g, dirichlet=True))
    assert np.all(out.values == 0.0)


def test_viscous_operator_matches_symbolic_expansion():
    # v1 = v2 = sin(pi x) sin(pi y):  (A v)_i = 3 pi^2 sin sin - pi^2 cos cos
    errs = {}
    for n in (32, 64):
        g = Grid(2, n)
        s = lambda t: np.sin(np.pi * t)
        c = lambda t: np.cos(np.pi * t)
        x, y = g.coords
        vals = np.stack([s(x) * s(y), s(x) * s(y)])
        vals[:, g.boundary_mask] = 0.0
        v = VectorField(g, vals, dirichlet=True)
        exact = 3 * np.pi**2 * s(x) * s(y) - np.pi**2 * c(x) * c(y)
        av = viscous_operator(v)
        interior = ~g.boundary_mask
        err = max(float(np.max(np.abs(av.values[i][interior] - exact[interior])))
                  for i in range(2))
        errs[n] = err
    order = math.log2(errs[32] / errs[64])
    assert order > 1.8, f"observed elliptic-block order {order:.2f}"


def dirichlet_fields(dim):
    """Strategy: a grid with drawn cells and extents per axis, and a seed
    for `dirichlet_noise` fields on it."""
    return st.tuples(
        st.tuples(*[st.integers(8, 16 if dim == 3 else 24)] * dim),
        st.tuples(*[st.floats(0.25, 4.0)] * dim),
        st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_viscous_operator_coercive_on_rough_fields(dim, data):
    n, extent, seed = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    v = dirichlet_noise(g, seed)
    assert inner(viscous_operator(v), v) > 0.0
    z = VectorField.zeros(g, dirichlet=True)
    assert inner(viscous_operator(z), z) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_viscous_operator_symmetric(dim, data):
    n, extent, seed = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    v, w = dirichlet_noise(g, seed), dirichlet_noise(g, seed + 1)
    a = inner(viscous_operator(v), w)
    b = inner(viscous_operator(w), v)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_viscous_interior_is_the_operator_at_interior_nodes(dim, data):
    # the rows a velocity step reads, to the bit, with zero boundary rows
    n, extent, seed = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    v = dirichlet_noise(g, seed)
    inside = ~g.boundary_mask
    got = viscous_interior(v)
    assert np.array_equal(got.values[:, inside],
                          viscous_operator(v).values[:, inside])
    assert not got.values[:, g.boundary_mask].any()
    with pytest.raises(NonDirichletError):
        viscous_interior(VectorField(g, v.values))


def _compact_d2(m, h):
    """The 1-D interior second difference as a CSR matrix."""
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m - 1, m - 1),
                    format="csr") / h**2


def _centered_d1(m, h):
    """The 1-D interior first difference as a CSR matrix."""
    return sp.diags([-1.0, 1.0], [-1, 1], shape=(m - 1, m - 1),
                    format="csr") / (2.0 * h)


def _kron(g, ops):
    """ops[a] along axis a, identity elsewhere; axis 0 varies slowest,
    which is the C order of one component's interior block
    values[i][1:-1, ..., 1:-1]."""
    out = None
    for a, m in enumerate(g.n):
        f = ops[a] if a in ops else sp.eye(m - 1, format="csr")
        out = f if out is None else sp.kron(out, f, format="csr")
    return out


def _d2(g, a):
    return _kron(g, {a: _compact_d2(g.n[a], g.h[a])})


def _reference_laplacian(g):
    """The Dirichlet -lap on the interior nodes, assembled from Kronecker
    products of the 1-D matrices."""
    lap = -_d2(g, 0)
    for a in range(1, g.dim):
        lap = lap - _d2(g, a)
    return lap


def _reference_viscous(g):
    """A_h = -(lap + grad div) on the interior nodes, component-major:
    block (i, i) is -lap minus the compact d^2/dx_i^2, block (i, j) is
    -C_i C_j."""
    lap = _reference_laplacian(g)
    c = [_centered_d1(m, h) for m, h in zip(g.n, g.h)]
    rows = [sp.hstack([lap - _d2(g, i) if j == i
                       else -_kron(g, {i: c[i], j: c[j]})
                       for j in range(g.dim)], format="csr")
            for i in range(g.dim)]
    return sp.vstack(rows, format="csr")


def interior_size(grid):
    """Interior degrees of freedom of a vector field: the length of the
    flat vectors the velocity system acts on."""
    return grid.dim * math.prod(m - 1 for m in grid.n)


def _stencil_matrix(g):
    """The matrix the viscous stencil applies, read column by column from
    unit vectors through the velocity system with alpha 0, coef 1."""
    apply = viscous_system(g, 0.0, 1.0)
    size = interior_size(g)
    e = np.zeros(size)
    rows, cols, vals = [], [], []
    for col in range(size):
        e[col] = 1.0
        y = apply(e)
        e[col] = 0.0
        nz = np.flatnonzero(y)
        rows.append(nz)
        cols.append(np.full(nz.size, col))
        vals.append(y[nz])
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size))


def _assert_same_entries(got, want):
    assert got.shape == want.shape
    got, want = got.tocsr(), want.tocsr()
    for m in (got, want):
        m.eliminate_zeros()
        m.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("dim", [2, 3])
def test_assembled_matrices_exactly_symmetric(dim):
    # the stencil's matrix, and the reference -lap the tests solve with
    g = Grid(dim, (8, 10, 12)[:dim], (1.0, 0.7, 1.3)[:dim])
    for mat in (_stencil_matrix(g), _reference_laplacian(g)):
        _assert_same_entries(mat, mat.T)


@pytest.mark.parametrize("dim, n, extent", [
    (2, 64, 1.0), (3, 16, 1.0), (2, 32, 3.3), (2, (16, 24), (0.7, 10.0)),
    (3, (8, 9, 10), (0.1, 1.0, 3.3))])
def test_assembled_matrices_are_the_former_assembly_bit_for_bit(dim, n,
                                                                extent):
    # every coefficient of the stencil is the one the Kronecker assembly of
    # the 1-D difference matrices stores, at the same row and column
    g = Grid(dim, n, extent)
    _assert_same_entries(_stencil_matrix(g), _reference_viscous(g))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stencil_product_matches_the_assembled_product(dim, data):
    # the same matrix, summed in another order.  A CSR row of up to 15
    # terms is within gamma_15 |A| |x| of the exact product and the
    # stencil's deepest term within gamma_8 (gamma_k ~ k eps / 2), so the
    # two rows differ by less than 12 ulp of |A| |x|; about 4 is seen
    n, extent, seed = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    A = _reference_viscous(g)
    x = np.random.default_rng(seed).normal(size=A.shape[0])
    got = viscous_system(g, 0.0, 1.0)(x)
    scale = abs(A) @ np.abs(x)
    assert np.all(np.abs(got - A @ x) <= 12 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("dim", [2, 3])
def test_assembled_matrices_match_stencil_compositions(dim):
    # unequal cells and extents per axis expose any mix-up in the Kronecker
    # ordering; at interior nodes of a Dirichlet field the compact second
    # difference and the nested centered differences are exact oracles
    g = Grid(dim, (8, 10, 12)[:dim], (1.0, 0.7, 1.3)[:dim])
    h = g.h
    interior = ~g.boundary_mask
    v = dirichlet_noise(g, 3)

    f = v.values[0]
    lap = _reference_laplacian(g) @ f[interior]
    assert np.allclose(lap, -laplacian(ScalarField(g, f)).values[interior],
                       rtol=1e-13, atol=1e-13 * np.abs(lap).max())

    av = viscous_operator(v).values
    for i in range(dim):
        expect = (-laplacian(v).values[i]
                  - _moveaxis_diff2(v.values[i], h[i], i))
        for j in range(dim):
            if j != i:
                expect = expect - np.gradient(
                    np.gradient(v.values[j], h[j], axis=j, edge_order=2),
                    h[i], axis=i, edge_order=2)
        got = av[i][interior]
        assert np.allclose(got, expect[interior], rtol=1e-13,
                           atol=1e-13 * np.abs(got).max())


def test_quadratic_form_equals_gradient_plus_divergence_norms():
    # <A v, v> vs |grad v|^2 + |div v|^2 on smooth Dirichlet fields
    for n in (32, 64):
        g = Grid(2, n)
        rng = np.random.default_rng(7)
        v = random_smooth_field(g, rng, "vector")
        q = inner(viscous_operator(v), v)
        gt = grad_tensor(v)
        rhs = sum(weighted_l2(g, gt[i, j]) ** 2
                  for i in range(2) for j in range(2))
        rhs += weighted_l2(g, divergence(v).values) ** 2
        assert q == pytest.approx(rhs, rel=0.02)


# ---------------------------------------------------------------------------
# rate of strain


def symmetrized_reference(grid, tensor):
    """The symmetrizing branch of the former `SymTensorField.from_full`,
    kept verbatim: diagonal entries copied, off-diagonal ones averaged."""
    pairs = sym_components(grid.dim)
    vals = np.empty((len(pairs),) + grid.node_shape)
    for k, (i, j) in enumerate(pairs):
        if i != j:
            vals[k] = 0.5 * (tensor[i, j] + tensor[j, i])
        else:
            vals[k] = tensor[i, j]
    return vals


def test_strain_rotation_and_dilation():
    g = Grid(2, 16)
    rot = vector_from_function(g, lambda x, y: (-(y - 0.5), x - 0.5))
    assert np.allclose(strain(rot).values, 0.0, atol=1e-12)

    D = strain(vector_from_function(g, lambda x, y: (x, y)))
    assert np.allclose(D.values[0], 1.0, atol=1e-12)
    assert np.allclose(D.values[1], 0.0, atol=1e-12)
    assert np.allclose(D.values[2], 1.0, atol=1e-12)


def test_strain_is_the_former_symmetric_part_bit_for_bit():
    # the former rate_tensors(v)[0] symmetrized grad_tensor(v) through the
    # reference branch; its full form is exactly symmetric by storage
    for g in (Grid(2, 16), Grid(3, 8)):
        v = random_smooth_field(g, np.random.default_rng(5), "vector")
        D = strain(v)
        assert np.array_equal(D.values,
                              symmetrized_reference(g, grad_tensor(v)))
        full = D.full()
        assert np.array_equal(full, np.swapaxes(full, 0, 1))


@pytest.mark.parametrize("dim", [2, 3])
def test_from_full_takes_the_symmetric_part(dim):
    # on a general tensor it is the former symmetrizing path to the bit;
    # on a symmetric one it returns the stored triangle unchanged
    g = Grid(dim, 8)
    t = np.random.default_rng(dim).normal(size=(dim, dim) + g.node_shape)
    assert np.array_equal(SymTensorField.from_full(g, t).values,
                          symmetrized_reference(g, t))
    sym = t + np.swapaxes(t, 0, 1)
    assert np.array_equal(SymTensorField.from_full(g, sym).values,
                          [sym[i, j] for i, j in sym_components(dim)])


def test_trace_inequality_pointwise_and_normwise():
    # |tr D|^2 <= dim |D|^2 at every node, hence |div v| <= sqrt(dim) |D|
    for g in (Grid(2, 16), Grid(3, 8)):
        rng = np.random.default_rng(9)
        v = random_smooth_field(g, rng, "vector")
        D = strain(v)
        full = D.full()
        tr = np.trace(full)
        frob2 = np.sum(full * full, axis=(0, 1))
        assert np.all(tr**2 <= g.dim * frob2 + 1e-13)
        assert norm(divergence(v), 0) <= math.sqrt(g.dim) * norm(D, 0) + 1e-12


# ---------------------------------------------------------------------------
# H^{-1}


def test_hminus1_matches_eigenfunction_closed_form():
    # -lap phi = f with f = sin(pi x) sin(pi y) gives |f|_{-1}^2 = |f|^2 / (2 pi^2)
    g = Grid(2, 32)
    f = scalar_from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    target = math.sqrt(norm(f, 0) ** 2 / (2 * math.pi**2))
    assert norm_hminus1(f) == pytest.approx(target, rel=0.01)


def test_hminus1_zero():
    g = Grid(2, 8)
    assert norm_hminus1(ScalarField.zeros(g)) == 0.0


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_conjugate_gradient_matches_scipy_bit_for_bit(dim, data):
    # scipy's cg is the reference the in-house recurrence was ported from:
    # the same solution to the last bit and the same iteration count, on
    # the stencil velocity system with its sine-basis preconditioner and
    # on the assembled Dirichlet Laplacian with the identity, cold and warm
    # started
    n = data.draw(st.tuples(*[st.integers(8, 16 if dim == 3 else 40)] * dim),
                  label="n")
    extent = data.draw(st.tuples(*[st.floats(0.25, 4.0)] * dim),
                       label="extent")
    g = Grid(dim, n, extent)
    if data.draw(st.booleans(), label="velocity system"):
        alpha = data.draw(st.floats(0.1, 10.0), label="alpha")
        coef = data.draw(st.floats(1e-5, 1e-1), label="dt") * 0.5
        A = viscous_system(g, alpha, coef)
        M = viscous_preconditioner(g, alpha, coef)
        size = interior_size(g)
    else:
        L = _reference_laplacian(g)
        A, M, size = L.__matmul__, np.copy, L.shape[0]
    rtol = data.draw(st.sampled_from([1e-6, 1e-10, 1e-12]), label="rtol")
    maxiter = data.draw(st.sampled_from([1, 7, 20 * size]), label="maxiter")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    b = rng.normal(size=size)
    x0 = (rng.normal(size=b.size) if data.draw(st.booleans(), label="warm")
          else np.zeros_like(b))
    calls = []
    x_ref, info = cg(LinearOperator((size, size), matvec=A, dtype=float), b,
                     x0=x0.copy(), rtol=rtol, atol=0.0, maxiter=maxiter,
                     M=LinearOperator((size, size), matvec=M, dtype=float),
                     callback=calls.append)
    x, iters, converged = conjugate_gradient(A, M, b, x0.copy(), rtol, maxiter)
    assert np.array_equal(x, x_ref)
    assert iters == len(calls)
    assert converged == (info == 0)


def interior_stack(grid, values):
    """Interior nodes of a component stack, flat and component-major."""
    return values[(slice(None),) + (slice(1, -1),) * grid.dim].ravel()


def shifted_systems(dim):
    """Strategy: a grid with drawn cells and extents per axis, a shift
    alpha, a viscous coefficient and a seed."""
    return st.tuples(dirichlet_fields(dim), st.floats(0.1, 10.0),
                     st.sampled_from([0.0, 1e-4, 1e-2, 1.0, 5.0]))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_viscous_preconditioner_inverts_diagonal_blocks(dim, data):
    # block i of alpha I + coef A_h, applied by the velocity system to a
    # vector whose other components vanish, is diagonal in the sine basis,
    # so the preconditioner undoes it exactly
    (n, extent, seed), alpha, coef = data.draw(shifted_systems(dim))
    g = Grid(dim, n, extent)
    system = viscous_system(g, alpha, coef)
    x = np.random.default_rng(seed).normal(size=interior_size(g))
    size = x.size // dim
    y = np.empty_like(x)
    for i in range(dim):
        part = slice(i * size, (i + 1) * size)
        alone = np.zeros_like(x)
        alone[part] = x[part]
        y[part] = system(alone)[part]
    back = viscous_preconditioner(g, alpha, coef)(y)
    assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_viscous_preconditioner_symmetric_positive(dim, data):
    (n, extent, seed), alpha, coef = data.draw(shifted_systems(dim))
    g = Grid(dim, n, extent)
    P = viscous_preconditioner(g, alpha, coef)
    r = interior_stack(g, dirichlet_noise(g, seed).values)
    s = interior_stack(g, dirichlet_noise(g, seed + 1).values)
    assert np.dot(P(r), s) == pytest.approx(np.dot(r, P(s)), rel=1e-13,
                                            abs=1e-15 * np.dot(r, r) / alpha)
    assert np.dot(P(r), r) > 0.0


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_poisson_dirichlet_matches_sparse_direct_solve(dim, data):
    n, extent, seed = data.draw(dirichlet_fields(dim))
    g = Grid(dim, n, extent)
    rhs = np.random.default_rng(seed).normal(size=(2,) + g.node_shape)
    phi = _poisson_dirichlet(g, rhs)
    assert np.all(phi[:, g.boundary_mask] == 0.0)
    for comp in range(2):
        ref = spsolve(_reference_laplacian(g).tocsc(),
                      rhs[comp][~g.boundary_mask])
        got = phi[comp][~g.boundary_mask]
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# containers and snapshots


def test_field_shape_validation():
    g = Grid(2, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros(g.node_shape))
    with pytest.raises(ValueError):
        SymTensorField(g, np.zeros((2,) + g.node_shape))
    with pytest.raises(NonDirichletError):
        VectorField(g, np.ones((2,) + g.node_shape), dirichlet=True)


def test_field_arithmetic_and_flags():
    g = Grid(2, 8)
    rng = np.random.default_rng(0)
    a = random_smooth_field(g, rng, "vector")
    b = random_smooth_field(g, rng, "vector")
    assert (a + b).dirichlet
    assert (2.0 * a).dirichlet
    free = VectorField(g, np.ones((2,) + g.node_shape))
    assert not (a + free).dirichlet
    with pytest.raises(ValueError):
        a + random_smooth_field(Grid(2, 16), rng, "vector")


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_snapshot_round_trip_bit_exact(tmp_path_factory, dim, data):
    # unequal cells per axis exercise the row reshape of save_snapshot
    n = data.draw(st.tuples(*[st.integers(8, 13)] * dim), label="n")
    kind = data.draw(st.sampled_from([ScalarField, VectorField,
                                      SymTensorField]), label="kind")
    scale = data.draw(st.sampled_from([1e-7, 1.0, 1e9]), label="scale")
    t = data.draw(st.floats(-1e6, 1e6), label="t")
    g = Grid(dim, n)
    ncomp = {ScalarField: (), VectorField: (dim,),
             SymTensorField: (dim * (dim + 1) // 2,)}[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    f = kind(g, rng.normal(size=ncomp + g.node_shape) * scale)
    path = tmp_path_factory.mktemp("snap") / "snap.dat"
    save_snapshot(f, t=t, path=path)
    # the header, then the values as numpy reads them back
    with open(path) as fh:
        head = fh.readline().split()
    ncomp = int(head[1 + dim])
    assert [int(x) for x in head[:1 + dim]] == [dim, *n]
    assert ncomp == (f.values.shape[0] if kind is not ScalarField else 1)
    assert float(head[2 + dim]) == t
    back = np.loadtxt(path, skiprows=1).reshape((ncomp,) + g.node_shape)
    assert np.array_equal(back.reshape(f.values.shape), f.values)


def test_snapshot_rows_are_the_per_value_format(tmp_path):
    # one % per row writes the bytes of one f-string per value, signed
    # zeros, subnormals and extreme exponents included
    g = Grid(2, (8, 9))
    vals = np.random.default_rng(3).normal(size=(2,) + g.node_shape)
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                -1e300, 1e-300, 123456789012345678.0, 0.1, -1.0 / 3.0]
    vals.flat[:len(specials)] = specials
    f = VectorField(g, vals)
    path = tmp_path / "snap.dat"
    save_snapshot(f, t=-0.0, path=path)
    expect = f"2 8 9 2 {-0.0:.17g}\n" + "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n"
        for row in vals.reshape(-1, g.node_shape[-1]))
    assert path.read_bytes() == expect.encode()
    assert b"-0 0 4.9406564584124654e-324" in path.read_bytes()


def test_snapshot_formats_one_row_at_a_time(tmp_path):
    # a new fixed bound: a list of the whole 3D n=16 stress field peaked at
    # 1.07 MB, one row's list at a time at 0.02 MB
    g = Grid(3, 16)
    f = SymTensorField(g, np.random.default_rng(4).normal(
        size=(6,) + g.node_shape))
    path = tmp_path / "snap.dat"
    tracemalloc.start()
    try:
        save_snapshot(f, t=0.5, path=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    back = np.loadtxt(path, skiprows=1)
    assert np.array_equal(back.reshape(f.values.shape), f.values)


def test_inner_product_validation():
    ga, gb = Grid(2, 8), Grid(2, 16)
    with pytest.raises(ValueError):
        inner(ScalarField.zeros(ga), ScalarField.zeros(gb))
    with pytest.raises(TypeError):
        inner(ScalarField.zeros(ga), VectorField.zeros(ga))


def test_every_exported_name_exists():
    # a deleted function must not leave its name behind in an `__all__`
    pkg = importlib.import_module("oldroydb")
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"oldroydb.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"oldroydb.{info.name}.{name}"


def _names_read(path):
    """Every name a Python file loads, takes as an attribute or imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reader_files():
    """The package modules and the demos: the code outside the tests."""
    pkg = importlib.import_module("oldroydb")
    demos = os.path.join(ROOT, "demos")
    return ([os.path.join(pkg.__path__[0], f"{info.name}.py")
             for info in pkgutil.iter_modules(pkg.__path__)]
            + [os.path.join(demos, f) for f in os.listdir(demos)
               if f.endswith(".py")])


def _package_modules():
    """Every `oldroydb` module but `__main__`, whose import runs the CLI."""
    pkg = importlib.import_module("oldroydb")
    return [importlib.import_module(f"oldroydb.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"]


def test_every_exported_name_has_a_reader_outside_the_tests():
    # read by a package module (its own included; the re-exports of
    # `__init__` read nothing) or by a demo; a name README.md mentions but
    # no code reads does not count
    read = set().union(*map(_names_read, _reader_files()))
    unread = [f"{module.__name__}.{name}" for module in _package_modules()
              for name in getattr(module, "__all__", ())
              if name not in read]
    assert unread == []


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    # a field is read when a package module or a demo loads it as an
    # attribute; README.md naming it does not count.  The check goes by
    # name: a field passes when a field of the same name in another class
    # is read (so `RegularityReport.lhs` would pass on
    # `EnergyBudgetReport.lhs`, and `MembershipReport.velocity_budget`
    # passes on `TrajectoryNorms.velocity_budget`)
    loaded = set()
    for path in _reader_files():
        with open(path, encoding="utf-8") as fh:
            loaded.update(node.attr for node in ast.walk(ast.parse(fh.read()))
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Load))
    unread = [f"{module.__name__}.{name}.{f.name}"
              for module in _package_modules()
              for name, cls in vars(module).items()
              if dataclasses.is_dataclass(cls) and isinstance(cls, type)
              and cls.__module__ == module.__name__
              for f in dataclasses.fields(cls)
              if f.name not in loaded]
    assert unread == []
