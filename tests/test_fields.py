"""Grid, operator, norm and snapshot unit tests.

Derivative checks compare against hand-derived analytic formulas; grid
constants are fitted on the coarse grid and verified on the fine one.
"""

import math

import numpy as np
import pytest

from oldroydb import (Grid, ScalarField, SymTensorField, VectorField,
                      div_tensor, divergence, grad_tensor, gradient, inner,
                      laplacian, mean, mean_zero_project, norm, norm_hminus1,
                      rate_tensors, save_snapshot, load_snapshot,
                      viscous_operator)
from oldroydb.errors import NonDirichletError
from oldroydb.fields import (_diff1, _diff2, random_smooth_field,
                             sym_components)


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
        f = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x))
        errs.append(abs(norm(f, 1) ** 2 - target))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 0.005 * target


def test_norm_order_validation():
    g = Grid(2, 8)
    f = ScalarField.zeros(g)
    for bad in (4, -1, 1.5, "2"):
        with pytest.raises(ValueError):
            norm(f, bad)


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
        f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * g.coords[0])
        errs[n] = float(np.max(np.abs(gradient(f).values[0] - exact)))
    order = math.log2(errs[32] / errs[64])
    assert order > 1.8, f"observed gradient order {order:.2f}"
    c_fit = errs[32] / (1.0 / 32) ** 2
    assert errs[64] <= 1.2 * c_fit * (1.0 / 64) ** 2


def test_divergence_of_shear_rotation_is_zero():
    g = Grid(2, 16)
    v = VectorField.from_function(g, lambda x, y: (x, -y))
    assert np.allclose(divergence(v).values, 0.0, atol=1e-12)


def test_div_tensor_of_constant_identity_is_zero():
    for g in (Grid(2, 8), Grid(3, 8)):
        t = SymTensorField.identity(g, 3.5)
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


def test_laplacian_trig_order():
    errs = {}
    for n in (32, 64):
        g = Grid(2, n)
        v = VectorField.from_function(
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
    v = VectorField.from_function(g, lambda x, y: (x, y))
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
        interior = g.interior_mask
        err = max(float(np.max(np.abs(av.values[i][interior] - exact[interior])))
                  for i in range(2))
        errs[n] = err
    order = math.log2(errs[32] / errs[64])
    assert order > 1.8, f"observed elliptic-block order {order:.2f}"


@pytest.mark.parametrize("dim", [2, 3])
def test_viscous_operator_coercive_on_rough_fields(dim):
    g = Grid(dim, 16)
    for seed in range(8):
        v = dirichlet_noise(g, seed)
        q = inner(viscous_operator(v), v)
        assert q > 0.0
    z = VectorField.zeros(g, dirichlet=True)
    assert inner(viscous_operator(z), z) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_viscous_operator_symmetric(dim):
    g = Grid(dim, 16)
    v, w = dirichlet_noise(g, 10), dirichlet_noise(g, 11)
    a = inner(viscous_operator(v), w)
    b = inner(viscous_operator(w), v)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_assembled_matrices_exactly_symmetric(dim):
    g = Grid(dim, (8, 10, 12)[:dim], (1.0, 0.7, 1.3)[:dim])
    for mat in (g.viscous_matrix, g.dirichlet_laplacian):
        assert abs(mat - mat.T).max() == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_assembled_matrices_match_stencil_compositions(dim):
    # unequal cells and extents per axis expose any mix-up in the Kronecker
    # ordering; at interior nodes of a Dirichlet field the compact second
    # difference and the nested centered differences are exact oracles
    g = Grid(dim, (8, 10, 12)[:dim], (1.0, 0.7, 1.3)[:dim])
    h = g.h
    interior = g.interior_mask
    v = dirichlet_noise(g, 3)

    f = v.values[0]
    lap = g.dirichlet_laplacian @ f[interior]
    assert np.allclose(lap, -laplacian(ScalarField(g, f)).values[interior],
                       rtol=1e-13, atol=1e-13 * np.abs(lap).max())

    av = viscous_operator(v).values
    for i in range(dim):
        expect = -laplacian(v).values[i] - _diff2(v.values[i], h[i], i)
        for j in range(dim):
            if j != i:
                expect = expect - _diff1(_diff1(v.values[j], h[j], j), h[i], i)
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
# rate tensors


def test_rate_tensors_rotation_and_dilation():
    g = Grid(2, 16)
    rot = VectorField.from_function(g, lambda x, y: (-(y - 0.5), x - 0.5))
    D, W = rate_tensors(rot)
    assert np.allclose(D.values, 0.0, atol=1e-12)
    assert np.allclose(W[0, 1], -1.0, atol=1e-12)

    dil = VectorField.from_function(g, lambda x, y: (x, y))
    D, W = rate_tensors(dil)
    assert np.allclose(D.values[0], 1.0, atol=1e-12)
    assert np.allclose(D.values[1], 0.0, atol=1e-12)
    assert np.allclose(D.values[2], 1.0, atol=1e-12)
    assert np.allclose(W, 0.0, atol=1e-12)


def test_rate_tensors_split_is_exact_to_the_ulp():
    for g in (Grid(2, 16), Grid(3, 8)):
        rng = np.random.default_rng(5)
        v = random_smooth_field(g, rng, "vector")
        D, W = rate_tensors(v)
        full = D.full()
        # structural exactness of the two parts
        assert np.array_equal(full, np.swapaxes(full, 0, 1))
        assert np.array_equal(W, -np.swapaxes(W, 0, 1))
        # reconstruction differs from the gradient by at most one rounding
        gt = grad_tensor(v)
        tol = 4.0 * np.spacing(np.maximum(np.abs(gt), np.abs(full)) + 1e-300)
        assert np.all(np.abs(full + W - gt) <= tol)


def test_trace_inequality_pointwise_and_normwise():
    # |tr D|^2 <= dim |D|^2 at every node, hence |div v| <= sqrt(dim) |D|
    for g in (Grid(2, 16), Grid(3, 8)):
        rng = np.random.default_rng(9)
        v = random_smooth_field(g, rng, "vector")
        D, _ = rate_tensors(v)
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
    f = ScalarField.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    target = math.sqrt(norm(f, 0) ** 2 / (2 * math.pi**2))
    assert norm_hminus1(f) == pytest.approx(target, rel=0.01)


def test_hminus1_zero():
    g = Grid(2, 8)
    assert norm_hminus1(ScalarField.zeros(g)) == 0.0


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


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    cases = []
    for g in (Grid(2, 8), Grid(3, 8)):
        cases.append(ScalarField(g, rng.normal(size=g.node_shape) * 1e-7))
        cases.append(VectorField(g, rng.normal(size=(g.dim,) + g.node_shape)))
        m = g.dim * (g.dim + 1) // 2
        cases.append(SymTensorField(g, rng.normal(size=(m,) + g.node_shape) * 1e9))
    for i, f in enumerate(cases):
        path = tmp_path / f"snap_{i}.dat"
        save_snapshot(f, t=0.125 + i, path=path)
        back, t = load_snapshot(path, grid=f.grid)
        assert type(back) is type(f)
        assert t == 0.125 + i
        assert np.array_equal(back.values, f.values)


def test_snapshot_grid_mismatch(tmp_path):
    g = Grid(2, 8)
    f = ScalarField.zeros(g)
    path = tmp_path / "snap.dat"
    save_snapshot(f, 0.0, path)
    with pytest.raises(ValueError):
        load_snapshot(path, grid=Grid(2, 16))


def test_inner_product_validation():
    ga, gb = Grid(2, 8), Grid(2, 16)
    with pytest.raises(ValueError):
        inner(ScalarField.zeros(ga), ScalarField.zeros(gb))
    with pytest.raises(TypeError):
        inner(ScalarField.zeros(ga), VectorField.zeros(ga))
