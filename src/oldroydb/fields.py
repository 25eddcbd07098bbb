"""Structured grids, field containers and discrete differential operators.

Layout: a uniform vertex-centered Cartesian grid on an axis-aligned box.
An axis with n cells carries n+1 nodes including both boundary nodes, so
Dirichlet conditions are imposed exactly on the boundary nodes.

Quadrature: discrete integrals use trapezoid weights (half weight on
boundary nodes), so the unit constant on the unit box has L2 norm exactly 1
and the discrete mean of a projected field vanishes to round-off.

Differences: first and second derivatives are second-order centered in the
interior with second-order one-sided closures at the boundary; every
operator is exact on affine fields.  `_diff1` and `_diff2` take the interior
stencil in one pass over the flattened array, offset by the axis stride, and
then overwrite the two edge slabs with the closures; `_diff1` does numpy's
`gradient` arithmetic (edge order 2) element for element.  Every first
derivative in the package goes through `_diff1`.  `grad_tensor`,
`div_tensor` and `laplacian` difference all components at once, one call per
axis on the component stack, with the arithmetic of differencing each
component alone.
div w is always the diagonal of the gradient added in axis order
(`diagonal_sum`), wherever the diagonal comes from.

The elliptic block A_h = -(lap + grad div), which `viscous_operator`
applies at interior nodes, `viscous_interior` applies with zero boundary
rows for the sweep's forcing, and the velocity step solves
(`viscous_system`), is applied as a stencil on the flat, zero-bordered
component stack with the same axis-stride offsets (`_viscous_stencil`):
one compact second difference per axis for all components at once, with
the weight doubled on component a along axis a (the compact d^2/dx_a^2 of
A_h's diagonal block), and for each axis pair a < b the product of the
two centered differences, which couples components a and b.  Every
coefficient is the value the interior `_diff2` or `_diff1` stencil takes
at a unit vector, so the matrix the stencil applies is exactly symmetric
and is, entry for entry, the Kronecker assembly of the 1-D interior
difference matrices.

Sine eigenpairs: on an m-cell axis the 1-D Dirichlet -d^2/dx^2 is
S diag(lam) S with lam_k = (4/h^2) sin^2(k pi/2m) and the symmetric,
orthonormal DST-I matrix S_jk = sqrt(2/m) sin(jk pi/m), j, k = 1..m-1
(`Grid.sine_eigenpairs`, one pair per axis).  `_sine_transform` applies S
along every axis of a stack of interior values with one matmul per axis;
it is its own inverse.  In that basis -lap is diagonal with eigenvalues
sum_a lam_a, and so is each diagonal block -(lap + d^2/dx_i^2) of A_h,
with sum_a lam_a + lam_i; only the off-diagonal blocks -C_i C_j are not.

Sobolev norms H^k (k <= 3) sum weighted L2 squares of all repeated
difference quotients up to order k.  `norms` walks one derivative tree per
field: the components are stacked, and each sorted multi-index extends its
parent by one difference along an axis no smaller than its last, so H^0..H^3
of a 3-D field take 19 difference calls whatever the component count.  The
quotients and the summation order are those of differencing each multi-index
from scratch, one component at a time, so the two agree to the last bit: the
weighted squares of all components of a multi-index come from one reduction
over the (ncomp, nodes) rows, which gives each component the pairwise sum
`np.sum` takes of it alone; `inner` and H^{-1} sum their components the
same way.  H^{-1} is realized through the discrete Dirichlet-Laplacian
solve of every component, done exactly in the sine basis: transform, divide
by sum_a lam_a, transform back.  `trajectory_norms` takes each norm a
trajectory's budgets read, once per node and rate, into one table whose
columns the membership check, the post-run audit and the gap energy read.
It stacks several nodes (or rates, each built with its batch) into one
derivative tree, in batches of at most `_NORM_BATCH` floats; since every
difference is elementwise and every (node, component) row is reduced on
its own, each row is the bits of `norms` of that node alone.  A table can
hand node 0's rows to the next table of a trajectory with the same node 0,
which `iterate` does: its sweeps all pass node 0 through.

The velocity step solves alpha I + c A_h by `conjugate_gradient`, the
package's port of scipy's preconditioned CG, with `viscous_preconditioner`:
the exact inverse of the diagonal blocks of alpha I + c A_h in the sine
basis (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  The coupling blocks
it drops are bounded by the diagonal blocks it keeps, uniformly in h and
c, so the iteration count does not grow as the grid is refined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import NonDirichletError

__all__ = [
    "Grid", "ScalarField", "VectorField", "SymTensorField",
    "gradient", "grad_tensor", "diagonal_sum", "divergence", "div_tensor",
    "laplacian", "viscous_operator", "viscous_interior", "strain", "norm",
    "norms", "inner", "mean", "mean_zero_project", "norm_hminus1",
    "sym_components", "save_snapshot",
    "conjugate_gradient", "viscous_system", "viscous_preconditioner",
    "TrajectoryNorms", "trajectory_norms",
]


def _as_tuple(value, dim, cast):
    if np.isscalar(value):
        return (cast(value),) * dim
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis entries, got {len(out)}")
    return out


@dataclass(eq=True)
class Grid:
    """Uniform vertex-centered grid on the box prod_i [0, extent_i]."""

    dim: int
    n: tuple[int, ...]
    extent: tuple[float, ...] = field(default=None)

    def __init__(self, dim, n, extent=1.0):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        self.dim = int(dim)
        self.n = _as_tuple(n, self.dim, int)
        if min(self.n) < 8:
            raise ValueError(f"need at least 8 cells per axis, got {self.n}")
        self.extent = _as_tuple(extent, self.dim, float)
        if min(self.extent) <= 0.0:
            raise ValueError(f"extents must be positive, got {self.extent}")

    @classmethod
    def unit(cls, n, dim=2):
        return cls(dim, n, 1.0)

    @property
    def h(self):
        return tuple(L / m for L, m in zip(self.extent, self.n))

    @property
    def node_shape(self):
        return tuple(m + 1 for m in self.n)

    @cached_property
    def axes(self):
        return tuple(np.linspace(0.0, L, m + 1) for L, m in zip(self.extent, self.n))

    @cached_property
    def coords(self):
        """Node coordinates, shape (dim, *node_shape)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def weights(self):
        """Trapezoid quadrature weights per node, shape node_shape."""
        w = np.ones(())
        for L, m in zip(self.extent, self.n):
            w1 = np.full(m + 1, L / m)
            w1[0] *= 0.5
            w1[-1] *= 0.5
            w = np.multiply.outer(w, w1)
        return w

    @cached_property
    def boundary_mask(self):
        """True exactly on the nodes lying on the box boundary."""
        mask = np.zeros(self.node_shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask

    @cached_property
    def _viscous_coefficients(self):
        """`_viscous_stencil`'s axis strides, neighbour weights per axis and
        component, centre weights (sum_a 2/h_a^2 + 2/h_i^2, added in axis
        order) and, per axis pair a < b, components (a, b) and their weight.
        """
        d = self.dim
        strides = [math.prod(self.node_shape[a + 1:]) for a in range(d)]
        w = [1.0 / h**2 for h in self.h]
        c = [0.5 / h for h in self.h]
        weights = [np.array([[2.0 * w[a] if i == a else w[a]]
                             for i in range(d)]) for a in range(d)]
        total = 2.0 * w[0]
        for wa in w[1:]:
            total += 2.0 * wa
        centre = np.array([[total + 2.0 * w[i]] for i in range(d)])
        pairs = [(a, b, slice(a, b + 1, b - a), c[a] * c[b])
                 for a, b in itertools.combinations(range(d), 2)]
        return strides, weights, centre, pairs

    @cached_property
    def sine_eigenpairs(self):
        """Per axis, (lam, S): on an axis of n_a cells, the 1-D Dirichlet
        -d^2/dx^2 (the interior `_diff2` matrix, negated) is S diag(lam) S.

        jk is reduced mod 2m before the sine, so every argument lies in
        [0, 2 pi) and S is exactly symmetric.
        """
        pairs = []
        for m, h in zip(self.n, self.h):
            k = np.arange(1, m)
            lam = (4.0 / h**2) * np.sin(k * np.pi / (2 * m)) ** 2
            S = np.sqrt(2.0 / m) * np.sin(np.outer(k, k) % (2 * m) * np.pi / m)
            pairs.append((lam, S))
        return tuple(pairs)

    @property
    def volume(self):
        return float(np.prod(self.extent))


def sym_components(dim):
    """Index pairs of the stored upper triangle, row-major."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _check_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


class _FieldBase:
    """Shared construction and arithmetic for the three field containers;
    each names its `_kind` and the `_shape` of its values on a grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        shape = self._shape(grid)
        if values.shape != shape:
            raise ValueError(f"{self._kind} values must have shape {shape}, "
                             f"got {values.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid, **flags):
        return cls(grid, np.zeros(cls._shape(grid)), **flags)

    @property
    def ncomp(self):
        return self.values.shape[0]

    def _flags(self):
        return {}

    def _binary(self, other, op):
        _check_grid(self, other)
        if type(other) is not type(self):
            raise TypeError("mixed field types")
        flags = self._flags()
        for k, v in other._flags().items():
            flags[k] = v and flags[k]
        return self.__class__(self.grid, op(self.values, other.values), **flags)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        return self.__class__(self.grid, self.values * float(c), **self._flags())

    __rmul__ = __mul__


class ScalarField(_FieldBase):
    """Scalar samples at the grid nodes."""

    _kind = "scalar"
    ncomp = 1

    @staticmethod
    def _shape(grid):
        return grid.node_shape


class VectorField(_FieldBase):
    """Vector samples, component-first storage (dim, *node_shape).

    `dirichlet=True` asserts (and checks) that every component vanishes on
    the boundary nodes.
    """

    _kind = "vector"

    @staticmethod
    def _shape(grid):
        return (grid.dim,) + grid.node_shape

    def __init__(self, grid, values, dirichlet=False):
        super().__init__(grid, values)
        if dirichlet and not np.all(self.values[:, grid.boundary_mask] == 0.0):
            raise NonDirichletError("dirichlet-flagged field is nonzero on the boundary")
        self.dirichlet = bool(dirichlet)

    def _flags(self):
        return {"dirichlet": self.dirichlet}


class SymTensorField(_FieldBase):
    """Symmetric tensor samples; only the upper triangle is stored.

    Storage order is row-major over the upper triangle: 2-D components are
    (00, 01, 11), 3-D components are (00, 01, 02, 11, 12, 22).  Symmetry is
    therefore structural: `full()` mirrors the stored values exactly.
    """

    _kind = "symmetric tensor"

    @staticmethod
    def _shape(grid):
        return (grid.dim * (grid.dim + 1) // 2,) + grid.node_shape

    def full(self):
        """Dense (dim, dim, *node_shape) view; exactly symmetric."""
        d = self.grid.dim
        out = np.empty((d, d) + self.grid.node_shape)
        for k, (i, j) in enumerate(sym_components(d)):
            out[i, j] = self.values[k]
            if i != j:
                out[j, i] = self.values[k]
        return out

    @classmethod
    def from_full(cls, grid, tensor):
        """The symmetric part of a dense (dim, dim, *node_shape) tensor;
        a symmetric tensor comes back bit for bit."""
        tensor = np.asarray(tensor, dtype=float)
        pairs = sym_components(grid.dim)
        vals = np.empty((len(pairs),) + grid.node_shape)
        for k, (i, j) in enumerate(pairs):
            vals[k] = (tensor[i, j] if i == j
                       else 0.5 * (tensor[i, j] + tensor[j, i]))
        return cls(grid, vals)


# ---------------------------------------------------------------------------
# difference stencils


def _along(values, axis):
    """`values` as one contiguous flat array, the same array viewed as
    (outer, n, inner) around `axis`, and the axis stride `inner`."""
    x = np.ascontiguousarray(values)
    inner = math.prod(x.shape[axis + 1:])
    return x.reshape(-1), x.reshape(-1, x.shape[axis], inner), inner


def _diff1(values, h, axis):
    """Second-order first derivative (centered interior, one-sided edges).

    The arithmetic of numpy's `gradient(values, h, axis=axis, edge_order=2)`
    element for element.  Interior: (f[i+1] - f[i-1]) / (2 h), taken in one
    pass over the flat array offset by the axis stride s.  That pass also
    fills the two edge slabs with quotients across the slab seams, which the
    one-sided (-1.5 f0 + 2 f1 - 0.5 f2) / h closures then overwrite.
    """
    x, f, s = _along(values, axis)
    out = np.empty_like(x)
    mid = out[s:-s]
    np.subtract(x[2 * s:], x[:-2 * s], out=mid)
    mid /= 2.0 * h
    o = out.reshape(f.shape)
    o[:, 0] = (-1.5 / h) * f[:, 0] + (2.0 / h) * f[:, 1] + (-0.5 / h) * f[:, 2]
    o[:, -1] = ((0.5 / h) * f[:, -3] + (-2.0 / h) * f[:, -2]
                + (1.5 / h) * f[:, -1])
    return out.reshape(values.shape)


def _diff2(values, h, axis):
    """Second-order second derivative along one axis.

    Interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2, one pass over the flat array
    as in `_diff1`.  Boundary: the one-sided four-point stencil
    (2, -5, 4, -1) / h^2, which is also second order and exact on affine
    data.
    """
    x, f, s = _along(values, axis)
    out = np.empty_like(x)
    mid = out[s:-s]
    np.multiply(2.0, x[s:-s], out=mid)
    np.subtract(x[:-2 * s], mid, out=mid)
    mid += x[2 * s:]
    mid /= h**2
    o = out.reshape(f.shape)
    o[:, 0] = (2.0 * f[:, 0] - 5.0 * f[:, 1] + 4.0 * f[:, 2] - f[:, 3]) / h**2
    o[:, -1] = (2.0 * f[:, -1] - 5.0 * f[:, -2] + 4.0 * f[:, -3]
                - f[:, -4]) / h**2
    return out.reshape(values.shape)


def gradient(f: ScalarField) -> VectorField:
    """Discrete gradient of a scalar field."""
    h = f.grid.h
    vals = np.stack([_diff1(f.values, h[ax], ax) for ax in range(f.grid.dim)])
    return VectorField(f.grid, vals)


def grad_tensor(v: VectorField) -> np.ndarray:
    """Velocity gradient samples, shape (dim, dim, *nodes); [i, j] = d v_i / d x_j."""
    d = v.grid.dim
    h = v.grid.h
    out = np.empty((d, d) + v.grid.node_shape)
    for j in range(d):
        out[:, j] = _diff1(v.values, h[j], j + 1)
    return out


def diagonal_sum(diagonal) -> np.ndarray:
    """div w from the diagonal d_i w_i of its gradient, added in axis order.

    `divergence` and every reader of a stored `grad_tensor` take div w
    through this one sum, so all of them agree to the last bit.
    """
    return reduce(np.add, diagonal)


def divergence(v: VectorField) -> ScalarField:
    h = v.grid.h
    return ScalarField(v.grid, diagonal_sum(
        _diff1(v.values[ax], h[ax], ax) for ax in range(v.grid.dim)))


def div_tensor(t: SymTensorField) -> VectorField:
    """Row-wise divergence of a symmetric tensor: (div T)_i = sum_j dT_ij/dx_j."""
    h = t.grid.h
    full = t.full()
    acc = _diff1(full[:, 0], h[0], 1)
    for j in range(1, t.grid.dim):
        acc = acc + _diff1(full[:, j], h[j], j + 1)
    return VectorField(t.grid, acc)


def laplacian(v) -> "VectorField | ScalarField":
    """Componentwise Laplacian of a scalar or vector field."""
    h = v.grid.h
    stack, _ = _components(v)
    acc = _diff2(stack, h[0], 1)
    for ax in range(1, v.grid.dim):
        acc = acc + _diff2(stack, h[ax], ax + 1)
    return type(v)(v.grid, acc.reshape(v.values.shape))


def _viscous_stencil(grid: Grid, x: np.ndarray) -> np.ndarray:
    """A_h x at the interior nodes of a component stack x (dim, *node_shape)
    that vanishes on the boundary.

    Each term is one pass over the flat (dim, nodes) rows offset by the
    axis strides, as in `_diff2`: at an interior node every offset reaches
    the true neighbour, and the boundary entries of the result, which see
    across the row seams, are left for the caller to drop or overwrite.
    """
    strides, weights, centre, pairs = grid._viscous_coefficients
    comp = x.reshape(grid.dim, -1)
    y = centre * comp
    for s, w in zip(strides, weights):
        t = comp[:, :-2 * s] + comp[:, 2 * s:]
        t *= w
        y[:, s:-s] -= t
    for a, b, both, cab in pairs:
        sa, sb = strides[a], strides[b]
        t = comp[both, 2 * sb:] - comp[both, :-2 * sb]
        t = t[:, 2 * sa:] - t[:, :-2 * sa]
        t *= cab
        y[a, sa + sb:-sa - sb] -= t[1]
        y[b, sa + sb:-sa - sb] -= t[0]
    return y.reshape(x.shape)


def viscous_operator(v: VectorField) -> VectorField:
    """The elliptic block A v = -(lap v + grad div v) on a Dirichlet field.

    Interior nodes apply `_viscous_stencil`, whose matrix is exactly
    symmetric and has a quadratic form that is a sum of squared difference
    quotients, so the weighted <A v, v> is nonnegative and vanishes only
    for v = 0.  Boundary nodes carry the generic one-sided composition
    (they never enter the inner product because v vanishes there).  That
    composition is evaluated on the whole grid, but only its boundary
    values are kept: the stencil overwrites every interior node.  A reader
    of the interior rows alone takes `viscous_interior`.
    """
    if not v.dirichlet:
        raise NonDirichletError("viscous_operator requires a dirichlet-flagged field")
    g = v.grid
    vals = -(laplacian(v).values + gradient(divergence(v)).values)
    interior = (slice(None),) + (slice(1, -1),) * g.dim
    vals[interior] = _viscous_stencil(g, v.values)[interior]
    return VectorField(g, vals, dirichlet=False)


def viscous_interior(v: VectorField) -> VectorField:
    """A_h v at interior nodes, zero on the boundary nodes: the rows of
    `viscous_operator(v)` that a velocity step reads, equal to them to the
    bit, without the whole-grid composition that only the boundary rows
    need.
    """
    if not v.dirichlet:
        raise NonDirichletError("viscous_interior requires a dirichlet-flagged field")
    vals = _viscous_stencil(v.grid, v.values)
    vals[:, v.grid.boundary_mask] = 0.0
    return VectorField(v.grid, vals)


def strain(v: VectorField) -> SymTensorField:
    """The rate of strain D = sym grad v."""
    return SymTensorField.from_full(v.grid, grad_tensor(v))


# ---------------------------------------------------------------------------
# norms and integrals


def _components(f):
    """Stacked component samples (ncomp, *node_shape) and the multiplicity
    of each component in the full tensor norm."""
    if isinstance(f, ScalarField):
        return f.values[None], (1.0,)
    if isinstance(f, VectorField):
        return f.values, (1.0,) * f.grid.dim
    if isinstance(f, SymTensorField):
        return f.values, tuple(1.0 if i == j else 2.0
                               for i, j in sym_components(f.grid.dim))
    raise TypeError(f"not a field: {type(f)!r}")


def _weighted_sums(w, a, b):
    """sum(w a_c b_c) of each component c of two stacks, as Python floats.

    One reduction over the (ncomp, nodes) rows of w * a * b gives each
    component the same pairwise sum as `np.sum` of that component alone.
    """
    t = w * a
    t *= b
    return np.add.reduce(t.reshape(len(t), -1), axis=1).tolist()


def inner(a, b) -> float:
    """Weighted L2 inner product; off-diagonal tensor entries count twice."""
    _check_grid(a, b)
    if type(a) is not type(b):
        raise TypeError("mixed field types in inner product")
    ca, mults = _components(a)
    cb, _ = _components(b)
    total = 0.0
    for s, m in zip(_weighted_sums(a.grid.weights, ca, cb), mults):
        total += m * s
    return total


def _stack_norms(grid: Grid, stack: np.ndarray, mults, k: int) -> np.ndarray:
    """H^0..H^k of every field of a stack (fields, ncomp, *node_shape).

    One derivative tree over all fields and components: the quotient of each
    sorted multi-index is one difference of its parent's, and each
    (field, component) row is reduced on its own, so a field's row of the
    result does not depend on what else is stacked with it.  Per field the
    squared terms are added in the order `norm` defines.  Returns an array
    (fields, k + 1).
    """
    count, ncomp = stack.shape[:2]
    w, h = grid.weights, grid.h
    squares = {}  # multi-index -> weighted L2 square per (field, component)

    def visit(axes, d):
        squares[axes] = _weighted_sums(w, d, d)
        if len(axes) < k:
            for ax in range(axes[-1] if axes else 0, grid.dim):
                visit(axes + (ax,), _diff1(d, h[ax], ax + 1))

    visit((), stack.reshape((count * ncomp,) + grid.node_shape))
    terms = [(order, squares[axes]) for order in range(k + 1)
             for axes in itertools.combinations_with_replacement(
                 range(grid.dim), order)]
    rows = []
    for i in range(count):
        totals = [0.0] * (k + 1)
        for c, mult in enumerate(mults):
            for order, square in terms:
                term = mult * square[i * ncomp + c]
                for j in range(order, k + 1):
                    totals[j] += term
        rows.append(totals)
    return np.sqrt(rows)


def norms(f, k: int = 0) -> tuple:
    """Discrete Sobolev norms (H^0, ..., H^k), k in {0, 1, 2, 3}, in one pass.

    One derivative tree over the stacked components (`_stack_norms`): the
    quotient of each sorted multi-index is one difference of its parent's.
    The squared terms are added in the order `norm` defines, so entry j
    equals `norm(f, j)` exactly.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or k > 3:
        raise ValueError(f"norm order k={k} out of range 0..3")
    stack, mults = _components(f)
    return tuple(_stack_norms(f.grid, stack[None], mults, k)[0].tolist())


def norm(f, k: int = 0) -> float:
    """Discrete Sobolev norm H^k, k in {0, 1, 2, 3}.

    Adds the weighted L2 squares of every repeated difference quotient up to
    order k, component by component and, within a component, order by order
    over the sorted multi-indices (each counted once; mixed quotients
    commute exactly).  Computed by `norms`, which returns every order up to
    k from the same derivative pass.
    """
    return norms(f, k)[k]


@dataclass(frozen=True)
class TrajectoryNorms:
    """Per-node Sobolev norms of one trajectory on a uniform time ladder.

    Row k of `w` is H^0..H^3 of velocity node k and row k of `pi` and `psi`
    H^0..H^2 of node k; row k-1 of each `*_rate` is L^2 and H^1 of the
    backward difference (node_k - node_{k-1}) / dt.  Sups are column maxima
    over the rows; `integral` is the right-endpoint rule over nodes 1..N.
    """

    dt: float
    w: np.ndarray
    w_rate: np.ndarray
    pi: np.ndarray
    pi_rate: np.ndarray
    psi: np.ndarray
    psi_rate: np.ndarray

    def integral(self, values) -> float:
        """sum_k dt values[k], added in node order."""
        return sum(self.dt * v for v in values)

    @property
    def w_l1h3(self):
        return self.integral(self.w[1:, 3].tolist())

    @property
    def w_suph2(self):
        return float(self.w[:, 2].max())

    @property
    def first_rows(self):
        """The (w, pi, psi) rows of node 0, for `trajectory_norms`."""
        return self.w[0], self.pi[0], self.psi[0]

    @property
    def velocity_budget(self):
        """int ||w||_H3^2 + sup ||w||_H2^2 + int ||w'||_H1^2 + sup ||w'||_L2^2,
        squared on Python floats to match `norm(...) ** 2` to the bit."""
        def squares(column):
            return [x ** 2 for x in column.tolist()]
        return (self.integral(squares(self.w[1:, 3]))
                + max(squares(self.w[:, 2]))
                + self.integral(squares(self.w_rate[:, 1]))
                + max(squares(self.w_rate[:, 0])))


# floats in one stacked batch of `trajectory_norms`: two 3-D n=16 velocity
# nodes, so the norms of 3-D trajectories are batched too, yet small enough
# that a derivative tree, which holds about k + 2 arrays of the batch's
# size at once, keeps the peak memory of every benchmark workload within 2%
# of norming node by node
_NORM_BATCH = 30_000


def _batched_norms(nodes, k, dt=None):
    """H^0..H^k of each node, or with ``dt`` of each backward difference
    (node_i - node_{i-1}) / dt, from stacks of at most `_NORM_BATCH` floats
    (one node at least), each built only when its batch is normed."""
    grid = nodes[0].grid
    mults = _components(nodes[0])[1]
    size = max(1, _NORM_BATCH // (len(mults) * math.prod(grid.node_shape)))
    lag = 0 if dt is None else 1
    rows = []
    for start in range(lag, len(nodes), size):
        stack = np.stack([_components(f)[0]
                          for f in nodes[start - lag:start + size]])
        if dt is not None:
            stack = (stack[1:] - stack[:-1]) / dt
        rows.append(_stack_norms(grid, stack, mults, k))
    return np.concatenate(rows)


def trajectory_norms(ws, pis, psis, dt, first_rows=None) -> TrajectoryNorms:
    """Every norm the budgets of a velocity, density and stress trajectory
    read, each computed once, in node batches (`_batched_norms`).

    ``first_rows``, the (w, pi, psi) rows of node 0 from the table of a
    trajectory with the same node 0 (`TrajectoryNorms.first_rows`), are
    reused instead of recomputed.
    """
    if not len(ws) == len(pis) == len(psis) >= 2:
        raise ValueError("need trajectories of one length, at least 2 nodes")
    if first_rows is None:
        w, pi, psi = (_batched_norms(ws, 3), _batched_norms(pis, 2),
                      _batched_norms(psis, 2))
    else:
        w, pi, psi = (np.vstack([row, _batched_norms(nodes[1:], k)])
                      for row, nodes, k in zip(first_rows, (ws, pis, psis),
                                               (3, 2, 2)))
    return TrajectoryNorms(
        dt=dt, w=w, w_rate=_batched_norms(ws, 1, dt), pi=pi,
        pi_rate=_batched_norms(pis, 1, dt), psi=psi,
        psi_rate=_batched_norms(psis, 1, dt))


def mean(f: ScalarField) -> float:
    return float(np.sum(f.grid.weights * f.values) / f.grid.volume)


def mean_zero_project(f: ScalarField) -> ScalarField:
    """Subtract the weighted mean; idempotent to round-off."""
    return ScalarField(f.grid, f.values - mean(f))


# ---------------------------------------------------------------------------
# sine transforms, preconditioned conjugate gradients and the discrete H^{-1}


def _sine_transform(grid: Grid, x: np.ndarray) -> np.ndarray:
    """S along every spatial axis of a stack x (ncomp, n_0-1, ..., n_d-1)
    of interior values; its own inverse.  In 2D this is S0 @ x @ S1."""
    shape = x.shape
    pairs = grid.sine_eigenpairs
    y = x.reshape(-1, shape[-1]) @ pairs[-1][1]
    for a in range(grid.dim - 2, -1, -1):
        lead = int(np.prod(shape[:a + 1]))
        y = pairs[a][1] @ y.reshape(lead, shape[a + 1], -1)
    return y.reshape(shape)


def _laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """sum_a lam_a over the interior index grid: -lap in the sine basis."""
    return reduce(np.add.outer, [lam for lam, _ in grid.sine_eigenpairs])


def viscous_system(grid: Grid, alpha: float, coef: float):
    """p -> (alpha I + coef A_h) p, the system the velocity step solves.

    p and the result are flat component-major interior vectors, the C order
    of values[:, 1:-1, ..., 1:-1].  A_h is `_viscous_stencil` on one
    zero-bordered stack that each call refills with p.
    """
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    padded = np.zeros((grid.dim,) + grid.node_shape)
    inside = padded[interior]

    def apply(p):
        inside[...] = p.reshape(inside.shape)
        q = np.multiply(_viscous_stencil(grid, padded)[interior], coef).ravel()
        q += alpha * p
        return q

    return apply


def viscous_preconditioner(grid: Grid, alpha: float, coef: float):
    """r -> P r, P the inverse of the diagonal blocks of alpha I + coef A_h.

    Block i is alpha I + coef (-(lap + d^2/dx_i^2)), diagonal in the sine
    basis with entries alpha + coef (sum_a lam_a + lam_i); P is symmetric
    positive definite for alpha > 0, coef >= 0.  r and P r are flat
    component-major interior vectors, the layout of `viscous_system`.
    """
    lams = [lam for lam, _ in grid.sine_eigenpairs]
    total = _laplacian_eigenvalues(grid)
    inv = 1.0 / (alpha + coef * np.stack(
        [total + lams[i].reshape((-1,) + (1,) * (grid.dim - 1 - i))
         for i in range(grid.dim)]))

    def apply(r):
        return _sine_transform(grid, inv * _sine_transform(
            grid, r.reshape(inv.shape))).ravel()

    return apply


def conjugate_gradient(A, M, b, x, rtol, maxiter):
    """Preconditioned CG from x, which it updates in place.

    A applies the SPD system matrix and M the SPD preconditioner to a
    vector.  Stops once the recursive residual
    has ||r|| < rtol ||b||; returns (x, iterations, converged).  The
    arithmetic and its order are those of `scipy.sparse.linalg.cg` with
    atol=0 and the same M, so x and the iteration count agree with it bit
    for bit.  A residual norm that is not finite (NaN in b, x or an
    operator) stops it at once, unconverged.
    """
    atol = rtol * np.linalg.norm(b)
    r = b - A(x) if x.any() else b.copy()
    for it in range(maxiter):
        rnorm = np.linalg.norm(r)
        if rnorm < atol:
            return x, it, True
        if not np.isfinite(rnorm):
            return x, it, False
        z = M(r)
        rho = np.dot(r, z)
        if it == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


def _poisson_dirichlet(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve -lap phi = rhs with phi = 0 on the boundary for each component
    of a stack (ncomp, *node_shape): exact in the sine basis."""
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    phi = np.zeros(rhs.shape)
    phi[interior] = _sine_transform(
        grid, _sine_transform(grid, rhs[interior]) / _laplacian_eigenvalues(grid))
    return phi


def norm_hminus1(f) -> float:
    """Dual-norm realization of H^{-1}: sqrt(<f, phi>) with -lap phi = f."""
    stack, mults = _components(f)
    sums = _weighted_sums(f.grid.weights, stack,
                          _poisson_dirichlet(f.grid, stack))
    total = 0.0
    for s, mult in zip(sums, mults):
        total += mult * s
    return float(np.sqrt(max(total, 0.0)))


# ---------------------------------------------------------------------------
# snapshots


def save_snapshot(f, t: float, path) -> None:
    """ASCII snapshot: header 'dim n1 [n2 [n3]] components t', then values.

    Values are written row-major with 17 significant digits, which
    round-trips float64 bit-exactly: ``np.loadtxt(path, skiprows=1)``
    reshaped to (components, *node_shape) reads them back.  Each row is
    converted by its own ``tolist`` and formatted by one ``%`` operation,
    which writes what ``f"{x:.17g}"`` writes for every float; no list of
    the whole field is built.
    """
    g = f.grid
    vals = f.values if f.values.ndim == g.dim + 1 else f.values[None]
    ncomp = vals.shape[0]
    with open(path, "w") as fh:
        ns = " ".join(str(m) for m in g.n)
        fh.write(f"{g.dim} {ns} {ncomp} {t:.17g}\n")
        flat = vals.reshape(-1, g.node_shape[-1])
        line = " ".join(["%.17g"] * flat.shape[1]) + "\n"
        for row in flat:
            fh.write(line % tuple(row.tolist()))

