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

Each grid also assembles, once, two CSR matrices on its interior nodes
from Kronecker products of the 1-D compact second and centered first
differences: `dirichlet_laplacian` (-lap) and `viscous_matrix`, the elliptic
block A_h = -(lap + grad div) that `viscous_operator` applies at interior
nodes and the velocity step solves.

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
import scipy.sparse as sp

from .errors import NonDirichletError

__all__ = [
    "Grid", "ScalarField", "VectorField", "SymTensorField",
    "gradient", "grad_tensor", "diagonal_sum", "divergence", "div_tensor",
    "laplacian", "viscous_operator", "strain", "norm", "norms", "inner",
    "mean", "mean_zero_project", "norm_hminus1", "sym_components",
    "save_snapshot", "random_smooth_field",
    "conjugate_gradient", "viscous_preconditioner", "TrajectoryNorms",
    "trajectory_norms",
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

    def _kron(self, ops):
        """ops[a] along axis a, identity elsewhere; axis 0 varies slowest,
        which is the C order of one component's interior block
        values[i][1:-1, ..., 1:-1]."""
        out = None
        for a, m in enumerate(self.n):
            f = ops[a] if a in ops else sp.eye(m - 1, format="csr")
            out = f if out is None else sp.kron(out, f, format="csr")
        return out

    def _d2(self, a):
        return self._kron({a: _compact_d2(self.n[a], self.h[a])})

    @cached_property
    def dirichlet_laplacian(self):
        """-lap on the interior nodes with zero boundary data (CSR)."""
        lap = -self._d2(0)
        for a in range(1, self.dim):
            lap = lap - self._d2(a)
        return lap

    @cached_property
    def viscous_matrix(self):
        """A_h = -(lap + grad div) on the interior nodes, component-major.

        Block (i, i) is the Dirichlet Laplacian minus the compact d^2/dx_i^2;
        block (i, j) is -C_i C_j, a Kronecker product of two antisymmetric
        centered differences and so symmetric: A_h is exactly symmetric.
        Stacking one block row at a time keeps the assembly transient small.
        """
        d = self.dim
        c = [_centered_d1(m, h) for m, h in zip(self.n, self.h)]
        rows = [sp.hstack([self.dirichlet_laplacian - self._d2(i) if j == i
                           else -self._kron({i: c[i], j: c[j]})
                           for j in range(d)], format="csr")
                for i in range(d)]
        return sp.vstack(rows, format="csr")

    @cached_property
    def sine_eigenpairs(self):
        """Per axis, (lam, S): -`_compact_d2`(n_a, h_a) = S diag(lam) S.

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
    """Shared arithmetic for the three field containers."""

    def copy(self):
        return self.__class__(self.grid, self.values.copy(), **self._flags())

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

    def __neg__(self):
        return self * -1.0


class ScalarField(_FieldBase):
    """Scalar samples at the grid nodes."""

    ncomp = 1

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.node_shape:
            raise ValueError(f"scalar values must have shape {grid.node_shape}, "
                             f"got {values.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.node_shape))

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, np.asarray(fn(*grid.coords), dtype=float))


class VectorField(_FieldBase):
    """Vector samples, component-first storage (dim, *node_shape).

    `dirichlet=True` asserts (and checks) that every component vanishes on
    the boundary nodes.
    """

    def __init__(self, grid, values, dirichlet=False):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.dim,) + grid.node_shape:
            raise ValueError(f"vector values must have shape "
                             f"{(grid.dim,) + grid.node_shape}, got {values.shape}")
        if dirichlet and not np.all(values[:, grid.boundary_mask] == 0.0):
            raise NonDirichletError("dirichlet-flagged field is nonzero on the boundary")
        self.grid = grid
        self.values = values
        self.dirichlet = bool(dirichlet)

    def _flags(self):
        return {"dirichlet": self.dirichlet}

    @property
    def ncomp(self):
        return self.grid.dim

    @classmethod
    def zeros(cls, grid, dirichlet=False):
        return cls(grid, np.zeros((grid.dim,) + grid.node_shape), dirichlet=dirichlet)

    @classmethod
    def from_function(cls, grid, fn):
        comps = fn(*grid.coords)
        vals = np.stack([np.broadcast_to(np.asarray(c, dtype=float), grid.node_shape)
                         for c in comps])
        return cls(grid, vals)


class SymTensorField(_FieldBase):
    """Symmetric tensor samples; only the upper triangle is stored.

    Storage order is row-major over the upper triangle: 2-D components are
    (00, 01, 11), 3-D components are (00, 01, 02, 11, 12, 22).  Symmetry is
    therefore structural: `full()` mirrors the stored values exactly.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        m = grid.dim * (grid.dim + 1) // 2
        if values.shape != (m,) + grid.node_shape:
            raise ValueError(f"symmetric tensor values must have shape "
                             f"{(m,) + grid.node_shape}, got {values.shape}")
        self.grid = grid
        self.values = values

    @property
    def ncomp(self):
        return self.grid.dim * (self.grid.dim + 1) // 2

    @classmethod
    def zeros(cls, grid):
        m = grid.dim * (grid.dim + 1) // 2
        return cls(grid, np.zeros((m,) + grid.node_shape))

    @classmethod
    def identity(cls, grid, scale=1.0):
        out = cls.zeros(grid)
        for k, (i, j) in enumerate(sym_components(grid.dim)):
            if i == j:
                out.values[k] = scale
        return out

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


def _compact_d2(m, h):
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 on the m-1 interior nodes of an
    m-cell axis; the zero boundary values drop out."""
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m - 1, m - 1),
                    format="csr") / h**2


def _centered_d1(m, h):
    """(f[i+1] - f[i-1]) / (2 h) on the m-1 interior nodes of an m-cell axis."""
    return sp.diags([-1.0, 1.0], [-1, 1], shape=(m - 1, m - 1),
                    format="csr") / (2.0 * h)


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


def viscous_operator(v: VectorField) -> VectorField:
    """The elliptic block A v = -(lap v + grad div v) on a Dirichlet field.

    Interior nodes apply `Grid.viscous_matrix`: an exactly symmetric matrix
    whose quadratic form is a sum of squared difference quotients, so the
    weighted <A v, v> is exactly nonnegative and vanishes only for v = 0.
    Boundary nodes carry the generic one-sided composition (they never enter
    the inner product because v vanishes there).  That composition is
    evaluated on the whole grid, but only its boundary values are kept: the
    matrix product overwrites every interior node.
    """
    if not v.dirichlet:
        raise NonDirichletError("viscous_operator requires a dirichlet-flagged field")
    g = v.grid
    vals = -(laplacian(v).values + gradient(divergence(v)).values)
    interior = (slice(None),) + (slice(1, -1),) * g.dim
    vals[interior] = (g.viscous_matrix @ v.values[interior].ravel()
                      ).reshape(vals[interior].shape)
    return VectorField(g, vals, dirichlet=False)


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


def norms(f, k: int = 0) -> tuple:
    """Discrete Sobolev norms (H^0, ..., H^k), k in {0, 1, 2, 3}, in one pass.

    One derivative tree over the stacked components: the quotient of each
    sorted multi-index is one difference of its parent's.  The squared terms
    are added in the order `norm` defines, so entry j equals `norm(f, j)`
    exactly.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or k > 3:
        raise ValueError(f"norm order k={k} out of range 0..3")
    g = f.grid
    w = g.weights
    h = g.h
    stack, mults = _components(f)
    squares = {}  # multi-index -> weighted L2 square of each component

    def visit(axes, d):
        squares[axes] = _weighted_sums(w, d, d)
        if len(axes) < k:
            for ax in range(axes[-1] if axes else 0, g.dim):
                visit(axes + (ax,), _diff1(d, h[ax], ax + 1))

    visit((), stack)
    totals = [0.0] * (k + 1)
    for c, mult in enumerate(mults):
        for order in range(k + 1):
            for axes in itertools.combinations_with_replacement(range(g.dim),
                                                                order):
                term = mult * squares[axes][c]
                for j in range(order, k + 1):
                    totals[j] += term
    return tuple(float(np.sqrt(t)) for t in totals)


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
    def velocity_budget(self):
        """int ||w||_H3^2 + sup ||w||_H2^2 + int ||w'||_H1^2 + sup ||w'||_L2^2,
        squared on Python floats to match `norm(...) ** 2` to the bit."""
        def squares(column):
            return [x ** 2 for x in column.tolist()]
        return (self.integral(squares(self.w[1:, 3]))
                + max(squares(self.w[:, 2]))
                + self.integral(squares(self.w_rate[:, 1]))
                + max(squares(self.w_rate[:, 0])))


def trajectory_norms(ws, pis, psis, dt) -> TrajectoryNorms:
    """Every norm the budgets of a velocity, density and stress trajectory
    read, each computed once by `norms`."""
    if not len(ws) == len(pis) == len(psis) >= 2:
        raise ValueError("need trajectories of one length, at least 2 nodes")

    def rates(nodes):
        return np.array([norms(type(cur)(cur.grid,
                                         (cur.values - prev.values) / dt), 1)
                         for prev, cur in zip(nodes[:-1], nodes[1:])])

    return TrajectoryNorms(
        dt=dt, w=np.array([norms(v, 3) for v in ws]), w_rate=rates(ws),
        pi=np.array([norms(p, 2) for p in pis]), pi_rate=rates(pis),
        psi=np.array([norms(s, 2) for s in psis]), psi_rate=rates(psis))


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


def viscous_preconditioner(grid: Grid, alpha: float, coef: float):
    """r -> P r, P the inverse of the diagonal blocks of alpha I + coef A_h.

    Block i is alpha I + coef (-(lap + d^2/dx_i^2)), diagonal in the sine
    basis with entries alpha + coef (sum_a lam_a + lam_i); P is symmetric
    positive definite for alpha > 0, coef >= 0.  r and P r are flat
    component-major interior vectors, the layout of `viscous_matrix`.
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
    reshaped to (components, *node_shape) reads them back.
    """
    g = f.grid
    vals = f.values if f.values.ndim == g.dim + 1 else f.values[None]
    ncomp = vals.shape[0]
    with open(path, "w") as fh:
        ns = " ".join(str(m) for m in g.n)
        fh.write(f"{g.dim} {ns} {ncomp} {t:.17g}\n")
        flat = vals.reshape(-1, g.node_shape[-1])
        for row in flat:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


# ---------------------------------------------------------------------------
# smooth random test fields


def random_smooth_field(grid: Grid, rng, kind="vector", amplitude=1.0):
    """Random low-mode trigonometric field; 'vector'/'scalar' vanish on the
    boundary (products of sines), 'scalar_free' uses cosines instead."""
    coords = grid.coords

    def trig_sum(fn, first):
        # wave vectors with entries first..3, the zero vector left out
        acc = np.zeros(grid.node_shape)
        for kv in itertools.product(range(first, 4), repeat=grid.dim):
            if sum(kv) == 0:
                continue
            c = rng.normal() * amplitude / (sum(kv) ** 2)
            term = np.ones(grid.node_shape)
            for ax, k in enumerate(kv):
                term = term * fn(k * np.pi * coords[ax] / grid.extent[ax])
            acc += c * term
        return acc

    def sine_sum():
        acc = trig_sum(np.sin, 1)
        acc[grid.boundary_mask] = 0.0  # sin(k*pi) is only zero to round-off
        return acc

    def cosine_sum():
        return trig_sum(np.cos, 0)

    if kind == "scalar":
        return ScalarField(grid, sine_sum())
    if kind == "scalar_free":
        return ScalarField(grid, cosine_sum())
    if kind == "vector":
        vals = np.stack([sine_sum() for _ in range(grid.dim)])
        return VectorField(grid, vals, dirichlet=True)
    if kind == "symtensor":
        m = grid.dim * (grid.dim + 1) // 2
        return SymTensorField(grid, np.stack([cosine_sum() for _ in range(m)]))
    raise ValueError(f"unknown field kind {kind!r}")
