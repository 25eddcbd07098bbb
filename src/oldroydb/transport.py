"""Semi-Lagrangian transport of the density remainder and elastic stress.

Both subproblems ride the characteristics of one frozen velocity per step,
and `trace` is the one place that velocity is read: it finds the departure
points with one midpoint (RK2) step backward, computes the 2^dim corner
indices and weights of each set of sample points once, for the midpoints
and for the departure points, and differentiates the velocity once
(`grad_w`).  The steps take the resulting `CharacteristicMap`; every pull
gathers a whole stack of components through the same weights, so one map
serves the density and all stress components of a step, and every step of
a steady velocity.  Values are pulled back by multilinear interpolation
(monotone, so the density band cannot be violated by interpolation
overshoot).

Density:  sigma' + (w . grad) sigma + sigma div w = -eps^-2 alpha div w.
With div w (the trace of grad_w) frozen at the arrival node, the
along-path ODE has the closed form update

    sigma_new = sigma_dep * exp(-dt divw) + eps^-2 alpha * expm1(-dt divw),

which is exact per step and reduces to the identity bitwise when w = 0
(the departure points are then the nodes themselves, with unit weights).
The spatial mean is re-projected to zero after every step (the continuum
problem conserves it; interpolation does not), and the pre-projection
drift is reported.

Stress:  tau + We (tau' + (w . grad) tau + g(grad w, tau)) = 2 omega D[w],
where g(grad w, tau) = L tau + tau L^T with L = -(W + a D).  After
pullback, the relaxation/coupling part is advanced by the trapezoid rule
with grad w frozen at the arrival node:

    (We/dt + 1/2) tau_new + (We/2) g(grad w, tau_new)
        = (We/dt - 1/2) tau_dep - (We/2) g(grad w, tau_dep) + 2 omega D[w],

a dense system on the m = dim (dim+1)/2 symmetric components per node.  Its
matrix G of tau -> g(grad w, tau) is written from grad w through a constant
index table, and the nodes are solved in batches of at most
`_STRESS_BATCH` floats of systems, each batch by one Gaussian elimination
whose pivots also give the determinant; every operation is per node, so
the batch size moves no bit.  The elimination exchanges rows
only when a step's certificate fails: max|grad w| and the table's column
sums bound every column sum of (We/2)|G|, and when We/dt + 1/2 exceeds that
bound four times over, every column of the system is diagonally dominant,
so partial pivoting would exchange no row (Golub & Van Loan, Matrix
Computations, 3.4) and skipping its search gives the same bits.  The
trapezoid weighting keeps the pure-relaxation limit accurate to O(dt^2),
which the exact-decay acceptance tolerance requires; backward Euler's
O(dt) amplification bias is an order of magnitude too coarse at dt = 1e-3.

The a-priori transport bounds are instrumented by fitting the smallest
domain constant making each inequality hold on a computed history; both
fits read the history's norms from its `fields.trajectory_norms` table.
The density rate constant solves c exp(c l) = target in closed form
through the Lambert W function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonDirichletError, SingularStressSystemError
from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     diagonal_sum, grad_tensor, mean, sym_components)
from .rheology import density_band_check

__all__ = ["CharacteristicMap", "trace", "DensityStepReport", "step_density",
           "StressStepReport", "step_stress", "DensityBoundReport",
           "check_density_bounds", "StressBoundReport",
           "check_stress_bounds"]


# ---------------------------------------------------------------------------
# characteristics


def _stencil(grid, points):
    """Multilinear corner indices and weights of index-space sample points.

    `points` (dim, *node_shape) must lie in the closed index box.  Returns
    flat node indices and weights, both (2^dim, N).  The corners are built
    one axis at a time in place: each axis doubles the rows filled so far,
    so the weights of a point are products of its per-axis fractions.
    """
    corners = np.zeros((2 ** grid.dim, points[0].size), dtype=np.intp)
    weights = np.ones((2 ** grid.dim, points[0].size))
    filled = 1
    for x, n in zip(points, grid.node_shape):
        x = x.ravel()
        lo = np.minimum(x.astype(np.intp), n - 2)
        frac = x - lo
        done, new = slice(0, filled), slice(filled, 2 * filled)
        corners[done] *= n
        corners[done] += lo
        np.add(corners[done], 1, out=corners[new])
        np.multiply(weights[done], frac, out=weights[new])
        weights[done] *= 1.0 - frac
        filled *= 2
    return corners, weights


def _gather(flat, corners, weights):
    """Interpolate rows of nodal values (k, N) at the n sample points of a
    stencil (2^dim, n); the result is (k, n).

    Clipped indexing keeps a non-finite point (from a non-finite velocity)
    in range; its NaN weights then carry through to the result.
    """
    return np.einsum("kcn,cn->kn", flat.take(corners, axis=1, mode="clip"),
                     weights)


@dataclass
class CharacteristicMap:
    """One timestep's frozen velocity: departure stencil and gradient.

    `trace` checks how far the departure points leave the box before it
    clips them; the map keeps only their stencil.
    """

    grid: Grid
    dt: float
    corners: np.ndarray = field(repr=False)   # (2^dim, N) flat node indices
    weights: np.ndarray = field(repr=False)   # (2^dim, N) multilinear weights
    grad_w: np.ndarray = field(repr=False)    # grad_tensor(w), (dim, dim, ...)

    def pull(self, values: np.ndarray) -> np.ndarray:
        """Multilinear sample at the departure points.

        `values` is one nodal array or a stack (k, *node_shape) of them;
        the result has the same shape.
        """
        if values.shape[values.ndim - self.grid.dim:] != self.grid.node_shape:
            raise ValueError(f"values of shape {values.shape} do not end in "
                             f"the node shape {self.grid.node_shape}")
        flat = values.reshape(-1, self.corners.shape[1])
        return _gather(flat, self.corners, self.weights).reshape(values.shape)


def trace(w: VectorField, dt: float) -> CharacteristicMap:
    """Midpoint-rule backward trace x - dt w(x - dt/2 w(x)) per node.

    The driving field must vanish on the boundary, so in exact arithmetic
    every departure point stays in the closed box; excursions beyond a
    round-off allowance mean the velocity is effectively not Dirichlet
    (or the step is far too large) and raise NonDirichletError.  The
    interpolation weights of the departure points are computed here once
    and reused by every `pull`.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not w.dirichlet:
        w = VectorField(w.grid, w.values, dirichlet=True)
    grid = w.grid
    base = np.indices(grid.node_shape, dtype=float)
    h = np.array(grid.h).reshape((-1,) + (1,) * grid.dim)
    extents = [grid.node_shape[i] - 1 for i in range(grid.dim)]

    mid = base - (0.5 * dt / h) * w.values
    for i in range(grid.dim):
        np.clip(mid[i], 0.0, extents[i], out=mid[i])
    w_mid = _gather(w.values.reshape(grid.dim, -1),
                    *_stencil(grid, mid)).reshape(w.values.shape)

    dep = base - (dt / h) * w_mid
    max_exc = 0.0
    for i in range(grid.dim):
        low = -dep[i]
        high = dep[i] - extents[i]
        exc = max(float(low.max()), float(high.max())) * grid.h[i]
        max_exc = max(max_exc, exc)
        np.clip(dep[i], 0.0, extents[i], out=dep[i])
    tol = 1e-11 * max(1.0, *(grid.h[i] * extents[i] for i in range(grid.dim)))
    if max_exc > tol:
        raise NonDirichletError(
            f"characteristic departure left the domain by {max_exc:.3e} "
            f"(allowance {tol:.1e}); driving velocity is not Dirichlet "
            f"or dt is too large")
    corners, weights = _stencil(grid, dep)
    return CharacteristicMap(grid=grid, dt=dt, corners=corners,
                             weights=weights, grad_w=grad_tensor(w))


# ---------------------------------------------------------------------------
# density transport


@dataclass
class DensityStepReport:
    """Per-step density diagnostics for the run ledger."""

    mean_preproject: float
    density_min: float
    density_max: float


def step_density(sigma_prev: ScalarField, cm: CharacteristicMap,
                 params) -> tuple:
    """One semi-Lagrangian step of the density-remainder transport.

    Pull back along the characteristics of `cm`, apply the exact per-step
    dilation ODE with div w (the `diagonal_sum` of `cm.grad_w`) frozen at
    the arrival node, then re-project the mean to zero.  The total density
    alpha + eps^2 sigma must stay inside the working band widened by 1e-8
    (relative).  Returns (field, report).
    """
    grid = sigma_prev.grid
    sigma_dep = cm.pull(sigma_prev.values)
    theta = cm.dt * diagonal_sum(cm.grad_w[i, i] for i in range(grid.dim))
    lift = params.alpha / params.eps ** 2
    vals = sigma_dep * np.exp(-theta) + lift * np.expm1(-theta)
    drift = mean(ScalarField(grid, vals))
    out = ScalarField(grid, vals - drift)
    rmin, rmax = density_band_check(out, params, tol=1e-8,
                                    context="step_density")
    report = DensityStepReport(mean_preproject=drift, density_min=rmin,
                               density_max=rmax)
    return out, report


# ---------------------------------------------------------------------------
# stress transport


@dataclass
class StressStepReport:
    """Per-step stress diagnostics."""

    min_det_scale: float   # smallest per-node system determinant, normalized


def _coupling_table(dim):
    """Constant (m*m, dim*dim) table T with vec G = T vec L.

    G is the matrix of tau -> g(grad w, tau) = L tau + tau L^T on the
    stored components: (L tau + tau L^T)_ij = sum_k L_ik tau_kj + L_jk tau_ik.
    """
    pairs = sym_components(dim)
    m = len(pairs)
    slot = {}
    for q, (k, l) in enumerate(pairs):
        slot[k, l] = slot[l, k] = q
    table = np.zeros((m * m, dim * dim))
    for p, (i, j) in enumerate(pairs):
        for k in range(dim):
            table[p * m + slot[k, j], i * dim + k] += 1.0
            table[p * m + slot[i, k], j * dim + k] += 1.0
    return table


_COUPLING_TABLES = {dim: _coupling_table(dim) for dim in (2, 3)}

# largest column sum of |G| per unit of max|L|: sum over p and r of
# |T[p m + q, r]|, maximized over the column q
_COUPLING_COLUMN_SUMS = {
    dim: float(np.abs(table).reshape(len(sym_components(dim)), -1,
                                     dim * dim).sum(axis=(0, 2)).max())
    for dim, table in _COUPLING_TABLES.items()}

_DOMINANCE_MARGIN = 4.0  # factor by which the diagonal must exceed the bound

# floats of per-node systems M (m*m per node) that one batch of
# `step_stress` builds: 1 666 nodes in 3D, every benchmark 2D grid at once
_STRESS_BATCH = 60_000


def _diagonally_dominant(grad_w, a, We, diagonal):
    """Whether every column of diagonal I + (We/2) G dominates its diagonal
    with the margin `_DOMINANCE_MARGIN`, certified from max|grad w| alone.

    |L_ij| <= (|1 + a| + |a - 1|) / 2 max|grad w|, and a column of |G|
    sums to at most `_COUPLING_COLUMN_SUMS` max|L|.  A non-finite grad w
    fails the certificate.
    """
    dim = grad_w.shape[0]
    l_max = 0.5 * (abs(1.0 + a) + abs(a - 1.0)) * float(np.abs(grad_w).max())
    bound = 0.5 * We * _COUPLING_COLUMN_SUMS[dim] * l_max
    return bool(diagonal > _DOMINANCE_MARGIN * bound)


def _coupling_matrices(grad_w, a):
    """Per-node matrix (m, m, N) of tau -> g(grad w, tau) on stored components.

    L = -(W + a D) = -((1 + a) grad w + (a - 1) grad w^T) / 2.  The result
    is a fresh C-contiguous array, which `step_stress` overwrites.
    """
    dim = grad_w.shape[0]
    m = dim * (dim + 1) // 2
    gw = grad_w.reshape(dim, dim, -1)
    L = -0.5 * ((1.0 + a) * gw + (a - 1.0) * gw.swapaxes(0, 1))
    return (_COUPLING_TABLES[dim] @ L.reshape(dim * dim, -1)).reshape(m, m, -1)


def _solve_nodes(M, b, pivot=True):
    """Solve M x = b at every node of a batch by Gaussian elimination.

    Each step of the elimination works on all nodes at once, and each
    node's arithmetic is its own, so a node's bits do not depend on the
    batch it is solved in.  With ``pivot`` each column's largest entry is
    exchanged into the pivot row (partial pivoting); without it no row
    moves, which gives the same bits whenever partial pivoting would
    exchange none, as on column diagonally dominant systems.  The
    trailing block is updated one row at a time and x is written over b,
    which keeps the scratch of a step to one row of M.  M (m, m, n) is
    overwritten.  Returns (x, det), x the storage of b and det the signed
    product of the pivots.
    A zero pivot makes det zero or NaN and x non-finite at that node; no
    floating-point warning is raised, so the caller decides from det.
    """
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
            for i in range(k + 1, m):
                M[i, k + 1:] -= f[i - k - 1] * M[k, k + 1:]
            b[k + 1:] -= f * b[k]
        det *= M[m - 1, m - 1]
        for k in reversed(range(m)):
            b[k] = (b[k] - (M[k, k + 1:] * b[k + 1:]).sum(axis=0)) / M[k, k]
    return b, det


def step_stress(tau_prev: SymTensorField, cm: CharacteristicMap,
                params) -> tuple:
    """One semi-Lagrangian, trapezoid-relaxation step of the stress.

    Every node is advanced along the characteristics of `cm`, in batches
    of at most `_STRESS_BATCH` floats of per-node systems.  What reads the
    whole grid is done once: the certificate, which lets the elimination
    skip the row exchanges of partial pivoting when `_diagonally_dominant`
    certifies M from max|grad w| (it pivots otherwise), the D samples of
    `cm.grad_w`, and the search for the smallest determinant.  Each batch
    pulls tau back through its columns of the departure stencil, builds
    the coupling matrix G of g = L tau + tau L^T for its nodes
    (`_coupling_matrices`), applies G to the pulled-back tau_dep for the
    right-hand side, and eliminates M = (We/dt + 1/2) I + (We/2) G, built
    in G's own storage, for both the solution and det M.  Every operation
    is per node, so the batches give the bits of a one-shot step.
    `min_det_scale` is the smallest |det M| / (We/dt + 1/2)^m.  The output
    inherits exact symmetry from the component storage.  A per-node system
    with |det M| / (We/dt + 1/2)^m below 1e-12, or a zero or non-finite
    pivot product (extreme dt |grad w|), raises SingularStressSystemError
    naming the node with the smallest |det M|.
    """
    grid = tau_prev.grid
    m = tau_prev.ncomp
    lam = params.We / cm.dt
    pivot = not _diagonally_dominant(cm.grad_w, params.a, params.We,
                                     lam + 0.5)
    D = SymTensorField.from_full(grid, cm.grad_w).values.reshape(m, -1)
    grad_w = cm.grad_w.reshape(grid.dim, grid.dim, -1)
    tau = tau_prev.values.reshape(m, -1)
    sol = np.empty_like(tau)
    det = np.empty(tau.shape[1])
    # two nodes at least per batch, the last one taking a lone node left
    # over: an einsum over one node sums in another order
    size = max(2, _STRESS_BATCH // (m * m))
    bounds = [*range(0, tau.shape[1] - 1, size), tau.shape[1]]
    for b in map(slice, bounds[:-1], bounds[1:]):
        tau_dep = _gather(tau, cm.corners[:, b], cm.weights[:, b])
        G = _coupling_matrices(grad_w[:, :, b], params.a)
        # the right-hand side goes into the batch's columns of the
        # solution, which the elimination overwrites with x
        rhs = sol[:, b]
        np.add((lam - 0.5) * tau_dep
               - 0.5 * params.We * np.einsum("pqn,qn->pn", G, tau_dep),
               2.0 * params.omega * D[:, b], out=rhs)
        # the right-hand side has read G: scale it into M in place, adding
        # the diagonal through the strided view of the (m*m, n) rows
        M = G
        M *= 0.5 * params.We
        M.reshape(m * m, -1)[::m + 1] += lam + 0.5
        det[b] = _solve_nodes(M, rhs, pivot=pivot)[1]

    scale = (lam + 0.5) ** m
    dets = np.nan_to_num(det / scale, nan=0.0, posinf=0.0, neginf=0.0)
    worst = int(np.argmin(np.abs(dets)))
    if abs(dets[worst]) < 1e-12:
        node = np.unravel_index(worst, grid.node_shape)
        raise SingularStressSystemError(node, float(dets[worst] * scale))

    report = StressStepReport(min_det_scale=float(abs(dets[worst])))
    return SymTensorField(grid, sol.reshape((m,) + grid.node_shape)), report


# ---------------------------------------------------------------------------
# a-priori bound instrumentation


def _rate_constant(target, l1h3):
    """The c >= 0 with c exp(c l1h3) = target: c = W(target l1h3) / l1h3.

    Lambert's W (Corless et al., Adv. Comput. Math. 5, 1996) by Newton on
    the increasing, concave w + log w = log x from log1p(x) >= W(x): four
    steps reach round-off for every finite x > 0.
    """
    if target <= 0.0:
        return 0.0
    if l1h3 == 0.0:
        return target
    x = target * l1h3
    log_x = np.log(x)
    w = np.log1p(x)
    for _ in range(4):
        w = w / (1.0 + w) * (1.0 + log_x - np.log(w))
    return float(w / l1h3)


@dataclass
class DensityBoundReport:
    """Fit of the density transport a-priori estimates to a history."""

    sup_h2: float            # sup in time of ||sigma||_H2
    c_domain: float          # constant fitted from the rate bound
    sup_bound_margin: float  # bound(c_domain) - sup_h2, nonnegative on pass


def check_density_bounds(table, params) -> DensityBoundReport:
    """Fit the transport estimate constants on a density history.

    table is the `trajectory_norms` table of the history (initial data
    first).  The sup estimate (||sigma0||_2 + alpha eps^-2) exp(c
    ||w||_L1H3) is usually vacuous because of the alpha eps^-2 lift, so no
    constant is fitted to it; the quotable constant comes from the rate
    estimate: the smallest c with sup||sigma'||_1 <= c ||w||_sup
    (||sigma0||_2 + alpha eps^-2) exp(c ||w||_L1H3).  The sup bound is
    evaluated at that c for `sup_bound_margin`.
    """
    sup_h2 = float(table.pi[:, 2].max())
    base_h2 = float(table.pi[0, 2]) + params.alpha / params.eps ** 2
    l1h3, suph2 = table.w_l1h3, table.w_suph2
    rate = float(table.pi_rate[:, 1].max())
    target = rate / (suph2 * base_h2) if suph2 > 0.0 else 0.0
    c_fit = _rate_constant(target, l1h3)
    margin = base_h2 * np.exp(c_fit * l1h3) - sup_h2
    return DensityBoundReport(sup_h2=sup_h2, c_domain=c_fit,
                              sup_bound_margin=margin)


@dataclass
class StressBoundReport:
    """Fit of the stress transport a-priori estimates to a history."""

    sup_h2: float           # sup in time of ||tau||_H2
    c_domain: float         # minimizer of the sup bound
    sup_bound: float        # (||tau0||_H2 + 2 omega/(c We)) exp(c ||w||_L1H3)
    sup_bound_holds: bool
    c_relax: float          # fitted prefactor of the rate bound


def check_stress_bounds(table, params) -> StressBoundReport:
    """Fit the stress estimate constants on a `trajectory_norms` table.

    The domain constant is the one minimizing the sup bound (the
    inequality is then checked where it is sharpest; it holds everywhere
    else if it holds there, since both tails diverge).
    """
    sup_h2 = float(table.psi[:, 2].max())
    base = float(table.psi[0, 2])
    l1h3, suph2 = table.w_l1h3, table.w_suph2
    relax = 2.0 * params.omega / params.We

    if l1h3 == 0.0 or base == 0.0:
        c_domain = 1.0
    else:
        # minimize (base + relax/c) e^{c L}: L base c^2 + L relax c - relax = 0
        a, b = l1h3 * base, l1h3 * relax
        c_domain = (-b + np.sqrt(b * b + 4.0 * a * relax)) / (2.0 * a)
    bound = (base + relax / c_domain) * np.exp(c_domain * l1h3)
    rate = float(table.psi_rate[:, 1].max())
    denom = (suph2 + 1.0 / (c_domain * params.We)) * (base + relax / c_domain)
    c0 = rate / (denom * np.exp(c_domain * l1h3)) if denom > 0.0 else 0.0
    return StressBoundReport(
        sup_h2=sup_h2, c_domain=c_domain, sup_bound=bound,
        sup_bound_holds=bool(sup_h2 <= bound * (1.0 + 1e-12)), c_relax=c0)
