"""Material parameters, pressure laws and constitutive source terms.

The model is the nondimensional weakly compressible Oldroyd-B system with
velocity u, density remainder sigma (total density alpha + eps^2 sigma) and
elastic stress tau.  This module owns everything algebraic at a node:

* `pressure_increment`  w(sigma) = p'(alpha + eps^2 sigma) - p'(alpha),
  the deviation of the squared sound speed from its reference value;
* `objective_coupling`  g(grad u, tau) = tau W - W tau - a (D tau + tau D),
  the non-transport part of the frame-objective stress derivative;
* `momentum_source`     the frozen-coefficient momentum forcing
  F(w, pi) = alpha f + (1-omega) (eps^2 pi / (alpha + eps^2 pi)) A w
           + (eps^2 / (alpha + eps^2 pi)) (pi - w(pi)) grad pi.

All evaluations are pointwise and vectorized over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DensityBandError
from .fields import (ScalarField, SymTensorField, VectorField, gradient,
                     viscous_operator)

__all__ = ["FluidParams", "PressureLaw", "pressure_increment",
           "objective_coupling", "momentum_source", "density_band_check"]


@dataclass
class PressureLaw:
    """Barotropic pressure law, consumed through its derivative p'(rho).

    kinds: 'linear' (p = eps^-2 (rho - alpha)), 'isothermal' (p = cs^2 rho)
    and 'quadratic' (p = kappa rho^2 / 2).  The two linear-in-rho laws have
    constant p', so their pressure increment vanishes identically.
    """

    kind: str = "linear"
    kappa: float = 1.0
    cs: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "isothermal", "quadratic"):
            raise ValueError(f"unknown pressure law {self.kind!r}")

    def dpdrho(self, rho, params):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "linear":
            return np.full_like(rho, params.eps ** -2)
        if self.kind == "isothermal":
            return np.full_like(rho, self.cs ** 2)
        return self.kappa * rho


@dataclass
class FluidParams:
    """Nondimensional fluid parameters with their admissibility ranges."""

    eps: float = 0.1      # Mach number, in (0, 1]
    omega: float = 0.5    # retardation ratio, in (0, 1)
    We: float = 0.1       # Weissenberg number, > 0
    alpha: float = 1.0    # reference density, > 0
    a: float = 1.0        # slip parameter, in [-1, 1]
    m1: float = 0.5       # lower density-band bound
    M1: float = 2.0       # upper density-band bound
    law: PressureLaw = field(default_factory=PressureLaw)

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if not self.We > 0.0:
            raise ValueError(f"We must be positive, got {self.We}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not -1.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [-1, 1], got {self.a}")
        if not 0.0 < self.m1 <= self.alpha <= self.M1:
            raise ValueError(
                f"need 0 < m1 <= alpha <= M1 for a nonempty density band, "
                f"got m1={self.m1}, alpha={self.alpha}, M1={self.M1}")

    @property
    def band(self):
        """The working density band [m1/2, 2 M1]."""
        return 0.5 * self.m1, 2.0 * self.M1


def density_band_check(sigma: ScalarField, params: FluidParams,
                       tol: float = 0.0, context: str = "") -> tuple:
    """Verify m1/2 (1-tol) <= alpha + eps^2 sigma <= 2 M1 (1+tol) pointwise.

    Returns (min, max) of the total density; raises DensityBandError with
    the worst offending node otherwise.
    """
    rho = params.alpha + params.eps ** 2 * sigma.values
    lo, hi = params.band
    lo_t, hi_t = lo * (1.0 - tol), hi * (1.0 + tol)
    rmin, rmax = float(rho.min()), float(rho.max())
    if rmin < lo_t:
        node = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise DensityBandError(node, rmin, lo_t, hi_t, context=context)
    if rmax > hi_t:
        node = np.unravel_index(int(np.argmax(rho)), rho.shape)
        raise DensityBandError(node, rmax, lo_t, hi_t, context=context)
    return rmin, rmax


def pressure_increment(sigma: ScalarField, params: FluidParams,
                       law: PressureLaw = None) -> ScalarField:
    """w(sigma) = p'(alpha + eps^2 sigma) - p'(alpha); w(0) = 0 exactly.

    Evaluation outside the working density band [m1/2, 2 M1] is an
    unphysical state and raises through `density_band_check`, naming the
    worst node.
    """
    law = params.law if law is None else law
    density_band_check(sigma, params, context="pressure_increment")
    if law.kind in ("linear", "isothermal"):
        return ScalarField.zeros(sigma.grid)
    rho = params.alpha + params.eps ** 2 * sigma.values
    ref = law.dpdrho(np.asarray(params.alpha), params)
    return ScalarField(sigma.grid, law.dpdrho(rho, params) - ref)


def objective_coupling(grad_w: np.ndarray, tau: SymTensorField,
                       a: float) -> SymTensorField:
    """g(grad w, tau) = tau W - W tau - a (D tau + tau D).

    `grad_w` are dense gradient samples (dim, dim, *nodes) as produced by
    `grad_tensor`; D and W are its symmetric and skew parts.  The result is
    symmetric for every input and bilinear in (grad_w, tau); symmetry is
    enforced structurally by storing the upper triangle of the symmetrized
    product.  The stress step applies the same map as a per-node matrix
    (`transport._coupling_matrices`); this is the reference it is tested
    against.
    """
    grid = tau.grid
    D = 0.5 * (grad_w + np.swapaxes(grad_w, 0, 1))
    W = grad_w - D
    t = tau.full()
    # per-node matrix products, nodes vectorized
    tW = np.einsum("ik...,kj...->ij...", t, W)
    Dt = np.einsum("ik...,kj...->ij...", D, t)
    # tau W - W tau = tW + tW^T ; D tau + tau D = Dt + Dt^T
    m = tW - a * Dt
    return SymTensorField.from_full(grid, m + np.swapaxes(m, 0, 1))


def momentum_source(w: VectorField, pi: ScalarField, f: VectorField,
                    params: FluidParams) -> VectorField:
    """Frozen-coefficient momentum forcing F(w, pi, f).

    F = alpha f
      + (1-omega) (eps^2 pi / (alpha + eps^2 pi)) A w
      + (eps^2 / (alpha + eps^2 pi)) (pi - w(pi)) grad pi

    The frozen density alpha + eps^2 pi must stay inside the working band
    [m1/2, 2 M1]; a violation raises with the offending node (this is the
    membership failure mode of the fixed-point set).
    """
    grid = w.grid
    density_band_check(pi, params, context="momentum_source")
    rho = params.alpha + params.eps ** 2 * pi.values
    aw = viscous_operator(w)
    wp = pressure_increment(pi, params)
    gp = gradient(pi)
    coef_visc = (1.0 - params.omega) * (params.eps ** 2 * pi.values / rho)
    coef_pres = (params.eps ** 2 / rho) * (pi.values - wp.values)
    vals = params.alpha * f.values + coef_visc * aw.values + coef_pres * gp.values
    return VectorField(grid, vals)
