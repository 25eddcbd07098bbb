"""Material parameters and the momentum source term.

The model is the nondimensional weakly compressible Oldroyd-B system with
velocity u, density remainder sigma (total density alpha + eps^2 sigma) and
elastic stress tau.  This module owns everything algebraic at a node:

* `FluidParams.total_density`  alpha + eps^2 sigma, and
  `density_band_check`, which holds it inside the working band;
* `momentum_source`     the frozen-coefficient momentum forcing
  F(w, pi) = (1-omega) (eps^2 pi / (alpha + eps^2 pi)) A w
           + (eps^2 / (alpha + eps^2 pi)) (pi - w(pi)) grad pi,
  from samples of A w and grad pi taken by the caller.  The barotropic
  pressure law enters only through the increment
  w(pi) = p'(alpha + eps^2 pi) - p'(alpha), the deviation of the squared
  sound speed from its reference value.  The law is fixed by one
  coefficient, `FluidParams.kappa` = p'' (so w(pi) = kappa eps^2 pi); its
  default 0 is the linear law p = eps^-2 (rho - alpha), whose increment
  vanishes.  The increment is taken inside the source, on the band-checked
  density.

All evaluations are pointwise and vectorized over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DensityBandError
from .fields import ScalarField, VectorField

__all__ = ["FluidParams", "momentum_source", "density_band_check"]


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
    kappa: float = 0.0    # p'', the pressure law; 0 is the linear law

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

    def total_density(self, sigma):
        """Total density alpha + eps^2 sigma of remainder samples `sigma`.

        The one spelling of ``params.alpha + params.eps ** 2 * sigma``: the
        band checks and the momentum coefficients all read it here.
        """
        return self.alpha + self.eps ** 2 * sigma


def density_band_check(sigma: ScalarField, params: FluidParams,
                       tol: float = 0.0, context: str = "") -> tuple:
    """Verify m1/2 (1-tol) <= alpha + eps^2 sigma <= 2 M1 (1+tol) pointwise.

    Returns (min, max) of the total density; raises DensityBandError with
    the worst offending node otherwise.  A NaN node meets neither bound
    and is the one named.
    """
    rho = params.total_density(sigma.values)
    lo, hi = params.band
    lo_t, hi_t = lo * (1.0 - tol), hi * (1.0 + tol)
    rmin, rmax = float(rho.min()), float(rho.max())
    if not lo_t <= rmin:
        node = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise DensityBandError(node, rmin, lo_t, hi_t, context=context)
    if not rmax <= hi_t:
        node = np.unravel_index(int(np.argmax(rho)), rho.shape)
        raise DensityBandError(node, rmax, lo_t, hi_t, context=context)
    return rmin, rmax


def momentum_source(aw: VectorField, pi: ScalarField, grad_pi: VectorField,
                    params: FluidParams) -> VectorField:
    """Frozen-coefficient momentum forcing F(w, pi) from derivative samples.

    F = (1-omega) (eps^2 pi / (alpha + eps^2 pi)) A w
      + (eps^2 / (alpha + eps^2 pi)) (pi - w(pi)) grad pi

    `aw` = A w (`viscous_operator`) and `grad_pi` = grad pi (`gradient`)
    are taken by the caller, so this is pointwise algebra.  The frozen
    density alpha + eps^2 pi must stay inside the working band
    [m1/2, 2 M1]; a violation raises with the offending node (this is the
    membership failure mode of the fixed-point set). The band is checked
    once, here; the pressure increment is then taken on the checked
    samples.
    """
    density_band_check(pi, params, context="momentum_source")
    rho = params.total_density(pi.values)
    coef_visc = (1.0 - params.omega) * (params.eps ** 2 * pi.values / rho)
    increment = params.kappa * rho - params.kappa * params.alpha
    coef_pres = (params.eps ** 2 / rho) * (pi.values - increment)
    return VectorField(pi.grid, coef_visc * aw.values
                       + coef_pres * grad_pi.values)
