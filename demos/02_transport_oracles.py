"""Two analytic anchors for the semi-Lagrangian transport steps.

Still fluid makes both hyperbolic subproblems exactly solvable: the
density remainder must not move at all, and the stress must relax as
exp(-t/We). Both are checked here against long step sequences, which is
the cheapest way to catch accumulation bugs.
"""

import math

import numpy as np

from oldroydb import (FluidParams, Grid, ScalarField, SymTensorField,
                      VectorField, mean, norm, step_density, step_stress,
                      strain, trace)
from oldroydb.mms import taylor_vortex


def main():
    grid = Grid.unit(24)
    params = FluidParams(eps=0.1, omega=0.5, We=0.5, alpha=1.0, a=1.0)
    still = VectorField.zeros(grid, dirichlet=True)
    x, y = grid.coords

    sigma0 = ScalarField(grid, 0.3 * np.cos(2 * np.pi * x)
                         * np.cos(2 * np.pi * y))
    sigma = sigma0
    worst = 0.0
    for _ in range(200):
        sigma, rep = step_density(sigma, trace(still, 1e-3), params)
        worst = max(worst, abs(mean(sigma)))
    drift = np.abs(sigma.values - sigma0.values).max()
    print("still-fluid density after 200 steps:")
    print(f"  max pointwise drift {drift:.2e} (transport is the identity)")
    print(f"  worst |mean sigma|  {worst:.2e} (projection keeps it zero)")

    tau = SymTensorField(grid, 0.4 * strain(taylor_vortex(grid)).values)
    t0_norm = norm(tau, 0)
    dt, nsteps = 1e-2, 100
    print(f"\nstill-fluid stress, We = {params.We}, dt = {dt}:")
    for k in range(1, nsteps + 1):
        tau, _ = step_stress(tau, trace(still, dt), params)
        if k % 25 == 0:
            t = k * dt
            expected = math.exp(-t / params.We)
            got = norm(tau, 0) / t0_norm
            print(f"  t = {t:.2f}  |tau|/|tau0| = {got:.6f}  "
                  f"exp(-t/We) = {expected:.6f}  "
                  f"rel err {abs(got - expected) / expected:.1e}")


if __name__ == "__main__":
    main()
