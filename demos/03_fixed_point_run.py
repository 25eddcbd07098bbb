"""Converge the coupled system on the small-data preset and audit it.

The run prints the sweep-to-sweep distances (on this coarse grid they
fall at every sweep; on finer grids single sweeps can lengthen them),
the invariant-set membership of the limit, and its audit: one more sweep
measures the true system residual and the trajectory energy budget.
"""

import numpy as np

from oldroydb import (FluidParams, Grid, ScalarField, SymTensorField,
                      VectorField, audit_window, iterate, rate_tensors)
from oldroydb.mms import taylor_vortex


def preset(n=32):
    grid = Grid.unit(n)
    params = FluidParams(eps=0.1, omega=0.5, We=0.1, alpha=1.0, a=1.0)
    u0 = VectorField(grid, 0.05 * taylor_vortex(grid).values,
                     dirichlet=True)
    x, y = grid.coords
    s0 = ScalarField(grid, 0.01 * np.cos(2 * np.pi * x)
                     * np.cos(2 * np.pi * y))
    t0 = SymTensorField(grid, 0.02 * rate_tensors(u0)[0].values)
    return grid, params, u0, s0, t0


def main():
    grid, params, u0, s0, t0 = preset()
    sol, hist = iterate(u0, s0, t0, params, T=0.01, dt=1e-3)

    print(f"converged after {hist.iterations} sweeps "
          f"(budgets b1 = {hist.b1:.3g}, b2 = {hist.b2:.3g})")
    print("sweep   distance     ratio    slack_min")
    for i, (d, r, s) in enumerate(zip(hist.distances, hist.ratios,
                                      hist.slack_mins), start=1):
        ratio = "   -  " if i == 1 else f"{r:.3f}"
        print(f"{i:>5}   {d:.3e}   {ratio}   {s:.3f}")

    audit = audit_window(sol, params)
    res = audit.residual
    print(f"\nsystem residual: velocity {res.velocity:.1e}, "
          f"density {res.density:.1e}, stress {res.stress:.1e}")

    mem = hist.membership
    print(f"membership: {'pass' if mem.passed else mem.violations}, "
          f"density range [{mem.density_min:.6f}, {mem.density_max:.6f}] "
          f"inside [{mem.band_lo}, {mem.band_hi}]")

    energy = audit.energy
    print(f"energy budget: lhs {energy.lhs:.5f} <= "
          f"rhs (1 + 10 dt) = {energy.rhs * (1 + 10 * sol.dt):.5f} "
          f"-> {'holds' if energy.satisfied else 'VIOLATED'}")

    # the same construction refuses a window that is too long for the data
    try:
        iterate(u0, s0, t0, params, T=0.08, dt=1e-3, max_iter=6)
    except Exception as exc:
        print(f"\neightfold window: {exc}")


if __name__ == "__main__":
    main()
