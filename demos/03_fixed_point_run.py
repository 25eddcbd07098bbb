"""Converge the coupled system on the small-data preset and audit it.

The run prints the sweep-to-sweep distances (on this coarse grid they
fall at every sweep; on finer grids single sweeps can lengthen them),
the invariant-set membership of the limit, and its audit: one more sweep
measures the true system residual and the trajectory energy budget.
"""

import os

from oldroydb import audit_window, iterate
from oldroydb.gates import GATES
from oldroydb.harness import build_initial_data, load_config

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs",
                      "smalldata2d.cfg")


def main():
    cfg = load_config(CONFIG)
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol, hist = iterate(u0, s0, t0, params, cfg.T, cfg.dt)

    print(f"converged after {hist.iterations} sweeps "
          f"(budgets b1 = {hist.membership.b1:.3g}, "
          f"b2 = {hist.membership.b2:.3g})")
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
    c = GATES["energy_budget"][0]
    print(f"energy budget: lhs {energy.lhs:.5f} <= "
          f"rhs (1 + {c:g} dt) = {energy.rhs * (1 + c * sol.dt):.5f} "
          f"-> {'holds' if energy.satisfied else 'VIOLATED'}")

    # the same construction refuses a window that is too long for the data
    try:
        iterate(u0, s0, t0, params, T=0.08, dt=1e-3, max_iter=6)
    except Exception as exc:
        print(f"\neightfold window: {exc}")


if __name__ == "__main__":
    main()
