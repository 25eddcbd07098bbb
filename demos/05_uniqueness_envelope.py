"""Two-solution gap energy against its Gronwall growth envelope.

A gentle vortex damps density perturbations outright, which makes the
fitted growth constant exactly zero; a compressive gradient flow pushed
against a centered density bump produces genuine transient growth. Both
cases must stay under e(0) exp(2 int rate), and the constant fitted on
the coarse grid has to keep working on the fine one. Each solution is
marched step by step and certified by one whole-window sweep; the growth
rate reads its norms from the certificate's norm table.
"""

import os
from dataclasses import replace

from oldroydb import delta_threshold, march, uniqueness_experiment
from oldroydb.harness import PRESETS, build_initial_data, load_config

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs",
                      "uniqueness2d.cfg")


def pair(n):
    """Solution and norm table for the base and the bump-perturbed data."""
    cfg = replace(load_config(CONFIG), grid_n=n)
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    bump = PRESETS["ic.density"]["bump"](grid, cfg.uniqueness_amplitude)
    (sol, hist), (solp, histp) = (
        march(u0, s, t0, params, cfg.T, cfg.dt, max_iter=cfg.max_iter)
        for s in (s0, s0 + bump))
    return params, (sol, hist.membership.table, solp,
                    histp.membership.table)


def main():
    params, runs32 = pair(32)
    print(f"splitting weight must stay below "
          f"{delta_threshold(params):.4g}; using delta = 1")

    fit = uniqueness_experiment(*runs32, 1.0, params)
    print(f"\ncoarse grid: fitted c12 = {fit.c12:.6g}")
    print("   t        gap energy    envelope      ratio")
    for t, e, env in zip(fit.times, fit.gap_energy, fit.envelope):
        print(f"  {t:.3f}   {e:.6e}  {env:.6e}  {e / env:.4f}")
    growth = max(fit.gap_energy) / fit.gap_energy[0]
    print(f"peak growth factor {growth:.3f} "
          "(the compression genuinely amplifies the gap)")

    params64, runs64 = pair(64)
    held = uniqueness_experiment(*runs64, 1.0, params64, c12=fit.c12,
                                 slack=0.05)
    print(f"\nfine grid with the coarse constant held fixed: "
          f"max ratio {held.max_ratio:.4f}, "
          f"{'satisfied' if held.satisfied else 'VIOLATED'} at 5% slack")


if __name__ == "__main__":
    main()
