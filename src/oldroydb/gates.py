"""The bound of every gate the commands report, written once.

Each key names a check in a command's ``checks`` map, and that check reads
its bound here when it judges. A bound may be tightened, never loosened.
"""

GATES = {
    # run: suggest_budgets' budgets are this many times the data's own norms
    "membership": 4.0,
    # run: one more sweep moves a window settled to tol.fp by a few tol.fp
    "system_residual": 10.0,
    # run: (c, r) in lhs <= rhs (1 + c dt) + r (1 + rhs): O(dt), round-off
    "energy_budget": (10.0, 1e-14),
    # run: a step's balance holds to this round-off times max(1, |lhs|, |rhs|)
    "step_dissipation": 1e-11,
    # run: the re-projected mean is round-off times max(1, sup ||sigma||)
    "density_mean_zero": 1e-12,
    # uniqueness, equal data: two solves settled to tol.fp differ by a few
    "gronwall_envelope": 10.0,
    # probe: a smooth map's gap halves with the amplitude, within this factor
    "probe_linearity": 1.5,
    # mms: least order of centred differences, second order in space
    "velocity diffusion, space": 1.8,
    # mms: least order of backward Euler, first order in time
    "velocity diffusion, time": 0.9,
    # mms: least order of interpolated transport with dt tied to h
    "density advection, vortex": 0.9,
    # mms: largest error of the density step at rest, the identity
    "density transport, still fluid": 1e-12,
    # mms: least order of the stress step in time (its trapezoid rule gives 2)
    "stress relaxation, time": 0.9,
}
