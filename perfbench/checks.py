"""Output checks for one benchmark operation.

Each check recomputes a figure from the artifacts or tests a property the
method must have; none compares against a stored copy of earlier output.
Every function returns a list of problems, empty when the output is right.
"""

import csv
import json
import math
import os

import numpy as np

# the fixed mms gates: minimum observed order per study, or round-off
MMS_ORDER_GATES = {
    "velocity diffusion, space": 1.8,
    "velocity diffusion, time": 0.9,
    "density advection, vortex": 0.9,
    "stress relaxation, time": 0.9,
}
MMS_EXACT = {"density transport, still fluid": 1e-12}


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_summary(out_dir):
    """``summary.json`` under a strict parser, or a problem string."""
    path = os.path.join(out_dir, "summary.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant), None
    except (OSError, ValueError) as exc:
        return None, f"summary.json: {exc}"


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def trapezoid_weights(dim, n, extent):
    w1 = np.full(n + 1, extent / n)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w = np.ones(())
    for _ in range(dim):
        w = np.multiply.outer(w, w1)
    return w


def read_snapshot(path, dim, n):
    """Values of an ASCII snapshot as (components, *nodes)."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        values = np.array(fh.read().split(), dtype=float)
    if int(head[0]) != dim or [int(x) for x in head[1:1 + dim]] != [n] * dim:
        raise ValueError(f"{path}: header {head} does not match the grid")
    ncomp = int(head[1 + dim])
    return values.reshape((ncomp,) + (n + 1,) * dim)


def check_run(out_dir, summary):
    cfg = summary["config"]
    problems = [f"summary check {name} is false"
                for name, ok in sorted(summary["checks"].items()) if not ok]
    tol_fp, tol_lin, dt = cfg["tol.fp"], cfg["tol.lin"], cfg["time.dt"]
    m1, M1 = cfg["params.m1"], cfg["params.M1"]

    conv = _rows(os.path.join(out_dir, "convergence.csv"))
    last = float(conv[-1]["distance"])
    if not last <= tol_fp:
        problems.append(f"last sweep distance {last:.3e} > tol.fp {tol_fp}")

    ledger = _rows(os.path.join(out_dir, "ledger.csv"))
    for row in ledger:
        t = row["t"]
        if not float(row["lin_residual"]) <= tol_lin:
            problems.append(f"t={t}: lin_residual {row['lin_residual']} "
                            f"> tol.lin {tol_lin}")
        lhs, rhs = float(row["energy_lhs"]), float(row["energy_rhs"])
        if not lhs <= rhs * (1.0 + 10.0 * dt):
            problems.append(f"t={t}: energy_lhs {lhs} > energy_rhs {rhs} "
                            f"* (1 + 10 dt)")
        lo, hi = float(row["density_min"]), float(row["density_max"])
        if not m1 <= lo <= hi <= M1:
            problems.append(f"t={t}: density range [{lo}, {hi}] leaves "
                            f"[{m1}, {M1}]")

    dim, n, extent = cfg["grid.dim"], cfg["grid.n"], cfg["grid.extent"]
    w = trapezoid_weights(dim, n, extent)
    u = read_snapshot(os.path.join(out_dir, "u_final.dat"), dim, n)
    interior = (slice(None),) + (slice(1, -1),) * dim
    edge = u.copy()
    edge[interior] = 0.0
    if np.any(edge != 0.0):
        problems.append("u_final is nonzero on the boundary")
    sigma = read_snapshot(os.path.join(out_dir, "sigma_final.dat"), dim, n)[0]
    volume = extent ** dim
    sigma_mean = float(np.sum(w * sigma)) / volume
    sigma_scale = max(1.0, math.sqrt(float(np.sum(w * sigma * sigma))))
    if not abs(sigma_mean) <= 1e-12 * sigma_scale:
        problems.append(f"sigma_final mean {sigma_mean:.3e} is not zero")
    u_l2 = math.sqrt(float(np.sum(w * u * u)))
    ledger_l2 = float(ledger[-1]["u_l2"])
    if not abs(u_l2 - ledger_l2) <= 10.0 * tol_fp:
        problems.append(f"u_final L2 norm {u_l2!r} differs from the last "
                        f"ledger u_l2 {ledger_l2!r} by more than 10 tol.fp")
    return problems


def bump_energy(cfg):
    """(eps^2/alpha) ||bump||^2 for the mean-zero density perturbation."""
    dim, n, extent = cfg["grid.dim"], cfg["grid.n"], cfg["grid.extent"]
    axis = np.linspace(0.0, extent, n + 1)
    coords = np.meshgrid(*([axis] * dim), indexing="ij")
    sq = sum((x - 0.5 * extent) ** 2 for x in coords)
    width = 0.02 * extent * extent
    bump = cfg["uniqueness.amplitude"] * np.exp(-sq / width)
    w = trapezoid_weights(dim, n, extent)
    bump = bump - float(np.sum(w * bump)) / extent ** dim
    eps, alpha = cfg["params.eps"], cfg["params.alpha"]
    return (eps * eps / alpha) * float(np.sum(w * bump * bump))


def check_uniqueness(out_dir, summary):
    cfg = summary["config"]
    dt = cfg["time.dt"]
    rows = _rows(os.path.join(out_dir, "gronwall.csv"))
    gap = np.array([float(r["gap_energy"]) for r in rows])
    env = np.array([float(r["envelope"]) for r in rows])
    rate = np.array([float(r["growth_rate"]) for r in rows])
    problems = []
    if np.any(gap > env * (1.0 + 1e-12)):
        k = int(np.argmax(gap / env))
        problems.append(f"gap energy above its envelope at row {k}")
    cum = np.concatenate([[0.0], np.cumsum(dt * rate[1:])])
    expected = gap[0] * np.exp(2.0 * cum)
    rel = np.abs(env - expected) / np.abs(expected)
    if not np.all(rel <= 1e-12):
        problems.append(f"envelope differs from gap_energy[0] "
                        f"exp(2 sum dt rate) by {rel.max():.3e} relative")
    e0 = bump_energy(cfg)
    if not abs(gap[0] - e0) <= 1e-12 * e0:
        problems.append(f"gap_energy[0] {float(gap[0])!r} is not "
                        f"(eps^2/alpha)||bump||^2 = {e0!r}")
    return problems


def check_mms(out_dir, summary):
    rows = _rows(os.path.join(out_dir, "mms.csv"))
    errors = {}
    for row in rows:
        errors.setdefault(row["study"], []).append(float(row["error"]))
    problems = []
    expected = set(MMS_ORDER_GATES) | set(MMS_EXACT)
    if set(errors) != expected:
        problems.append(f"mms.csv studies {sorted(errors)} are not "
                        f"{sorted(expected)}")
    for study, gate in MMS_ORDER_GATES.items():
        errs = errors.get(study, [])
        orders = [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
        if len(errs) < 2 or not all(o >= gate for o in orders):
            problems.append(f"{study}: orders {orders} below {gate}")
    for study, cap in MMS_EXACT.items():
        errs = errors.get(study, [])
        if not errs or not all(e < cap for e in errs):
            problems.append(f"{study}: errors {errs} not below {cap}")
    return problems


CHECKS = {"run": check_run, "uniqueness": check_uniqueness, "mms": check_mms}


def check_operation(command, out_dir, exit_code):
    """Every problem with one operation's exit code and artifacts."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    summary, problem = load_summary(out_dir)
    if problem:
        return [problem]
    try:
        return CHECKS[command](out_dir, summary)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
