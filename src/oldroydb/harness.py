"""Experiment plumbing: config files, initial-data presets, CSV artifacts.

A run is described by a flat text config (``section.key = value`` lines).
`build_initial_data` builds its data from the `PRESETS` table; the demos
and the test fixtures take the shipped data from it too.  Each driver
takes a config and an existing output directory, runs its experiment,
writes its CSV tables there and returns a JSON-ready payload whose
``checks`` maps the name of each check to its verdict; the CLI alone
derives the failed checks, the status and the exit code from that map.
Every table goes through `_write_csv`: the per-timestep energy ledger
(one dict per step, keyed by `LEDGER_COLUMNS`), the sweep convergence
history and the per-command reports.  Every numeric cell is written with
17 significant digits so repeated runs of one config are byte-identical.
"""

import csv
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .fields import (Grid, ScalarField, SymTensorField, VectorField, mean,
                     mean_zero_project, save_snapshot, strain)
from .fixed_point import (MAX_ITER, TOL_FP, audit_window, continuity_probe,
                          delta_threshold, iterate, march,
                          uniqueness_experiment)
from .gates import GATES
from .mms import all_studies, taylor_vortex
from .rheology import FluidParams
from .velocity import TOL_LIN

__all__ = ["RunConfig", "LEDGER_COLUMNS",
           "CONVERGENCE_COLUMNS", "parse_config", "load_config",
           "build_grid", "build_params",
           "build_initial_data", "PRESETS", "run_experiment",
           "mms_experiment", "uniqueness_pair_experiment",
           "probe_experiment"]


# --------------------------------------------------------------- config

def _key(name: str, default):
    """A `RunConfig` field stored under config key ``name``."""
    return field(default=default, metadata={"key": name})


@dataclass
class RunConfig:
    """Everything a run needs; each field names its config key.  The
    ``params.*`` fields carry the `FluidParams` names and defaults."""

    grid_dim: int = _key("grid.dim", 2)
    grid_n: int = _key("grid.n", 32)
    grid_extent: float = _key("grid.extent", 1.0)
    eps: float = _key("params.eps", FluidParams.eps)
    omega: float = _key("params.omega", FluidParams.omega)
    We: float = _key("params.We", FluidParams.We)
    alpha: float = _key("params.alpha", FluidParams.alpha)
    a: float = _key("params.a", FluidParams.a)
    m1: float = _key("params.m1", FluidParams.m1)
    M1: float = _key("params.M1", FluidParams.M1)
    kappa: float = _key("params.kappa", FluidParams.kappa)
    T: float = _key("time.T", 0.01)
    dt: float = _key("time.dt", 1e-3)
    tol_lin: float = _key("tol.lin", TOL_LIN)
    tol_fp: float = _key("tol.fp", TOL_FP)
    max_iter: int = _key("tol.max_iter", MAX_ITER)
    delta: float = _key("tol.delta", 1.0)
    ic_velocity: str = _key("ic.velocity", "vortex")
    ic_velocity_amplitude: float = _key("ic.velocity_amplitude", 0.05)
    ic_density: str = _key("ic.density", "cosine-density")
    ic_density_amplitude: float = _key("ic.density_amplitude", 0.01)
    ic_stress: str = _key("ic.stress", "proportional-stress")
    ic_stress_amplitude: float = _key("ic.stress_amplitude", 0.02)
    probe_amplitude: float = _key("probe.amplitude", 1e-3)
    uniqueness_amplitude: float = _key("uniqueness.amplitude", 1e-4)
    out_dir: str = _key("output.dir", "out")


# config key <-> attribute <-> type, in file order
_KEYS = [(f.metadata["key"], f.name, f.type) for f in fields(RunConfig)]
_KEY_TO_ATTR = {k: (a, c) for k, a, c in _KEYS}


def parse_config(text: str) -> RunConfig:
    """Flat ``section.key = value`` lines; '#' starts a comment."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        attr, conv = _KEY_TO_ATTR[key]
        try:
            setattr(cfg, attr, conv(value))
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot read {value!r} as "
                              f"{conv.__name__} for {key}") from None
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def validate_config(cfg: RunConfig) -> None:
    for key, attr, conv in _KEYS:
        value = getattr(cfg, attr)
        if conv is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    build_grid(cfg)  # after the finite check: a Grid accepts extent = inf
    if cfg.dt <= 0.0 or cfg.T <= 0.0:
        raise ConfigError("time.T and time.dt must be positive")
    if cfg.dt > cfg.T:
        raise ConfigError(f"time.dt = {cfg.dt} exceeds time.T = {cfg.T}")
    if cfg.max_iter < 1:
        raise ConfigError("tol.max_iter must be at least 1")
    if cfg.tol_lin <= 0.0 or cfg.tol_fp <= 0.0:
        raise ConfigError("tol.lin and tol.fp must be positive")
    if cfg.probe_amplitude <= 0.0:
        raise ConfigError("probe.amplitude must be positive")
    for key, builders in PRESETS.items():
        value = getattr(cfg, _KEY_TO_ATTR[key][0])
        if value not in builders:
            raise ConfigError(f"{key} preset {value!r} is not one of "
                              f"{', '.join(builders)}")
    build_params(cfg)  # surfaces parameter-range problems at parse time


def config_as_dict(cfg: RunConfig) -> dict:
    return {key: getattr(cfg, attr) for key, attr, _ in _KEYS}


# --------------------------------------------------------------- presets

def build_grid(cfg: RunConfig) -> Grid:
    try:
        return Grid(cfg.grid_dim, cfg.grid_n, cfg.grid_extent)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_params(cfg: RunConfig) -> FluidParams:
    try:
        return FluidParams(**{f.name: getattr(cfg, f.name)
                              for f in fields(FluidParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _gradient_flow(grid: Grid, amp: float) -> VectorField:
    # genuinely compressive cell; pairs with a centered density bump to
    # exercise gap growth in the two-solution experiment
    if grid.dim != 2:
        raise ConfigError("the 'gradient' velocity preset is 2D only")
    x, y = grid.coords[0] / grid.extent[0], grid.coords[1] / grid.extent[1]
    vals = amp * np.pi * np.stack([
        np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2,
        np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y)])
    vals[:, grid.boundary_mask] = 0.0
    return VectorField(grid, vals, dirichlet=True)


def _cosine_density(grid: Grid, amp: float) -> ScalarField:
    vals = np.full(grid.node_shape, amp)
    for ax, x in enumerate(grid.coords):
        vals = vals * np.cos(2.0 * np.pi * x / grid.extent[ax])
    return ScalarField(grid, vals)


def _bump_density(grid: Grid, amp: float) -> ScalarField:
    sq = np.zeros(grid.node_shape)
    for ax, x in enumerate(grid.coords):
        sq = sq + (x - 0.5 * grid.extent[ax]) ** 2
    width = 0.02 * sum(L * L for L in grid.extent) / grid.dim
    return mean_zero_project(ScalarField(grid, amp * np.exp(-sq / width)))


def _noise_density(grid: Grid, amp: float) -> ScalarField:
    # low-frequency cosine cocktail; OLDROYD_SEED pins the coefficients
    seed = os.environ.get("OLDROYD_SEED", "0")
    try:
        rng = np.random.default_rng(int(seed))
    except ValueError:
        raise ConfigError(f"OLDROYD_SEED must be a nonnegative integer, "
                          f"got {seed!r}") from None
    vals = np.zeros(grid.node_shape)
    for ks in np.ndindex(*(3,) * grid.dim):
        coef = rng.standard_normal()
        mode = np.ones(grid.node_shape)
        for ax, x in enumerate(grid.coords):
            mode = mode * np.cos(2.0 * np.pi * (ks[ax] + 1) * x
                                 / grid.extent[ax])
        vals += coef * mode
    peak = np.abs(vals).max()
    if peak > 0.0:
        vals *= amp / peak
    return mean_zero_project(ScalarField(grid, vals))


# ic.* key -> preset name -> builder.  Velocity and density builders take
# (grid, amplitude); stress builders also take the initial velocity.
PRESETS = {
    "ic.velocity": {
        "zero": lambda grid, amp: VectorField.zeros(grid, dirichlet=True),
        "vortex": lambda grid, amp: VectorField(
            grid, amp * taylor_vortex(grid).values, dirichlet=True),
        "gradient": _gradient_flow,
    },
    "ic.density": {
        "zero": lambda grid, amp: ScalarField.zeros(grid),
        "cosine-density": _cosine_density,
        "bump": _bump_density,
        "noise": _noise_density,
    },
    "ic.stress": {
        "zero": lambda grid, amp, u0: SymTensorField.zeros(grid),
        "proportional-stress": lambda grid, amp, u0: SymTensorField(
            grid, amp * strain(u0).values),
    },
}


def build_initial_data(cfg: RunConfig):
    """Grid, parameters and the three initial fields for one config."""
    grid = build_grid(cfg)
    params = build_params(cfg)
    u0 = PRESETS["ic.velocity"][cfg.ic_velocity](
        grid, cfg.ic_velocity_amplitude)
    s0 = PRESETS["ic.density"][cfg.ic_density](grid, cfg.ic_density_amplitude)
    t0 = PRESETS["ic.stress"][cfg.ic_stress](grid, cfg.ic_stress_amplitude, u0)
    return grid, params, u0, s0, t0


# --------------------------------------------------------------- ledgers

LEDGER_COLUMNS = ("t", "u_l2", "u_h2", "sigma_h2", "tau_h2",
                  "energy_lhs", "energy_rhs", "energy_slack",
                  "dissipation_slack", "lin_iters", "lin_residual",
                  "mean_sigma_preproject", "density_min", "density_max",
                  "stress_min_det")

CONVERGENCE_COLUMNS = ("iteration", "distance", "ratio", "slack_min")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# --------------------------------------------------------------- drivers

def run_experiment(cfg: RunConfig, out_dir) -> dict:
    """Converge the coupled system, check every estimate, write artifacts.

    Returns the summary payload, whose ``checks`` maps each check's name
    to its verdict. Config and solver failures propagate as exceptions for
    the caller to translate.
    """
    _, params, u0, s0, t0 = build_initial_data(cfg)

    sol, hist = iterate(u0, s0, t0, params, cfg.T, cfg.dt,
                        tol_fp=cfg.tol_fp, max_iter=cfg.max_iter,
                        tol_lin=cfg.tol_lin)
    audit = audit_window(sol, params, tol_lin=cfg.tol_lin,
                         first_rows=hist.membership.table.first_rows)
    out, diag, table, energy = audit.out, audit.diag, audit.table, audit.energy
    density, stress = audit.density, audit.stress
    residual = audit.residual.worst

    dt = cfg.dt
    ledger = []
    for k in range(sol.nsteps):
        vrep = diag.velocity_reports[k]
        drep = diag.density_reports[k]
        srep = diag.stress_reports[k]
        ledger.append({
            "t": (k + 1) * dt, "u_l2": table.w[k + 1, 0],
            "u_h2": table.w[k + 1, 2], "sigma_h2": table.pi[k + 1, 2],
            "tau_h2": table.psi[k + 1, 2],
            "energy_lhs": energy.lhs_history[k + 1],
            "energy_rhs": energy.rhs_history[k + 1],
            "energy_slack": energy.slack_history[k + 1],
            "dissipation_slack": energy.dissipation_slack[k],
            "lin_iters": vrep.iterations, "lin_residual": vrep.residual,
            "mean_sigma_preproject": drep.mean_preproject,
            "density_min": drep.density_min,
            "density_max": drep.density_max,
            "stress_min_det": srep.min_det_scale})

    sigma_scale = max(1.0, float(table.pi[:, 0].max()))
    mean_sigma_max = max(abs(mean(p)) for p in out.pi)

    checks = {
        "membership": hist.membership.passed,
        "system_residual": residual < GATES["system_residual"] * cfg.tol_fp,
        "energy_budget": energy.satisfied,
        "step_dissipation": energy.dissipation_satisfied,
        "density_mean_zero":
            mean_sigma_max <= GATES["density_mean_zero"] * sigma_scale,
    }

    ledger_path = os.path.join(out_dir, "ledger.csv")
    _write_csv(ledger_path, LEDGER_COLUMNS,
               ([row[c] for c in LEDGER_COLUMNS] for row in ledger))
    conv_path = os.path.join(out_dir, "convergence.csv")
    _write_csv(conv_path, CONVERGENCE_COLUMNS,
               [(i + 1, d, r, s) for i, (d, r, s) in
                enumerate(zip(hist.distances, hist.ratios,
                              hist.slack_mins))])
    snaps = {}
    for name, fld in (("u_final", sol.w[-1]), ("sigma_final", sol.pi[-1]),
                      ("tau_final", sol.psi[-1])):
        path = os.path.join(out_dir, f"{name}.dat")
        save_snapshot(fld, sol.T, path)
        snaps[name] = path

    return {
        "checks": checks,
        "iterations": hist.iterations,
        "distances": list(hist.distances),
        "system_residual": residual,
        "membership": _membership_summary(hist.membership),
        "energy": {"lhs": energy.lhs, "rhs": energy.rhs,
                   "slack": energy.slack},
        "constants": {"c1_emp": None if audit.regularity.vacuous
                      else audit.regularity.c1_emp,
                      "c1_vacuous": audit.regularity.vacuous,
                      "c_domain_density": density.c_domain,
                      "c_domain_stress": stress.c_domain,
                      "c_relax_stress": stress.c_relax},
        "bounds": {
            "stress": {"sup_h2": stress.sup_h2, "sup_bound": stress.sup_bound,
                       "sup_bound_holds": stress.sup_bound_holds},
            "density": {"sup_h2": density.sup_h2,
                        "sup_bound_margin": density.sup_bound_margin}},
        "mean_sigma_max": mean_sigma_max,
        "artifacts": {"ledger": ledger_path, "convergence": conv_path,
                      **snaps},
    }


def _membership_summary(mem) -> dict:
    """The membership verdict, with each norm budget's usage: used / cap."""
    return {"passed": mem.passed, "violations": list(mem.violations),
            "slack_min": mem.slack_min, "b1": mem.b1, "b2": mem.b2,
            "density_min": mem.density_min, "density_max": mem.density_max,
            "usage": {"velocity": mem.velocity_budget / mem.b1,
                      "data": mem.data_budget / mem.b1,
                      "rate": mem.rate_budget / mem.b2}}


def _sweeps_summary(hist) -> dict:
    """A march's work: its local sweeps, then the certifying ones."""
    return {"local": sum(hist.local_sweeps), "certifying": hist.iterations}


def mms_experiment(cfg: RunConfig, out_dir) -> dict:
    """Refinement studies for each linear solver, in a fixed order."""
    studies = all_studies(build_params(cfg))

    rows, report = [], []
    for st in studies:
        orders = "exact" if st.exact else " ".join(f"{o:.2f}"
                                                   for o in st.orders)
        report.append({"name": st.name, "labels": list(st.labels),
                       "errors": list(st.errors),
                       "orders": None if st.exact else list(st.orders),
                       "exact": st.exact,
                       "threshold": GATES[st.name],
                       "orders_text": orders})
        for i, (lab, err) in enumerate(zip(st.labels, st.errors)):
            order = "" if (st.exact or i == 0) else st.orders[i - 1]
            rows.append((st.name, lab, err, order))

    path = os.path.join(out_dir, "mms.csv")
    _write_csv(path, ("study", "label", "error", "order"), rows)

    return {
        "checks": {st.name: st.passed for st in studies},
        "studies": report,
        "artifacts": {"mms": path},
    }


def uniqueness_pair_experiment(cfg: RunConfig, out_dir) -> dict:
    """Base run vs. density-perturbed run against the growth envelope.
    Only identical data gate ``gronwall_envelope``; a c12 fitted to the
    pair closes its envelope by construction and is reported, ungated."""
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    cap = delta_threshold(params)
    if not 0.0 < cfg.delta < cap:
        raise ConfigError(
            f"tol.delta = {cfg.delta:.6g} is outside (0, {cap:.6g}), the "
            "positivity threshold of the gap dissipation coefficients")

    amp = cfg.uniqueness_amplitude
    tols = dict(tol_fp=cfg.tol_fp, max_iter=cfg.max_iter, tol_lin=cfg.tol_lin)
    # at amplitude 0 the bump is zero and both solves start from equal data
    (sol1, hist1), (sol2, hist2) = (
        march(u0, s, t0, params, cfg.T, cfg.dt, **tols)
        for s in (s0, s0 + _bump_density(grid, amp)))

    rep = uniqueness_experiment(sol1, hist1.membership.table, sol2,
                                hist2.membership.table, cfg.delta, params,
                                fp_tol=cfg.tol_fp)
    path = os.path.join(out_dir, "gronwall.csv")
    _write_csv(path, ("t", "gap_energy", "envelope", "growth_rate"),
               zip(rep.times, rep.gap_energy, rep.envelope,
                   rep.growth_rate))
    return {
        "checks": ({"gronwall_envelope": rep.satisfied} if rep.identical
                   else {}),
        "amplitude": amp,
        "delta": rep.delta,
        "delta_cap": rep.delta_cap,
        "identical": rep.identical,
        "c12": rep.c12,
        "max_ratio": rep.max_ratio,
        "gap_energy_final": rep.gap_energy[-1],
        "membership": {"base": _membership_summary(hist1.membership),
                       "perturbed": _membership_summary(hist2.membership)},
        "sweeps": {"base": _sweeps_summary(hist1),
                   "perturbed": _sweeps_summary(hist2)},
        "artifacts": {"gronwall": path},
    }


def probe_experiment(cfg: RunConfig, out_dir) -> dict:
    """Input-perturbation linearity of one sweep around a converged run."""
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol, hist = march(u0, s0, t0, params, cfg.T, cfg.dt, tol_fp=cfg.tol_fp,
                      max_iter=cfg.max_iter, tol_lin=cfg.tol_lin)
    rep = continuity_probe(sol, cfg.probe_amplitude, params,
                           tol_lin=cfg.tol_lin)
    path = os.path.join(out_dir, "probe.csv")
    _write_csv(path,
               ("delta", "velocity_gap", "density_gap", "stress_gap",
                "total_gap"),
               zip(rep.deltas, rep.velocity_gaps, rep.density_gaps,
                   rep.stress_gaps, rep.gaps))
    return {
        "checks": {"probe_linearity": rep.linear_ok},
        "delta": rep.delta,
        "deltas": list(rep.deltas),
        "gaps": list(rep.gaps),
        "shrink_ratios": list(rep.shrink_ratios),
        "membership": _membership_summary(hist.membership),
        "sweeps": _sweeps_summary(hist),
        "artifacts": {"probe": path},
    }
