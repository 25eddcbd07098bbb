"""Experiment plumbing: config files, initial-data presets, CSV artifacts.

A run is described by a flat text config (``section.key = value`` lines).
The drivers here construct the data, run the requested experiment and
return a JSON-ready summary payload plus CSV artifacts: a per-timestep
energy ledger, the sweep convergence history, and per-command reports.
Every numeric file is written with 17 significant digits so repeated runs
of one config are byte-identical.
"""

import csv
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .fields import (Grid, ScalarField, SymTensorField, VectorField, mean,
                     mean_zero_project, rate_tensors, save_snapshot)
from .fixed_point import (audit_window, continuity_probe, delta_threshold,
                          iterate, march, uniqueness_experiment)
from .mms import all_studies, taylor_vortex
from .rheology import FluidParams, PressureLaw

__all__ = ["RunConfig", "EnergyLedger", "LEDGER_COLUMNS",
           "CONVERGENCE_COLUMNS", "parse_config", "load_config",
           "serialize_config", "build_grid", "build_params",
           "build_initial_data", "VELOCITY_PRESETS", "DENSITY_PRESETS",
           "STRESS_PRESETS", "run_experiment",
           "mms_experiment", "uniqueness_pair_experiment",
           "probe_experiment"]


# --------------------------------------------------------------- config

def _key(name: str, default):
    """A `RunConfig` field stored under config key ``name``."""
    return field(default=default, metadata={"key": name})


@dataclass
class RunConfig:
    """Everything a run needs; each field names its config key."""

    grid_dim: int = _key("grid.dim", 2)
    grid_n: int = _key("grid.n", 32)
    grid_extent: float = _key("grid.extent", 1.0)
    eps: float = _key("params.eps", 0.1)
    omega: float = _key("params.omega", 0.5)
    we: float = _key("params.We", 0.1)
    alpha: float = _key("params.alpha", 1.0)
    slip: float = _key("params.a", 1.0)
    m1: float = _key("params.m1", 0.5)
    M1: float = _key("params.M1", 2.0)
    pressure: str = _key("params.pressure", "linear")
    pressure_kappa: float = _key("params.pressure_kappa", 1.0)
    pressure_cs: float = _key("params.pressure_cs", 1.0)
    T: float = _key("time.T", 0.01)
    dt: float = _key("time.dt", 1e-3)
    tol_lin: float = _key("tol.lin", 1e-10)
    tol_fp: float = _key("tol.fp", 1e-8)
    max_iter: int = _key("tol.max_iter", 20)
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

VELOCITY_PRESETS = ("zero", "vortex", "gradient")
DENSITY_PRESETS = ("zero", "cosine-density", "bump", "noise")
STRESS_PRESETS = ("zero", "proportional-stress")


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


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key, attr, conv in _KEYS:
        v = getattr(cfg, attr)
        lines.append(f"{key} = {v!r}" if conv is float
                     else f"{key} = {v}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: RunConfig) -> None:
    for key, attr, conv in _KEYS:
        value = getattr(cfg, attr)
        if conv is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg.grid_dim not in (2, 3):
        raise ConfigError(f"grid.dim must be 2 or 3, got {cfg.grid_dim}")
    if cfg.grid_n < 8:
        raise ConfigError(f"grid.n must be at least 8, got {cfg.grid_n}")
    if cfg.grid_extent <= 0.0:
        raise ConfigError("grid.extent must be positive")
    if cfg.dt <= 0.0 or cfg.T <= 0.0:
        raise ConfigError("time.T and time.dt must be positive")
    if cfg.dt > cfg.T:
        raise ConfigError(f"time.dt = {cfg.dt} exceeds time.T = {cfg.T}")
    if cfg.max_iter < 1:
        raise ConfigError("tol.max_iter must be at least 1")
    if cfg.tol_lin <= 0.0 or cfg.tol_fp <= 0.0:
        raise ConfigError("tol.lin and tol.fp must be positive")
    if cfg.probe_amplitude < 0.0:
        raise ConfigError("probe.amplitude must be nonnegative")
    for name, value, allowed in [
            ("ic.velocity", cfg.ic_velocity, VELOCITY_PRESETS),
            ("ic.density", cfg.ic_density, DENSITY_PRESETS),
            ("ic.stress", cfg.ic_stress, STRESS_PRESETS)]:
        if value not in allowed:
            raise ConfigError(f"{name} preset {value!r} is not one of "
                              f"{', '.join(allowed)}")
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
        law = PressureLaw(kind=cfg.pressure, kappa=cfg.pressure_kappa,
                          cs=cfg.pressure_cs)
        return FluidParams(eps=cfg.eps, omega=cfg.omega, We=cfg.we,
                           alpha=cfg.alpha, a=cfg.slip, m1=cfg.m1,
                           M1=cfg.M1, law=law)
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
    seed = int(os.environ.get("OLDROYD_SEED", "0"))
    rng = np.random.default_rng(seed)
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


def initial_velocity(grid: Grid, preset: str, amp: float) -> VectorField:
    if preset == "zero":
        return VectorField.zeros(grid, dirichlet=True)
    if preset == "vortex":
        base = taylor_vortex(grid)
        return VectorField(grid, amp * base.values, dirichlet=True)
    if preset == "gradient":
        return _gradient_flow(grid, amp)
    raise ConfigError(f"unknown velocity preset {preset!r}")


def initial_density(grid: Grid, preset: str, amp: float) -> ScalarField:
    if preset == "zero":
        return ScalarField(grid, np.zeros(grid.node_shape))
    if preset == "cosine-density":
        return _cosine_density(grid, amp)
    if preset == "bump":
        return _bump_density(grid, amp)
    if preset == "noise":
        return _noise_density(grid, amp)
    raise ConfigError(f"unknown density preset {preset!r}")


def initial_stress(grid: Grid, preset: str, amp: float,
                   u0: VectorField) -> SymTensorField:
    if preset == "zero":
        return SymTensorField.zeros(grid)
    if preset == "proportional-stress":
        strain = rate_tensors(u0)[0]
        return SymTensorField(grid, amp * strain.values)
    raise ConfigError(f"unknown stress preset {preset!r}")


def build_initial_data(cfg: RunConfig):
    """Grid, parameters and the three initial fields for one config."""
    grid = build_grid(cfg)
    params = build_params(cfg)
    u0 = initial_velocity(grid, cfg.ic_velocity, cfg.ic_velocity_amplitude)
    s0 = initial_density(grid, cfg.ic_density, cfg.ic_density_amplitude)
    t0 = initial_stress(grid, cfg.ic_stress, cfg.ic_stress_amplitude, u0)
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


class EnergyLedger:
    """Per-timestep monitored quantities, one CSV row per step."""

    columns = LEDGER_COLUMNS

    def __init__(self):
        self.rows = []

    def append(self, **row):
        extra = set(row) - set(self.columns)
        missing = set(self.columns) - set(row)
        if extra or missing:
            raise ValueError(f"ledger row mismatch: extra {sorted(extra)}, "
                             f"missing {sorted(missing)}")
        if self.rows and row["t"] <= self.rows[-1]["t"]:
            raise ValueError("ledger time column must increase")
        self.rows.append(dict(row))

    def write(self, path) -> None:
        _write_csv(path, self.columns,
                   ([row[c] for c in self.columns] for row in self.rows))

    @classmethod
    def read(cls, path) -> "EnergyLedger":
        led = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != cls.columns:
                raise ValueError(f"unexpected ledger header {header}")
            for rec in reader:
                led.append(**{c: float(v) for c, v in zip(cls.columns, rec)})
        return led


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# --------------------------------------------------------------- drivers

def run_experiment(cfg: RunConfig, out_dir) -> dict:
    """Converge the coupled system, check every estimate, write artifacts.

    Returns the summary payload; ``status`` is 'ok' only when all checks
    pass, 'invariant-violation' otherwise. Config and solver failures
    propagate as exceptions for the caller to translate.
    """
    os.makedirs(out_dir, exist_ok=True)
    _, params, u0, s0, t0 = build_initial_data(cfg)

    sol, hist = iterate(u0, s0, t0, params, cfg.T, cfg.dt,
                        tol_fp=cfg.tol_fp, max_iter=cfg.max_iter,
                        tol_lin=cfg.tol_lin)
    audit = audit_window(sol, params, tol_lin=cfg.tol_lin)
    out, diag, table, energy = audit.out, audit.diag, audit.table, audit.energy
    residual = audit.residual.worst

    dt = cfg.dt
    ledger = EnergyLedger()
    for k in range(sol.nsteps):
        vrep = diag.velocity_reports[k]
        drep = diag.density_reports[k]
        srep = diag.stress_reports[k]
        ledger.append(
            t=(k + 1) * dt, u_l2=table.w[k + 1, 0], u_h2=table.w[k + 1, 2],
            sigma_h2=table.pi[k + 1, 2], tau_h2=table.psi[k + 1, 2],
            energy_lhs=float(energy.lhs_history[k + 1]),
            energy_rhs=float(energy.rhs_history[k + 1]),
            energy_slack=(float(energy.rhs_history[k + 1]) * (1.0 + 10.0 * dt)
                          - float(energy.lhs_history[k + 1])),
            dissipation_slack=energy.dissipation_slack[k],
            lin_iters=vrep.iterations, lin_residual=vrep.residual,
            mean_sigma_preproject=drep.mean_preproject,
            density_min=drep.density_min, density_max=drep.density_max,
            stress_min_det=srep.min_det_scale)

    sigma_scale = max(1.0, float(table.pi[:, 0].max()))
    mean_sigma_max = max(abs(mean(p)) for p in out.pi)
    membership = hist.membership

    checks = {
        "fixed_point_converged": hist.converged,
        "membership": membership.passed,
        "system_residual": residual < 10.0 * cfg.tol_fp,
        "energy_budget": energy.satisfied,
        "step_dissipation": energy.dissipation_satisfied,
        "density_mean_zero": mean_sigma_max <= 1e-12 * sigma_scale,
    }
    failed = sorted(name for name, ok in checks.items() if not ok)

    ledger_path = os.path.join(out_dir, "ledger.csv")
    ledger.write(ledger_path)
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
        "command": "run",
        "status": "ok" if not failed else "invariant-violation",
        "failed_checks": failed,
        "checks": checks,
        "iterations": hist.iterations,
        "converged": hist.converged,
        "distances": list(hist.distances),
        "contraction_ratios": [None if math.isnan(r) else r
                               for r in hist.ratios],
        "system_residual": residual,
        "membership": {
            "passed": membership.passed,
            "violations": list(membership.violations),
            "slack_min": membership.slack_min,
            "b1": membership.b1, "b2": membership.b2,
            "density_min": membership.density_min,
            "density_max": membership.density_max,
        },
        "energy": {"lhs": energy.lhs, "rhs": energy.rhs,
                   "slack": energy.slack, "satisfied": energy.satisfied},
        "constants": {"c1_emp": None if audit.regularity.vacuous
                      else audit.regularity.c1_emp,
                      "c1_vacuous": audit.regularity.vacuous,
                      "c_domain_density": audit.density.c_domain,
                      "c_domain_stress": audit.stress.c_domain,
                      "c_relax_stress": audit.stress.c_relax},
        "mean_sigma_max": mean_sigma_max,
        "artifacts": {"ledger": ledger_path, "convergence": conv_path,
                      **snaps},
    }


def mms_experiment(cfg: RunConfig, out_dir) -> dict:
    """Refinement studies for each linear solver, in a fixed order."""
    os.makedirs(out_dir, exist_ok=True)
    studies = all_studies(build_params(cfg))

    rows = []
    report = []
    for st in studies:
        orders = "exact" if st.exact else " ".join(f"{o:.2f}"
                                                   for o in st.orders)
        report.append({"name": st.name, "labels": list(st.labels),
                       "errors": list(st.errors),
                       "orders": None if st.exact else list(st.orders),
                       "exact": st.exact, "threshold": st.threshold,
                       "passed": st.passed, "orders_text": orders})
        for i, (lab, err) in enumerate(zip(st.labels, st.errors)):
            order = "" if (st.exact or i == 0) else st.orders[i - 1]
            rows.append((st.name, lab, err, order))

    path = os.path.join(out_dir, "mms.csv")
    _write_csv(path, ("study", "label", "error", "order"), rows)

    failed = sorted(st["name"] for st in report if not st["passed"])
    return {
        "command": "mms",
        "status": "ok" if not failed else "invariant-violation",
        "failed_checks": failed,
        "studies": report,
        "artifacts": {"mms": path},
    }


def _solve(cfg: RunConfig, params, u0, s0, t0):
    """The fixed point of one window: marched step by step, then certified
    by `iterate`, whose first sweep measures its distance and membership
    (and which keeps sweeping if that distance exceeds tol.fp)."""
    tols = dict(tol_fp=cfg.tol_fp, max_iter=cfg.max_iter, tol_lin=cfg.tol_lin)
    guess = march(u0, s0, t0, params, cfg.T, cfg.dt, **tols)
    sol, _ = iterate(u0, s0, t0, params, cfg.T, cfg.dt, initial_guess=guess,
                     **tols)
    return sol


def uniqueness_pair_experiment(cfg: RunConfig, out_dir) -> dict:
    """Base run vs. density-perturbed run against the growth envelope."""
    os.makedirs(out_dir, exist_ok=True)
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    cap = delta_threshold(params)
    if not 0.0 < cfg.delta < cap:
        raise ConfigError(
            f"tol.delta = {cfg.delta:.6g} is outside (0, {cap:.6g}), the "
            "positivity threshold of the gap dissipation coefficients")

    amp = cfg.uniqueness_amplitude
    sol1 = _solve(cfg, params, u0, s0, t0)
    if amp == 0.0:
        sol2 = sol1
    else:
        sol2 = _solve(cfg, params, u0, s0 + _bump_density(grid, amp), t0)

    rep = uniqueness_experiment(sol1, sol2, cfg.delta, params,
                                fp_tol=cfg.tol_fp)
    path = os.path.join(out_dir, "gronwall.csv")
    _write_csv(path, ("t", "gap_energy", "envelope", "growth_rate"),
               zip(rep.times, rep.gap_energy, rep.envelope,
                   rep.growth_rate))
    return {
        "command": "uniqueness",
        "status": "ok" if rep.satisfied else "invariant-violation",
        "failed_checks": [] if rep.satisfied else ["gronwall_envelope"],
        "amplitude": amp,
        "delta": rep.delta,
        "delta_cap": rep.delta_cap,
        "identical": rep.identical,
        "c12": rep.c12,
        "c12_fitted": rep.c12_fitted,
        "max_ratio": rep.max_ratio,
        "satisfied": rep.satisfied,
        "gap_energy_final": rep.gap_energy[-1],
        "artifacts": {"gronwall": path},
    }


def probe_experiment(cfg: RunConfig, out_dir) -> dict:
    """Input-perturbation linearity of one sweep around a converged run."""
    os.makedirs(out_dir, exist_ok=True)
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol = _solve(cfg, params, u0, s0, t0)
    rep = continuity_probe(sol, cfg.probe_amplitude, params,
                           tol_lin=cfg.tol_lin)
    path = os.path.join(out_dir, "probe.csv")
    _write_csv(path,
               ("delta", "velocity_gap", "density_gap", "stress_gap",
                "total_gap"),
               zip(rep.deltas, rep.velocity_gaps, rep.density_gaps,
                   rep.stress_gaps, rep.gaps))
    return {
        "command": "probe",
        "status": "ok" if rep.linear_ok else "invariant-violation",
        "failed_checks": [] if rep.linear_ok else ["probe_linearity"],
        "delta": rep.delta,
        "deltas": list(rep.deltas),
        "gaps": list(rep.gaps),
        "shrink_ratios": list(rep.shrink_ratios),
        "linear_ok": rep.linear_ok,
        "artifacts": {"probe": path},
    }
