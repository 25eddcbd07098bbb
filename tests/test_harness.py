"""Config round-trip, preset registry, CSV ledgers and the CLI drivers."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oldroydb
import oldroydb.cli as cli
import oldroydb.fields as fields
import oldroydb.fixed_point as fixed_point
import oldroydb.harness as harness
from oldroydb import ConfigError, FluidParams, mean
from oldroydb.cli import main
from oldroydb.errors import (DensityBandError, LinearSolveError,
                             NonDirichletError)
from oldroydb.fixed_point import (audit_window, check_membership, iterate,
                                  march, suggest_budgets)
from oldroydb.harness import (_KEYS, LEDGER_COLUMNS, PRESETS, RunConfig,
                              _bump_density, build_initial_data,
                              build_params, config_as_dict, load_config,
                              parse_config)
from oldroydb.fields import Grid, divergence, norm, strain

from conftest import counting

VELOCITY = PRESETS["ic.velocity"]
DENSITY = PRESETS["ic.density"]
STRESS = PRESETS["ic.stress"]


# --------------------------------------------------------------- config

def serialize_config(cfg: RunConfig) -> str:
    """Every key of ``cfg`` in config-file syntax, floats by repr."""
    lines = []
    for key, attr, conv in _KEYS:
        v = getattr(cfg, attr)
        lines.append(f"{key} = {v!r}" if conv is float
                     else f"{key} = {v}")
    return "\n".join(lines) + "\n"


def test_config_roundtrip_is_identity():
    cfg = RunConfig(grid_n=24, eps=0.25, T=0.004, dt=2e-3,
                    ic_velocity="zero", out_dir="elsewhere")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


@st.composite
def valid_configs(draw):
    def real(lo, hi, **kw):
        return draw(st.floats(lo, hi, allow_nan=False, **kw))

    alpha = real(0.1, 10.0)
    T = real(1e-4, 1.0)
    return RunConfig(
        grid_dim=draw(st.sampled_from((2, 3))),
        grid_n=draw(st.integers(8, 256)), grid_extent=real(0.1, 10.0),
        eps=real(0.0, 1.0, exclude_min=True),
        omega=real(0.0, 1.0, exclude_min=True, exclude_max=True),
        We=real(1e-3, 10.0), alpha=alpha, a=real(-1.0, 1.0),
        m1=real(0.0, alpha, exclude_min=True), M1=real(alpha, 100.0),
        kappa=real(-10.0, 10.0),
        T=T, dt=real(0.0, T, exclude_min=True),
        tol_lin=real(1e-16, 1.0), tol_fp=real(1e-16, 1.0),
        max_iter=draw(st.integers(1, 1000)), delta=real(-10.0, 10.0),
        ic_velocity=draw(st.sampled_from(list(VELOCITY))),
        ic_velocity_amplitude=real(-1.0, 1.0),
        ic_density=draw(st.sampled_from(list(DENSITY))),
        ic_density_amplitude=real(-1.0, 1.0),
        ic_stress=draw(st.sampled_from(list(STRESS))),
        ic_stress_amplitude=real(-1.0, 1.0),
        probe_amplitude=real(0.0, 1.0, exclude_min=True),
        uniqueness_amplitude=real(-1.0, 1.0),
        out_dir=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)))


@settings(max_examples=60, deadline=None)
@given(valid_configs())
def test_config_roundtrip_property(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_config_defaults_cover_every_key():
    text = serialize_config(RunConfig())
    # every line must parse back to the exact default
    assert parse_config(text) == RunConfig()
    assert len(config_as_dict(RunConfig())) == len(text.strip().split("\n"))


def test_params_keys_are_the_fluid_params_fields():
    # one config key params.<name> per FluidParams field, each passed through
    names = [f.name for f in dataclasses.fields(FluidParams)]
    keys = [k for k in config_as_dict(RunConfig()) if k.startswith("params.")]
    assert sorted(keys) == sorted(f"params.{name}" for name in names)
    values = dict(eps=0.3, omega=0.4, We=0.7, alpha=1.3, a=-0.6, m1=0.9,
                  M1=2.9, kappa=-2.5)
    assert sorted(values) == sorted(names)
    assert len(set(values.values())) == len(values)
    params = build_params(parse_config(
        "".join(f"params.{name} = {v!r}\n" for name, v in values.items())))
    assert {name: getattr(params, name) for name in names} == values
    # and the config's defaults are the FluidParams defaults
    assert build_params(RunConfig()) == FluidParams()


def test_config_parser_diagnostics():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("no.such.key = 1\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("grid.n 32\n")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("grid.n = many\n")
    # comments and blank lines are fine
    cfg = parse_config("# a comment\n\ngrid.n = 16  # trailing\n")
    assert cfg.grid_n == 16


def test_config_validation():
    with pytest.raises(ConfigError, match="dim"):
        parse_config("grid.dim = 4\n")
    with pytest.raises(ConfigError, match="exceeds"):
        parse_config("time.T = 0.001\ntime.dt = 0.01\n")
    with pytest.raises(ConfigError, match="preset"):
        parse_config("ic.velocity = waterfall\n")
    with pytest.raises(ConfigError, match="eps"):
        parse_config("params.eps = 3.0\n")
    # the pressure law is the one coefficient params.kappa; the keys of the
    # former law selector are unknown, so an old config fails loudly
    for key in ("params.pressure", "params.pressure_kappa"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config("tol.max_iter = 0\n")
    for bad in ("tol.lin = 0\n", "tol.lin = -1e-10\n", "tol.fp = 0\n",
                "tol.fp = -1e-8\n"):
        with pytest.raises(ConfigError, match="tol.lin and tol.fp"):
            parse_config(bad)
    for bad in ("probe.amplitude = -1e-3\n", "probe.amplitude = 0\n"):
        with pytest.raises(ConfigError, match="probe.amplitude must be "
                                              "positive"):
            parse_config(bad)
    for bad in ("time.dt = nan\n", "grid.extent = inf\n",
                "tol.lin = nan\n", "probe.amplitude = nan\n",
                "params.We = -inf\n"):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(bad)


# --------------------------------------------------------------- presets

def test_registered_presets_build():
    cfg = RunConfig(grid_n=16)
    grid, params, u0, s0, t0 = build_initial_data(cfg)
    assert u0.dirichlet
    assert abs(mean(s0)) < 1e-14
    assert t0.values.shape[0] == 3

    for build in VELOCITY.values():
        v = build(grid, 0.1)
        assert v.dirichlet
    for build in DENSITY.values():
        s = build(grid, 0.1)
        assert abs(mean(s)) < 1e-13
    for build in STRESS.values():
        q = build(grid, 0.1, u0)
        assert q.values.shape[0] == 3


def test_vortex_preset_is_divergence_free():
    grid = Grid.unit(32)
    v = VELOCITY["vortex"](grid, 1.0)
    assert norm(divergence(v), 0) < 1e-2  # discrete div of the exact cell
    g = VELOCITY["gradient"](grid, 1.0)
    assert norm(divergence(g), 0) > 1.0  # deliberately compressive


def test_proportional_stress_tracks_velocity():
    grid = Grid.unit(16)
    v = VELOCITY["vortex"](grid, 0.3)
    q = STRESS["proportional-stress"](grid, 2.0, v)
    assert np.allclose(q.values, 2.0 * strain(v).values)


def test_noise_preset_follows_seed(monkeypatch):
    grid = Grid.unit(16)
    monkeypatch.setenv("OLDROYD_SEED", "7")
    a = DENSITY["noise"](grid, 0.1)
    b = DENSITY["noise"](grid, 0.1)
    assert np.array_equal(a.values, b.values)
    monkeypatch.setenv("OLDROYD_SEED", "8")
    c = DENSITY["noise"](grid, 0.1)
    assert not np.array_equal(a.values, c.values)
    assert np.abs(a.values).max() <= 0.1 + 1e-12


# ------------------------------------------------------------------ cli

def _cfg_file(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_summary(out):
    """summary.json under a parser that rejects NaN and Infinity."""
    return json.loads((out / "summary.json").read_text(),
                      parse_constant=_refuse_constant)


def _ledger_rows(out):
    """The rows of ``ledger.csv`` as dicts of floats, header checked."""
    with open(out / "ledger.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == LEDGER_COLUMNS
        return [{c: float(v) for c, v in row.items()} for row in reader]


def test_ledger_columns_match_their_sources(tmp_path):
    # every column, bit for bit, against the quantity it names, recomputed
    # in process; 17 significant digits round-trip every float
    path = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    cfg = load_config(path)
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol, _ = iterate(u0, s0, t0, params, cfg.T, cfg.dt, tol_fp=cfg.tol_fp,
                     max_iter=cfg.max_iter, tol_lin=cfg.tol_lin)
    audit = audit_window(sol, params, tol_lin=cfg.tol_lin)
    table, energy, diag = audit.table, audit.energy, audit.diag
    rows = _ledger_rows(out)
    assert len(rows) == sol.nsteps == 5
    for k, row in enumerate(rows):
        vrep = diag.velocity_reports[k]
        drep = diag.density_reports[k]
        srep = diag.stress_reports[k]
        lhs = energy.lhs_history[k + 1]
        rhs = energy.rhs_history[k + 1]
        expect = {
            "t": (k + 1) * cfg.dt,
            "u_l2": table.w[k + 1, 0], "u_h2": table.w[k + 1, 2],
            "sigma_h2": table.pi[k + 1, 2], "tau_h2": table.psi[k + 1, 2],
            "energy_lhs": lhs, "energy_rhs": rhs,
            "energy_slack": rhs * (1.0 + 10.0 * cfg.dt) - lhs,
            "dissipation_slack": energy.dissipation_slack[k],
            "lin_iters": vrep.iterations, "lin_residual": vrep.residual,
            "mean_sigma_preproject": drep.mean_preproject,
            "density_min": drep.density_min,
            "density_max": drep.density_max,
            "stress_min_det": srep.min_det_scale,
        }
        assert set(expect) == set(LEDGER_COLUMNS)
        for column, value in expect.items():
            assert row[column] == float(value), (k, column)
    assert rows[0]["lin_iters"] > 0


def test_cli_run_audit_sweep_solves_every_step_cold(tmp_path):
    # `iterate` warms its later sweeps, but the audit sweep behind the
    # ledger starts each velocity solve from the previous step, so every
    # step of the converged window still takes CG iterations
    path = os.path.join(DEMOS, "configs", "smalldata2d.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = _ledger_rows(out)
    assert len(rows) == 10
    assert all(row["lin_iters"] > 0 for row in rows)


def test_cli_run_norms_node_0_once(tmp_path, monkeypatch):
    # `iterate` and the audit sweep pass the initial data through, so one
    # `run` norms each field's node 0 once: the audit table reuses the
    # solution table's node-0 rows
    data, firsts = [], []
    real_data, real_norms = harness.build_initial_data, fields._batched_norms

    def built(cfg):
        data.append(real_data(cfg))
        return data[-1]

    def batched(nodes, k, dt=None):
        if dt is None:
            firsts.append(nodes[0])
        return real_norms(nodes, k, dt)

    monkeypatch.setattr(harness, "build_initial_data", built)
    monkeypatch.setattr(fields, "_batched_norms", batched)
    path = os.path.join(DEMOS, "configs", "smalldata2d.cfg")
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
    (_, _, u0, s0, t0), = data
    assert [sum(f is x for f in firsts) for x in (u0, s0, t0)] == [1, 1, 1]


def test_cli_run_reports_transport_bounds_without_gating(tmp_path, capsys):
    # the audit's fitted sup estimates, in strict JSON; no check reads
    # them and stdout does not print them
    path = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert "sup" not in capsys.readouterr().out
    summary = _strict_summary(out)
    cfg = load_config(path)
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol, _ = iterate(u0, s0, t0, params, cfg.T, cfg.dt, tol_fp=cfg.tol_fp,
                     max_iter=cfg.max_iter, tol_lin=cfg.tol_lin)
    audit = audit_window(sol, params, tol_lin=cfg.tol_lin)
    stress, density = audit.stress, audit.density
    assert summary["bounds"] == {
        "stress": {"sup_h2": stress.sup_h2, "sup_bound": stress.sup_bound,
                   "sup_bound_holds": stress.sup_bound_holds},
        "density": {"sup_h2": density.sup_h2,
                    "sup_bound_margin": density.sup_bound_margin}}
    assert stress.sup_bound_holds and stress.sup_h2 <= stress.sup_bound
    assert "bounds" not in summary["checks"]


def test_cli_zero_run(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "ic.velocity = zero\n"
                              "ic.density = zero\n"
                              "ic.stress = zero\n"
                              "time.T = 0.002\ntime.dt = 0.001\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    summary = _strict_summary(tmp_path / "out")
    assert summary["status"] == "ok"
    assert summary["iterations"] == 1
    # zero data leave the regularity bracket empty: no constant to fit
    assert summary["constants"]["c1_vacuous"] is True
    assert summary["constants"]["c1_emp"] is None
    assert "c1_emp vacuous" in capsys.readouterr().out
    assert summary["bounds"]["stress"]["sup_h2"] == 0.0
    assert summary["bounds"]["density"]["sup_h2"] == 0.0
    rows = _ledger_rows(tmp_path / "out")
    assert len(rows) == 2
    for row in rows:
        assert row["u_l2"] == 0.0
        assert row["sigma_h2"] == 0.0
        assert row["tau_h2"] == 0.0


def test_cli_run_writes_full_artifacts(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "artifacts"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    # a Jacobi sweep is 2-cyclic, so the per-sweep ratio, which
    # convergence.csv keeps, bounds no contraction: nothing calls it one
    assert "contraction" not in capsys.readouterr().out
    for name in ("summary.json", "ledger.csv", "convergence.csv",
                 "u_final.dat", "sigma_final.dat", "tau_final.dat"):
        assert (out / name).exists()
    summary = _strict_summary(out)
    assert not any("contraction" in key for key in summary)
    assert summary["checks"]["energy_budget"]
    assert summary["checks"]["step_dissipation"]
    membership = summary["membership"]
    assert membership["passed"]
    # each budget's slack is one minus its usage, and slack_min the least
    # of them and the density band's
    usage = membership["usage"]
    assert sorted(usage) == ["data", "rate", "velocity"]
    assert all(0.0 < u <= 1.0 for u in usage.values())
    assert all(membership["slack_min"] <= 1.0 - u for u in usage.values())
    assert summary["constants"]["c1_emp"] > 0.0
    assert summary["constants"]["c1_vacuous"] is False
    rows = _ledger_rows(out)
    assert len(rows) == 5
    ts = [r["t"] for r in rows]
    assert ts == sorted(ts) and len(set(ts)) == 5
    conv = (out / "convergence.csv").read_text().strip().split("\n")
    assert conv[0] == "iteration,distance,ratio,slack_min"
    assert len(conv) - 1 == summary["iterations"]


def test_cli_band_violation_names_hypothesis(tmp_path):
    cfg = _cfg_file(tmp_path, "ic.density_amplitude = 120.0\n")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    summary = _strict_summary(out)
    assert summary["status"] == "config-error"
    assert "strict band" in summary["error"]


@pytest.mark.parametrize("command", ["uniqueness", "probe"])
def test_cli_bad_data_is_config_error(tmp_path, command):
    # the hypotheses are checked before the march takes its first step
    cfg = os.path.join(DEMOS, "configs", "band_violation.cfg")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == 2
    summary = _strict_summary(out)
    assert summary["status"] == "config-error"
    assert "strict band" in summary["error"]


@pytest.mark.parametrize("line", ["params.pressure_cs = 2",
                                  "params.pressure = isothermal",
                                  "params.pressure_kappa = 1"])
def test_cli_removed_pressure_options_are_config_errors(tmp_path, line):
    cfg = _cfg_file(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    summary = _strict_summary(out)
    assert summary["status"] == "config-error"
    assert summary["exit_code"] == 2
    key = line.partition("=")[0].strip()
    assert f"unknown config key {key!r}" in summary["error"]


@pytest.mark.parametrize("seed", ["abc", "-1"])
def test_cli_bad_seed_is_a_config_error(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("OLDROYD_SEED", seed)
    cfg = _cfg_file(tmp_path,
                    "grid.n = 8\ntime.T = 0.002\nic.density = noise\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    summary = _strict_summary(out)
    assert summary["status"] == "config-error"
    assert "OLDROYD_SEED" in summary["error"]


def test_cli_divergence_exits_3(tmp_path):
    cfg = _cfg_file(tmp_path, "time.T = 0.08\ntol.max_iter = 4\n")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    summary = _strict_summary(out)
    assert summary["status"] == "solver-failure"
    assert len(summary["distance_history"]) == 4
    assert summary["failed_timestep"] is None  # no single step failed


def test_cli_band_exit_names_the_failed_sweep(tmp_path):
    # at eps = 0.025 the default window diverges; on n = 31, the smallest
    # grid where the divergence leaves the density band inside a sweep
    # instead of running out of sweeps, sweep 38 fails at step 10, and
    # the summary keeps the distances of the 37 sweeps that finished
    cfg = _cfg_file(tmp_path, "grid.n = 31\nparams.eps = 0.025\n"
                              "tol.max_iter = 40\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 4
    summary = _strict_summary(out)
    assert summary["status"] == "invariant-violation"
    assert summary["error"].startswith("step_density: density")
    assert summary["failed_timestep"] == 10
    assert summary["failed_sweep"] == 38
    history = summary["distance_history"]
    assert len(history) == 37 and all(d > 0.0 for d in history)
    assert history[-1] > 1e3 * history[0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="iterate stops on the weighted distance, whose "
                          "density gap carries the weight eps/sqrt(alpha), "
                          "while the system_residual check gates the "
                          "unweighted gap at 10 tol.fp")
def test_cli_converged_window_passes_the_residual_check(tmp_path,
                                                       monkeypatch):
    # at eps = 0.025 on n = 10, iterate converges in 38 sweeps at distance
    # 6.0e-9, but the density residual is 1.1e-7 > 10 tol.fp.  A window
    # that stops converging has no `failed_checks`: the KeyError is not
    # the expected failure, so the test then fails
    monkeypatch.setenv("OLDROYD_SEED", "0")
    cfg = _cfg_file(tmp_path, "grid.n = 10\nparams.eps = 0.025\n"
                              "tol.max_iter = 40\n")
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    assert "system_residual" not in _strict_summary(out)["failed_checks"]


def test_cli_nan_distance_exits_3_with_strict_history(tmp_path, monkeypatch):
    # a NaN distance stops the sweeps at once and is written as null
    monkeypatch.setattr(fixed_point, "trajectory_distance",
                        lambda a, b, p: float("nan"))
    cfg = _cfg_file(tmp_path, "grid.n = 8\ntime.T = 0.002\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    summary = _strict_summary(out)
    assert summary["status"] == "solver-failure"
    assert summary["distance_history"] == [None]


def _certified_membership(cfg, sigma0):
    """The membership block of the marched and certified solution of
    ``cfg`` with density remainder ``sigma0``, from `check_membership`."""
    _, params, u0, _, t0 = build_initial_data(cfg)
    sol, hist = march(u0, sigma0, t0, params, cfg.T, cfg.dt,
                      tol_fp=cfg.tol_fp, max_iter=cfg.max_iter,
                      tol_lin=cfg.tol_lin)
    mem = check_membership(sol, *suggest_budgets(u0, sigma0, t0, params),
                           params)
    return hist, {"passed": mem.passed, "violations": list(mem.violations),
                  "slack_min": mem.slack_min, "b1": mem.b1, "b2": mem.b2,
                  "density_min": mem.density_min,
                  "density_max": mem.density_max,
                  "usage": {"velocity": mem.velocity_budget / mem.b1,
                            "data": mem.data_budget / mem.b1,
                            "rate": mem.rate_budget / mem.b2}}


def test_cli_uniqueness_reports_membership_without_gating(tmp_path, capsys,
                                                         monkeypatch):
    # both certified solutions of this compressive window overrun the rate
    # budget; each solve's membership is reported as `run` reports its
    # own, and the status still reads only the envelope
    path = _cfg_file(tmp_path, "grid.n = 16\nic.velocity = gradient\n"
                               "ic.velocity_amplitude = 0.5\n"
                               "time.T = 0.005\ntol.max_iter = 25\n")
    out = tmp_path / "out"
    calls = counting(monkeypatch, [fixed_point], ["picard_sweep"])
    assert main(["uniqueness", "--config", path, "--out", str(out)]) == 0
    summary = _strict_summary(out)
    assert summary["status"] == "ok"
    # each solve's sweeps: the local ones of its march, then the
    # certifying ones, which together are every sweep the command ran
    sweeps = summary["sweeps"]
    assert calls["picard_sweep"] == sum(
        sweeps[solve][kind] for solve in ("base", "perturbed")
        for kind in ("local", "certifying"))
    cfg = load_config(path)
    grid, _, _, s0, _ = build_initial_data(cfg)
    bump = _bump_density(grid, cfg.uniqueness_amplitude)
    printed = capsys.readouterr().out
    for solve, sigma0 in (("base", s0), ("perturbed", s0 + bump)):
        hist, block = _certified_membership(cfg, sigma0)
        assert summary["membership"][solve] == block
        assert block["violations"] == ["rate budget"]
        assert len(hist.local_sweeps) == 5
        assert sweeps[solve] == {"local": sum(hist.local_sweeps),
                                 "certifying": hist.iterations}
        assert (f"march of the {solve} solve: {sum(hist.local_sweeps)} "
                f"local sweeps, {hist.iterations} certifying") in printed
    assert "membership of the base solve: FAIL" in printed
    assert "membership of the perturbed solve: FAIL" in printed


def test_cli_probe_reports_membership_of_one_certifying_sweep(tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "configs", "smalldata2d.cfg")
    out = tmp_path / "out"
    assert main(["probe", "--config", path, "--out", str(out)]) == 0
    cfg = load_config(path)
    hist, block = _certified_membership(cfg, build_initial_data(cfg)[3])
    assert hist.iterations == 1
    summary = _strict_summary(out)
    assert summary["membership"] == block
    assert block["passed"]
    assert summary["sweeps"] == {"local": sum(hist.local_sweeps),
                                 "certifying": 1}


@pytest.mark.parametrize("command, target, exc, exit_code", [
    pytest.param("run", "step_velocity", LinearSolveError("injected stall"),
                 3, id="step_velocity-exc0-3"),
    pytest.param("run", "step_density",
                 DensityBandError((1, 1), 9.0, 0.5, 1.5), 4,
                 id="step_density-exc1-4"),
    pytest.param("run", "trace", NonDirichletError("injected departure"),
                 4, id="trace-exc2-4"),
    pytest.param("uniqueness", "step_velocity",
                 LinearSolveError("injected stall"), 3,
                 id="uniqueness-step_velocity-exc3-3"),
])
def test_cli_names_failed_timestep(tmp_path, monkeypatch, command, target,
                                   exc, exit_code):
    # fail in the first step that starts from the third distinct state,
    # which is step 3 both in the first sweep of `run` and in the march of
    # `uniqueness`, whose one-step windows all report step 1 themselves; a
    # trace starts from no state, so each of its calls counts
    real = getattr(fixed_point, target)
    starts = []

    def fail_at_step_3(*args, **kwargs):
        start = object() if target == "trace" else args[0]
        if not any(start is s for s in starts):
            starts.append(start)
        if len(starts) == 3:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(fixed_point, target, fail_at_step_3)
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == exit_code
    summary = _strict_summary(out)
    assert summary["exit_code"] == exit_code
    assert summary["failed_timestep"] == 3


def test_cli_run_3d_smoke(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.dim = 3\ngrid.n = 8\ntime.T = 0.003\n")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _strict_summary(out)
    assert summary["status"] == "ok"
    assert summary["checks"] and all(summary["checks"].values())
    assert summary["constants"]["c1_vacuous"] is False
    rows = _ledger_rows(out)
    assert len(rows) == 3
    assert all(row["lin_iters"] > 0 for row in rows)


def test_cli_unreadable_config(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(out)])
    assert code == 2
    assert (out / "summary.json").exists()


def test_cli_derives_failed_checks_from_checks(tmp_path, monkeypatch):
    # a driver returns verdicts only; the CLI names the false ones, sorted
    monkeypatch.setattr(cli, "probe_experiment", lambda cfg, out: {
        "checks": {"zeta": False, "alpha": True, "mu": False}})
    monkeypatch.setattr(cli, "_print_probe", lambda payload: None)
    out = tmp_path / "out"
    assert main(["probe", "--out", str(out)]) == 4
    summary = _strict_summary(out)
    assert summary["failed_checks"] == ["mu", "zeta"]
    assert summary["status"] == "invariant-violation"
    assert summary["exit_code"] == 4


def test_cli_uncreatable_output_dir_is_a_config_error(tmp_path, capsys):
    # --out under a regular file: exit 2 with the reason on stderr, the
    # one case that leaves no summary.json
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert main(["mms", "--out", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config-error: cannot create output "
                                   "directory")
    assert "summary:" not in captured.out
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def _loaded_after(code, prefixes=("scipy",)):
    """The modules named by a prefix, or below one, that are loaded in a
    fresh process that runs code."""
    src = os.path.dirname(os.path.dirname(oldroydb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (f"import sys\n{code}\n"
             f"prefixes = {tuple(prefixes)!r}\n"
             "print('loaded:', *(m for m in sys.modules "
             "if any(m == p or m.startswith(p + '.') for p in prefixes)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def test_cli_import_loads_no_scipy():
    # every command pays for what the package imports at start-up, and
    # the package needs only numpy
    assert _loaded_after("import oldroydb.cli") == []


def test_cli_mms_loads_no_scipy(tmp_path):
    # the studies' references are closed forms and a fixed-step
    # Dormand-Prince trace, and their data are fixed draws, so the whole
    # mms command stays on numpy without numpy.random and the hashlib it
    # pulls in
    code = ("from oldroydb.cli import main\n"
            f"assert main(['mms', '--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _loaded_after(code, ("scipy", "numpy.random", "hashlib")) == []


@pytest.mark.parametrize("command", ["run", "mms", "uniqueness", "probe"])
def test_cli_determinism(tmp_path, monkeypatch, command):
    # two runs of one config write the same bytes in every file, the
    # summary included: each runs from its own directory into the same
    # relative --out, so even the recorded paths agree
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.004\n")
    outs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([command, "--config", cfg, "--out", "out"]) == 0
        outs.append(tmp_path / name / "out")
    files = sorted(os.listdir(outs[0]))
    assert files == sorted(os.listdir(outs[1]))
    assert "summary.json" in files
    assert any(f.endswith(".csv") for f in files)
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def test_cli_mms_smoke(tmp_path, capsys):
    # dyadic ladders are built into the studies; this checks the wrapper,
    # the table and the exact marker
    out = tmp_path / "out"
    # --jobs is inert but still parses, so older command lines keep working
    code = main(["mms", "--jobs", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "exact" in text
    assert "pass" in text
    summary = _strict_summary(out)
    names = [st["name"] for st in summary["studies"]]
    assert len(names) == 5
    assert sorted(summary["checks"]) == sorted(names)
    assert all(summary["checks"].values())
    assert any(st["exact"] for st in summary["studies"])
    assert (out / "mms.csv").exists()


def test_cli_uniqueness_zero_amplitude(tmp_path):
    cfg = _cfg_file(tmp_path, "uniqueness.amplitude = 0.0\n"
                              "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    code = main(["uniqueness", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _strict_summary(out)
    assert summary["identical"]
    assert summary["checks"] == {"gronwall_envelope": True}
    assert summary["gap_energy_final"] == 0.0
    rows = (out / "gronwall.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_cli_uniqueness_perturbed(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    code = main(["uniqueness", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _strict_summary(out)
    assert not summary["identical"]
    # c12 is fitted to this pair, so its envelope closes by construction:
    # reported, never gated
    assert summary["checks"] == {}
    assert "c12_fitted" not in summary
    assert summary["max_ratio"] <= 1.0 + 1e-12


def test_cli_uniqueness_jobs_do_not_change_output_bytes(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main(["uniqueness", "--jobs", str(jobs), "--config", cfg,
                     "--out", str(out)]) == 0
    a, b = ((out / "gronwall.csv").read_bytes() for out in outs)
    assert a == b


def test_cli_uniqueness_refuses_large_delta(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "tol.delta = 10.0\n")
    out = tmp_path / "out"
    code = main(["uniqueness", "--config", cfg, "--out", str(out)])
    assert code == 2
    summary = _strict_summary(out)
    # the refusal must print the positivity threshold
    assert "6.66667" in summary["error"]


def test_cli_probe_smoke(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    code = main(["probe", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _strict_summary(out)
    assert summary["checks"] == {"probe_linearity": True}
    assert len(summary["gaps"]) == 3
    for r in summary["shrink_ratios"]:
        assert 2.0 / 1.5 <= r <= 2.0 * 1.5


def test_cli_probe_negative_amplitude_is_config_error(tmp_path):
    # a zero amplitude is refused too: it would gate an empty measurement
    for amp in ("-1e-3", "0"):
        cfg = _cfg_file(tmp_path, f"probe.amplitude = {amp}\n"
                                  "grid.n = 8\ntime.T = 0.002\n")
        out = tmp_path / f"out{amp}"
        code = main(["probe", "--config", cfg, "--out", str(out)])
        assert code == 2
        summary = _strict_summary(out)
        assert summary["status"] == "config-error"
        assert "probe.amplitude must be positive" in summary["error"]


@pytest.mark.parametrize("command", ["uniqueness", "probe"])
def test_cli_3d_smoke(tmp_path, command):
    cfg = _cfg_file(tmp_path, "grid.dim = 3\ngrid.n = 8\ntime.T = 0.003\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _strict_summary(out)
    assert summary["status"] == "ok"
    assert summary["failed_checks"] == []


# ---------------------------------------------------------------- demos

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(script):
    # each demo runs standalone from its own directory, as the README shows
    src = os.path.dirname(os.path.dirname(oldroydb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, script], cwd=DEMOS, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- README

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def _readme_block(after):
    """The first fenced block of README.md that follows the line `after`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(after)
    match = re.compile(r"^```[a-z]*\n(.*?)^```", re.M | re.S).search(
        text, start)
    return match.group(1)


def test_readme_quickstart_runs(capsys):
    code = _readme_block("## Library quickstart")
    scope = {}
    exec(compile(code, README, "exec"), scope)
    assert capsys.readouterr().out.split()[-1] == "True"
    # the quickstart spells out the default config's data, bit for bit
    _, params, u0, s0, t0 = build_initial_data(RunConfig())
    assert scope["params"] == params
    for name, fld in (("u0", u0), ("s0", s0), ("t0", t0)):
        assert np.array_equal(scope[name].values, fld.values), name


def test_readme_lists_exactly_the_config_keys():
    block = _readme_block("Keys:")
    listed = [key for line in block.splitlines()
              for key in line.split("#", 1)[0].split()]
    assert listed == list(config_as_dict(RunConfig()))
