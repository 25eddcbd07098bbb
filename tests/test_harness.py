"""Config round-trip, preset registry, CSV ledgers and the CLI drivers."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oldroydb
import oldroydb.fixed_point as fixed_point
from oldroydb import ConfigError, mean
from oldroydb.cli import main
from oldroydb.errors import DensityBandError, LinearSolveError
from oldroydb.harness import (DENSITY_PRESETS, EnergyLedger, LEDGER_COLUMNS,
                              RunConfig, STRESS_PRESETS, VELOCITY_PRESETS,
                              build_initial_data, config_as_dict,
                              initial_density, initial_stress,
                              initial_velocity, parse_config,
                              serialize_config)
from oldroydb.fields import Grid, divergence, norm, rate_tensors


# --------------------------------------------------------------- config

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
        we=real(1e-3, 10.0), alpha=alpha, slip=real(-1.0, 1.0),
        m1=real(0.0, alpha, exclude_min=True), M1=real(alpha, 100.0),
        pressure=draw(st.sampled_from(("linear", "isothermal",
                                       "quadratic"))),
        pressure_kappa=real(-10.0, 10.0), pressure_cs=real(-10.0, 10.0),
        T=T, dt=real(0.0, T, exclude_min=True),
        tol_lin=real(1e-16, 1.0), tol_fp=real(1e-16, 1.0),
        max_iter=draw(st.integers(1, 1000)), delta=real(-10.0, 10.0),
        ic_velocity=draw(st.sampled_from(VELOCITY_PRESETS)),
        ic_velocity_amplitude=real(-1.0, 1.0),
        ic_density=draw(st.sampled_from(DENSITY_PRESETS)),
        ic_density_amplitude=real(-1.0, 1.0),
        ic_stress=draw(st.sampled_from(STRESS_PRESETS)),
        ic_stress_amplitude=real(-1.0, 1.0),
        probe_amplitude=real(0.0, 1.0),
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
    with pytest.raises(ConfigError, match="unknown pressure law"):
        parse_config("params.pressure = table\n")
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config("tol.max_iter = 0\n")
    for bad in ("tol.lin = 0\n", "tol.lin = -1e-10\n", "tol.fp = 0\n",
                "tol.fp = -1e-8\n"):
        with pytest.raises(ConfigError, match="tol.lin and tol.fp"):
            parse_config(bad)
    with pytest.raises(ConfigError, match="probe.amplitude"):
        parse_config("probe.amplitude = -1e-3\n")
    assert parse_config("probe.amplitude = 0\n").probe_amplitude == 0.0
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

    for name in VELOCITY_PRESETS:
        v = initial_velocity(grid, name, 0.1)
        assert v.dirichlet
    for name in DENSITY_PRESETS:
        s = initial_density(grid, name, 0.1)
        assert abs(mean(s)) < 1e-13
    for name in STRESS_PRESETS:
        q = initial_stress(grid, name, 0.1, u0)
        assert q.values.shape[0] == 3


def test_vortex_preset_is_divergence_free():
    grid = Grid.unit(32)
    v = initial_velocity(grid, "vortex", 1.0)
    assert norm(divergence(v), 0) < 1e-2  # discrete div of the exact cell
    g = initial_velocity(grid, "gradient", 1.0)
    assert norm(divergence(g), 0) > 1.0  # deliberately compressive


def test_proportional_stress_tracks_velocity():
    grid = Grid.unit(16)
    v = initial_velocity(grid, "vortex", 0.3)
    q = initial_stress(grid, "proportional-stress", 2.0, v)
    strain = rate_tensors(v)[0]
    assert np.allclose(q.values, 2.0 * strain.values)


def test_noise_preset_follows_seed(monkeypatch):
    grid = Grid.unit(16)
    monkeypatch.setenv("OLDROYD_SEED", "7")
    a = initial_density(grid, "noise", 0.1)
    b = initial_density(grid, "noise", 0.1)
    assert np.array_equal(a.values, b.values)
    monkeypatch.setenv("OLDROYD_SEED", "8")
    c = initial_density(grid, "noise", 0.1)
    assert not np.array_equal(a.values, c.values)
    assert np.abs(a.values).max() <= 0.1 + 1e-12


# --------------------------------------------------------------- ledgers

def test_ledger_rows_roundtrip(tmp_path):
    led = EnergyLedger()
    row = {c: 0.0 for c in LEDGER_COLUMNS}
    led.append(**{**row, "t": 1e-3, "u_l2": 0.25, "lin_iters": 7})
    led.append(**{**row, "t": 2e-3, "u_l2": 1.0 / 3.0})
    path = tmp_path / "ledger.csv"
    led.write(path)
    back = EnergyLedger.read(path)
    assert len(back.rows) == 2
    assert back.rows[0]["u_l2"] == 0.25
    assert back.rows[1]["u_l2"] == 1.0 / 3.0  # 17 digits round-trip floats
    assert back.rows[0]["lin_iters"] == 7.0


def test_ledger_rejects_bad_rows():
    led = EnergyLedger()
    row = {c: 0.0 for c in LEDGER_COLUMNS}
    led.append(**{**row, "t": 1e-3})
    with pytest.raises(ValueError, match="must increase"):
        led.append(**{**row, "t": 1e-3})
    with pytest.raises(ValueError, match="mismatch"):
        led.append(t=2e-3)


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
    led = EnergyLedger.read(tmp_path / "out" / "ledger.csv")
    assert len(led.rows) == 2
    for row in led.rows:
        assert row["u_l2"] == 0.0
        assert row["sigma_h2"] == 0.0
        assert row["tau_h2"] == 0.0


def test_cli_run_writes_full_artifacts(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "artifacts"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    for name in ("summary.json", "ledger.csv", "convergence.csv",
                 "u_final.dat", "sigma_final.dat", "tau_final.dat"):
        assert (out / name).exists()
    summary = _strict_summary(out)
    assert summary["checks"]["energy_budget"]
    assert summary["checks"]["step_dissipation"]
    assert summary["membership"]["passed"]
    assert summary["constants"]["c1_emp"] > 0.0
    assert summary["constants"]["c1_vacuous"] is False
    led = EnergyLedger.read(out / "ledger.csv")
    assert len(led.rows) == 5
    ts = [r["t"] for r in led.rows]
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


def test_cli_divergence_exits_3(tmp_path):
    cfg = _cfg_file(tmp_path, "time.T = 0.08\ntol.max_iter = 4\n")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    summary = _strict_summary(out)
    assert summary["status"] == "solver-failure"
    assert len(summary["distance_history"]) == 4
    assert summary["failed_timestep"] is None  # no single step failed


@pytest.mark.parametrize("target, exc, exit_code", [
    ("step_velocity", LinearSolveError("injected stall"), 3),
    ("step_density", DensityBandError((1, 1), 9.0, 0.5, 1.5), 4),
])
def test_cli_names_failed_timestep(tmp_path, monkeypatch, target, exc,
                                   exit_code):
    real = getattr(fixed_point, target)
    calls = []

    def fail_at_step_3(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:  # third step of the first sweep
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(fixed_point, target, fail_at_step_3)
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.005\n")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
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
    led = EnergyLedger.read(out / "ledger.csv")
    assert len(led.rows) == 3
    assert all(row["lin_iters"] > 0 for row in led.rows)


def test_cli_unreadable_config(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(out)])
    assert code == 2
    assert (out / "summary.json").exists()


def test_cli_import_loads_only_numpy_and_scipy_sparse():
    # every command pays for what the package imports at start-up; the
    # mms density-advection oracle imports scipy.integrate when it runs
    src = os.path.dirname(os.path.dirname(oldroydb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    absent = ("scipy.ndimage", "scipy.sparse.linalg", "scipy.linalg",
              "scipy.optimize", "scipy.special", "scipy.interpolate",
              "scipy.integrate")
    probe = ("import sys, oldroydb.cli; "
             f"print(' '.join(m for m in {absent!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"imported: {done.stdout.strip()}"


def test_cli_determinism(tmp_path):
    cfg = _cfg_file(tmp_path, "grid.n = 16\ntime.T = 0.004\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "ledger.csv").read_bytes() == (b / "ledger.csv").read_bytes()
    assert (a / "convergence.csv").read_bytes() == \
        (b / "convergence.csv").read_bytes()


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
    assert all(st["passed"] for st in summary["studies"])
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
    assert summary["satisfied"]
    assert summary["c12_fitted"]


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
    assert summary["linear_ok"]
    assert len(summary["gaps"]) == 3
    for r in summary["shrink_ratios"]:
        assert 2.0 / 1.5 <= r <= 2.0 * 1.5


def test_cli_probe_negative_amplitude_is_config_error(tmp_path):
    cfg = _cfg_file(tmp_path, "probe.amplitude = -1e-3\n"
                              "grid.n = 8\ntime.T = 0.002\n")
    out = tmp_path / "out"
    code = main(["probe", "--config", cfg, "--out", str(out)])
    assert code == 2
    summary = _strict_summary(out)
    assert summary["status"] == "config-error"
    assert "probe.amplitude" in summary["error"]


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
