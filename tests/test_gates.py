"""Every gate can fail: each one driven to exit 4 by a defect of its own.

A gate that no defect can trip certifies nothing.  Each case below puts a
one-line defect in the code a gate checks, never in the gate's comparison
or bound, and runs the command through the CLI: it must exit 4 with
exactly that gate in ``failed_checks``.  `test_every_gate_is_driven_to_failure`
holds the cases, and the keys of the bound table `gates.GATES`, against
the ``checks`` of passing runs of all four commands, so a new gate that no
case drives fails the suite.  The table is pinned to literal values, and
moving any one entry alone fails exactly its gate, so no check keeps a
copy of its bound.  The last tests pin every fixed bound at its edge with
literals of their own, by scaling an input or the measurement a gate reads
1e-6 relative past and inside it: the residual's 10 tol.fp, the density
mean's 1e-12 max(1, sup |sigma|), the energy budget's (1 + 10 dt) slack,
the dissipation allowance, the mms orders and round-off, the probe's
linearity band [2/1.5, 2 * 1.5] and the identical-data envelope's
(10 tol.fp)^2.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import oldroydb.fixed_point as fixed_point
import oldroydb.harness as harness
import oldroydb.mms as mms
import oldroydb.transport as transport
import oldroydb.velocity as velocity
from oldroydb.cli import main
from oldroydb.fields import ScalarField, inner
from oldroydb.fixed_point import (TOL_FP, IterTriple, SystemResidual,
                                  _gap_energies, _perturb, _probe_shapes,
                                  audit_window, continuity_probe, iterate,
                                  trajectory_norms, uniqueness_experiment)
from oldroydb.gates import GATES
from oldroydb.harness import RunConfig, build_initial_data, parse_config
from oldroydb.velocity import check_energy_budget

from conftest import counting, window_forcings

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos", "configs")


def _shipped(name):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return fh.read()


SMALL = _shipped("smalldata2d.cfg")
# the small-data window with a noisy density: its density H2 norm, not the
# viscous load of the velocity, sizes the first membership budget.  On
# SMALL, each velocity-step defect tried that broke the energy budget had
# overrun that budget first, so the energy gate did not fail alone there
NOISY = SMALL + "ic.density = noise\nic.density_amplitude = 0.1\n"
QUICK = "grid.n = 16\ntime.T = 0.005\n"


def _cli(tmp_path, command, config):
    path = tmp_path / "case.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, json.loads((out / "summary.json").read_text())


def _wrap(monkeypatch, module, name, wrapper):
    """Replace ``module.name`` by ``wrapper(real)``."""
    monkeypatch.setattr(module, name, wrapper(getattr(module, name)))


# ----------------------------------------------------------- the defects

def _no_mean_reprojection(monkeypatch):
    # `step_density` reads a zero mean, so it skips its re-projection
    monkeypatch.setattr(transport, "mean", lambda f: 0.0)


def _budgets_too_small(monkeypatch):
    _wrap(monkeypatch, fixed_point, "suggest_budgets",
          lambda real: lambda *a: tuple(1e-3 * b for b in real(*a)))


def _iterate_stops_at_once(monkeypatch):
    # every distance reads 0, so `iterate` returns its first sweep
    monkeypatch.setattr(fixed_point, "trajectory_distance",
                        lambda a, b, params: 0.0)


def _overdamped_velocity_step(monkeypatch):
    # the velocity system carries ten times the viscous coefficient
    _wrap(monkeypatch, velocity, "viscous_system",
          lambda real: lambda grid, alpha, coef: real(grid, alpha,
                                                      10.0 * coef))


def _heavy_velocity_step(monkeypatch):
    # the sweep's velocity step divides by a tenth of the step
    _wrap(monkeypatch, fixed_point, "step_velocity",
          lambda real: lambda u, F, dt, params, **kw: real(
              u, F, 0.1 * dt, params, **kw))


def _second_solve_settles_loosely(monkeypatch, loose=1e5):
    # the perturbed solve of `uniqueness` settles to ``loose`` times tol.fp
    calls = []

    def march(*args, tol_fp, **kwargs):
        calls.append(tol_fp)
        factor = loose if len(calls) == 2 else 1.0
        return real(*args, tol_fp=factor * tol_fp, **kwargs)

    real = harness.march
    monkeypatch.setattr(harness, "march", march)


def _sweep_jumps_off_the_base(monkeypatch):
    # a map with a jump: any input other than the probed base gains a
    # fixed density offset, so the output gaps stop halving
    real_probe, real_sweep = harness.continuity_probe, fixed_point.picard_sweep

    def probe(base, *args, **kwargs):
        offset = ScalarField(base.grid, np.full(base.grid.node_shape, 1e-2))

        def sweep(inp, *a, **k):
            out, diag = real_sweep(inp, *a, **k)
            if inp is not base:
                out = IterTriple(out.w, [p + offset for p in out.pi],
                                 out.psi, out.dt)
            return out, diag

        monkeypatch.setattr(fixed_point, "picard_sweep", sweep)
        return real_probe(base, *args, **kwargs)

    monkeypatch.setattr(harness, "continuity_probe", probe)


def _velocity_forcing_off(monkeypatch):
    # the studied velocity step reads 1% too much forcing
    _wrap(monkeypatch, mms, "step_velocity",
          lambda real: lambda u, F, dt, params, **kw: real(
              u, F * 1.01, dt, params, **kw))


def _velocity_tolerance_ignored(monkeypatch):
    # the studied velocity step stops its solve at 1e-4, whatever asked
    _wrap(monkeypatch, mms, "step_velocity",
          lambda real: lambda u, F, dt, params, tol_lin, **kw: real(
              u, F, dt, params, tol_lin=1e-4, **kw))


def _trace_too_fast(monkeypatch):
    # the characteristics are traced with 5% too much velocity
    _wrap(monkeypatch, mms, "trace",
          lambda real: lambda w, dt: real(w * 1.05, dt))


def _density_leaks(monkeypatch):
    # the density step loses 1e-9 of the remainder at every step
    def leaky(real):
        def step(sigma, cm, params):
            out, rep = real(sigma, cm, params)
            return out * (1.0 - 1e-9), rep
        return step

    _wrap(monkeypatch, mms, "step_density", leaky)


def _relaxation_time_off(monkeypatch):
    # the stress step relaxes with a Weissenberg number 1% too large
    _wrap(monkeypatch, mms, "step_stress",
          lambda real: lambda tau, cm, params: real(
              tau, cm, dataclasses.replace(params, We=1.01 * params.We)))


# (command, gate, config, defect): the defect drives exactly that gate
DEFECTS = [
    ("run", "density_mean_zero", SMALL, _no_mean_reprojection),
    ("run", "membership", SMALL, _budgets_too_small),
    ("run", "system_residual", SMALL, _iterate_stops_at_once),
    ("run", "energy_budget", NOISY, _overdamped_velocity_step),
    ("run", "step_dissipation", SMALL, _heavy_velocity_step),
    ("uniqueness", "gronwall_envelope",
     QUICK + "uniqueness.amplitude = 0\n", _second_solve_settles_loosely),
    ("probe", "probe_linearity", QUICK, _sweep_jumps_off_the_base),
    ("mms", "velocity diffusion, space", "", _velocity_forcing_off),
    ("mms", "velocity diffusion, time", "", _velocity_tolerance_ignored),
    ("mms", "density advection, vortex", "", _trace_too_fast),
    ("mms", "density transport, still fluid", "", _density_leaks),
    ("mms", "stress relaxation, time", "", _relaxation_time_off),
]


@pytest.mark.parametrize("command, gate, config, defect", DEFECTS,
                         ids=[d[3].__name__.strip("_") for d in DEFECTS])
def test_defect_fails_exactly_its_gate(tmp_path, monkeypatch, command, gate,
                                       config, defect):
    monkeypatch.setenv("OLDROYD_SEED", "0")
    defect(monkeypatch)
    code, summary = _cli(tmp_path, command, config)
    assert code == 4
    assert summary["status"] == "invariant-violation"
    assert summary["failed_checks"] == [gate]
    assert summary["checks"][gate] is False


def test_uniqueness_at_zero_amplitude_runs_both_solves(tmp_path,
                                                      monkeypatch):
    # the identical-data envelope compares two solves, not one with itself
    calls = counting(monkeypatch, [harness], ["march"])
    code, summary = _cli(tmp_path, "uniqueness",
                         QUICK + "uniqueness.amplitude = 0\n")
    assert code == 0 and summary["identical"]
    assert calls["march"] == 2


def test_every_gate_is_driven_to_failure(tmp_path, monkeypatch):
    # the gates the cases above trip are exactly the checks that passing
    # runs of the four commands report; `uniqueness` gates only identical
    # data, so it runs at amplitude 0 too
    monkeypatch.setenv("OLDROYD_SEED", "0")
    gates = set()
    runs = [(command, QUICK) for command in ("run", "uniqueness", "probe",
                                             "mms")]
    runs.append(("uniqueness", QUICK + "uniqueness.amplitude = 0\n"))
    for i, (command, config) in enumerate(runs):
        (tmp_path / str(i)).mkdir()
        code, summary = _cli(tmp_path / str(i), command, config)
        assert code == 0 and summary["failed_checks"] == []
        assert all(summary["checks"].values())
        gates |= set(summary["checks"])
        if command == "mms":
            # each study reports the bound its gate reads
            assert {st["name"]: st["threshold"]
                    for st in summary["studies"]} == {
                        name: GATES[name] for name in summary["checks"]}
    assert {gate for _, gate, _, _ in DEFECTS} == gates
    assert len(DEFECTS) == len(gates)
    assert set(GATES) == gates


# ------------------------------------------------------------ the table

def test_gate_table_values():
    # loosening a bound has to edit this test
    assert GATES == {
        "membership": 4.0,
        "system_residual": 10.0,
        "energy_budget": (10.0, 1e-14),
        "step_dissipation": 1e-11,
        "density_mean_zero": 1e-12,
        "gronwall_envelope": 10.0,
        "probe_linearity": 1.5,
        "velocity diffusion, space": 1.8,
        "velocity diffusion, time": 0.9,
        "density advection, vortex": 0.9,
        "density transport, still fluid": 1e-12,
        "stress relaxation, time": 0.9,
    }


IDENTICAL = QUICK + "uniqueness.amplitude = 0\n"

# (command, gate, moved bound, config): each passing run violates the
# moved bound
BOUND_MOVES = [
    ("run", "membership", 1e-3, QUICK),
    ("run", "system_residual", 1e-6, QUICK),
    ("run", "energy_budget", (-2e3, 1e-14), QUICK),
    ("run", "energy_budget", (10.0, -1.0), QUICK),
    ("run", "step_dissipation", -1.0, QUICK),
    ("run", "density_mean_zero", -1.0, QUICK),
    ("uniqueness", "gronwall_envelope", 1e-4, IDENTICAL),
    ("probe", "probe_linearity", 0.5, QUICK),
    ("mms", "velocity diffusion, space", 10.0, ""),
    ("mms", "velocity diffusion, time", 10.0, ""),
    ("mms", "density advection, vortex", 10.0, ""),
    ("mms", "density transport, still fluid", 0.0, ""),
    ("mms", "stress relaxation, time", 10.0, ""),
]


def test_every_table_entry_is_moved():
    assert {gate for _, gate, _, _ in BOUND_MOVES} == set(GATES)


@pytest.mark.parametrize("command, gate, bound, config", BOUND_MOVES,
                         ids=[f"{g}={b}" for _, g, b, _ in BOUND_MOVES])
def test_moving_an_entry_fails_exactly_its_gate(tmp_path, monkeypatch,
                                                command, gate, bound,
                                                config):
    # a check that kept a copy of its bound would still pass
    monkeypatch.setenv("OLDROYD_SEED", "0")
    if gate == "gronwall_envelope":
        # equal data give two equal solves; a second one settled to
        # 10 tol.fp leaves a gap that the (10 tol.fp)^2 envelope admits
        _second_solve_settles_loosely(monkeypatch, loose=10.0)
    monkeypatch.setitem(GATES, gate, bound)
    code, summary = _cli(tmp_path, command, config)
    assert code == 4
    assert summary["failed_checks"] == [gate]
    if gate == "gronwall_envelope":
        assert 0.0 < summary["max_ratio"] * (bound / 10.0) ** 2 <= 1.0
    if command == "mms":
        [study] = [st for st in summary["studies"] if st["name"] == gate]
        assert study["threshold"] == bound


# ------------------------------------------------------------ edge pins

EDGES = [(1e-6, False), (-1e-6, True)]  # (eta, verdict): past, inside
EDGE_IDS = ["past", "inside"]


def _run_with_audit(tmp_path, monkeypatch, edit):
    """`run` on QUICK, its gates reading ``edit(audit)`` for its audit."""
    _wrap(monkeypatch, harness, "audit_window",
          lambda real: lambda *a, **k: edit(real(*a, **k)))
    return _cli(tmp_path, "run", QUICK)


@pytest.mark.parametrize("eta, holds", EDGES, ids=EDGE_IDS)
def test_residual_gate_edge(tmp_path, monkeypatch, eta, holds):
    # the measured residual scaled to 10 tol.fp (1 + eta)
    target = 10.0 * RunConfig.tol_fp * (1.0 + eta)

    def edit(audit):
        r = audit.residual
        scale = target / r.worst
        return dataclasses.replace(audit, residual=SystemResidual(
            r.velocity * scale, r.density * scale, r.stress * scale))

    code, summary = _run_with_audit(tmp_path, monkeypatch, edit)
    assert summary["system_residual"] == pytest.approx(target, rel=1e-12)
    assert summary["checks"]["system_residual"] is holds
    assert code == (0 if holds else 4)


@pytest.mark.parametrize("sup_scale", [1.0, 1e3], ids=["sup-below-1",
                                                       "sup-above-1"])
@pytest.mark.parametrize("eta, holds", EDGES, ids=EDGE_IDS)
def test_density_mean_gate_edge(tmp_path, monkeypatch, eta, holds,
                                sup_scale):
    # the measured mean set to 1e-12 max(1, sup |sigma|) (1 + eta); the
    # audit table's L2 column, scaled by 1e3, puts sup |sigma| above 1
    target = []

    def edit(audit):
        pi = audit.table.pi * [[sup_scale, 1.0, 1.0]]
        sup = pi[:, 0].max()
        assert bool(sup > 1.0) is (sup_scale > 1.0)
        target.append(1e-12 * max(1.0, sup) * (1.0 + eta))
        return dataclasses.replace(
            audit, table=dataclasses.replace(audit.table, pi=pi))

    monkeypatch.setattr(harness, "mean", lambda f: target[0])
    code, summary = _run_with_audit(tmp_path, monkeypatch, edit)
    assert summary["mean_sigma_max"] == target[0]
    assert summary["checks"]["density_mean_zero"] is holds
    assert code == (0 if holds else 4)


@pytest.fixture(scope="module")
def rest_window():
    """A converged QUICK window that starts at rest, its audit and the
    whole-grid forcings its energy checks read."""
    cfg = parse_config(QUICK + "ic.velocity = zero\n")
    _, params, u0, s0, t0 = build_initial_data(cfg)
    sol, _ = iterate(u0, s0, t0, params, cfg.T, cfg.dt)
    return cfg, params, audit_window(sol, params), window_forcings(sol,
                                                                   params)


def test_energy_gate_slack_is_ten_dt(rest_window):
    # a window that starts at rest has no initial strain, so the forcing
    # integral is the whole right side; scaling the forcings puts the
    # ratio lhs / rhs just past and just inside 1 + 10 dt
    cfg, params, audit, forcings = rest_window
    base = audit.energy
    assert base.rhs_history[0] == 0.0 and base.rhs > 0.0
    residual_norms = [r.residual_norm for r in audit.diag.velocity_reports]
    for eta, holds in EDGES:
        target = base.lhs / ((1.0 + 10.0 * cfg.dt) * (1.0 + eta))
        scale = np.sqrt(target / base.rhs)
        energy = check_energy_budget(
            audit.table, audit.out.w, [F * scale for F in forcings],
            params, residual_norms)
        assert energy.lhs == base.lhs
        assert energy.rhs == pytest.approx(target, rel=1e-12)
        assert energy.satisfied is holds, eta


def test_dissipation_gate_edge(rest_window):
    # each step's lhs <= rhs + 1e-11 max(1, |lhs|, |rhs|).  With the
    # residual terms zeroed, rhs is <F_n, u_n>; scaling each step's forcing
    # on its own puts every step's lhs 1e-6 relative past and inside its
    # bound.  Every side is below 1 on this window, so the bound is rhs + 1e-11
    _, params, audit, forcings = rest_window
    us = audit.out.w
    zero = [0.0] * (len(us) - 1)
    rhs = [inner(F, u) for F, u in zip(forcings[1:], us[1:])]
    lhs = [r - s for r, s in zip(rhs, check_energy_budget(
        audit.table, us, forcings, params, zero).dissipation_slack)]
    assert all(0.0 < x < 1.0 and 0.0 < r < 1.0 for x, r in zip(lhs, rhs))
    for eta, holds in EDGES:
        target = [x / (1.0 + eta) - 1e-11 for x in lhs]
        scaled = [forcings[0]] + [F * (t / r) for F, t, r in
                                  zip(forcings[1:], target, rhs)]
        energy = check_energy_budget(audit.table, us, scaled, params, zero)
        assert energy.dissipation_slack == pytest.approx(
            [t - x for t, x in zip(target, lhs)], rel=1e-6)
        assert energy.dissipation_satisfied is holds, eta


@pytest.mark.parametrize("eta, holds", [(1e-6, True), (-1e-6, False)],
                         ids=["inside", "past"])
def test_mms_gate_edges(tmp_path, monkeypatch, eta, holds):
    # every study's measured errors replaced by a dyadic ladder whose
    # observed orders are its least order (1 + eta), and the exact study's
    # by 1e-12 (1 - eta): each study's gate sits 1e-6 relative inside or past
    real = mms.StudyResult
    least = {"velocity diffusion, space": 1.8,
             "velocity diffusion, time": 0.9,
             "density advection, vortex": 0.9,
             "stress relaxation, time": 0.9}

    def edge(*, name, errors, exact=False, **kw):
        errors = ([1e-12 * (1.0 - eta)] * len(errors) if exact else
                  [2.0 ** (-least[name] * (1.0 + eta) * i)
                   for i in range(len(errors))])
        return real(name=name, errors=errors, exact=exact, **kw)

    monkeypatch.setattr(mms, "StudyResult", edge)
    code, summary = _cli(tmp_path, "mms", "")
    assert code == (0 if holds else 4)
    assert list(summary["checks"].values()) == [holds] * 5
    graded = [st for st in summary["studies"] if not st["exact"]]
    assert sorted({st["threshold"] for st in graded}) == [0.9, 1.8]
    for st in graded:
        assert st["orders"] == pytest.approx(
            [st["threshold"] * (1.0 + eta)] * (len(st["errors"]) - 1),
            rel=1e-12)


@pytest.mark.parametrize("ratio, linear", [
    (2.0 / 1.5 * (1.0 - 1e-6), False), (2.0 / 1.5 * (1.0 + 1e-6), True),
    (2.0 * 1.5 * (1.0 - 1e-6), True), (2.0 * 1.5 * (1.0 + 1e-6), False)],
    ids=["below-low-edge", "above-low-edge", "below-high-edge",
         "above-high-edge"])
def test_probe_band_edges(monkeypatch, ratio, linear):
    # a sweep whose output gap grows as amplitude**p halves its gap by
    # 2**p = ratio per halving of the amplitude
    _, _, u0, s0, t0 = build_initial_data(RunConfig(grid_n=8))
    base = IterTriple.constant(u0, s0, t0, 2, 1e-3)
    shapes = _probe_shapes(base.grid)
    p = np.log2(ratio)

    def sweep(inp, params, tol_lin=None):
        amp = np.abs(inp.w[-1].values - base.w[-1].values).max()
        return _perturb(base, amp ** p, shapes, "wps"), None

    monkeypatch.setattr(fixed_point, "picard_sweep", sweep)
    rep = continuity_probe(base, 1e-3, None)
    assert rep.shrink_ratios == pytest.approx((ratio, ratio), rel=1e-9)
    assert rep.linear_ok is linear


@pytest.mark.parametrize("eta, holds", EDGES, ids=EDGE_IDS)
def test_identical_data_envelope_edge(eta, holds):
    # equal node-0 data, and the second trajectory offset at nodes k >= 1
    # (a ramp that vanishes at node 0) so that its largest gap energy is
    # (10 tol_fp)^2 (1 + eta)
    _, params, u0, s0, t0 = build_initial_data(RunConfig(grid_n=8))
    base = IterTriple.constant(u0, s0, t0, 3, 1e-3)
    shapes = _probe_shapes(base.grid)
    budget = (10.0 * TOL_FP) ** 2
    unit = max(_gap_energies(base, _perturb(base, 1.0, shapes, "wps"),
                             params))
    second = _perturb(base, np.sqrt(budget * (1.0 + eta) / unit), shapes,
                      "wps")
    tables = [trajectory_norms(x.w, x.pi, x.psi, x.dt)
              for x in (base, second)]
    rep = uniqueness_experiment(base, tables[0], second, tables[1], 1.0,
                                params)
    assert rep.identical
    assert max(rep.gap_energy) == pytest.approx(budget * (1.0 + eta),
                                                rel=1e-9)
    assert rep.satisfied is holds
