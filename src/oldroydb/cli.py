"""Command-line front end: run | mms | uniqueness | probe.

Every invocation, success or failure, leaves a machine-readable
``summary.json`` in the output directory, unless that directory cannot be
created (exit 2, the reason on stderr).  A driver returns ``checks``, each
check's verdict by name (`uniqueness` gates only identical data: its fitted
envelope closes by construction); `main` alone derives ``failed_checks``.
Exit codes: 0 all checks pass, 2 configuration problem, 3 solver failure,
4 invariant violation.  Failures of kinds 3 and 4 also record
``failed_timestep``, the step that failed or null if none did, and, when
the failure carries them, ``distance_history`` and ``failed_sweep``.
"""

import argparse
import json
import math
import os
import sys

from .errors import (ConfigError, InvariantViolation, LinearSolveError,
                     NonConvergenceError, SingularStressSystemError)
from .harness import (RunConfig, config_as_dict, load_config,
                      mms_experiment, probe_experiment, run_experiment,
                      uniqueness_pair_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

_SOLVER_FAILURES = (NonConvergenceError, LinearSolveError,
                    SingularStressSystemError)


def _parser(commands) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oldroydb",
        description="Fixed-point solver and estimate checks for a weakly "
                    "compressible viscoelastic flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="flat 'section.key = value' file; "
                            "defaults apply when omitted")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="accepted for compatibility and has no "
                            "effect: sub-runs always run in sequence")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides output.dir)")
    return parser


def _jsonable(obj):
    # numpy scalars and arrays straggle in from the report dataclasses
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_summary(out_dir, payload):
    """Write ``summary.json``; None when ``out_dir`` cannot be created."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError:
        return None
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _failure_record(exc) -> dict:
    """The step, the sweep and the distance history a failure carries."""
    record = {"failed_timestep": getattr(exc, "timestep", None)}
    history = getattr(exc, "history", None)
    if history is not None:
        record["distance_history"] = [d if math.isfinite(d) else None
                                      for d in history]
    if hasattr(exc, "failed_sweep"):
        record["failed_sweep"] = exc.failed_sweep
    return record


def _print_membership(mem, label="membership") -> None:
    print(f"{label}: {'pass' if mem['passed'] else 'FAIL'} "
          f"(slack_min {mem['slack_min']:.3f}, density range "
          f"[{mem['density_min']:.6g}, {mem['density_max']:.6g}])")


def _print_sweeps(sweeps, label="march") -> None:
    print(f"{label}: {sweeps['local']} local sweeps, "
          f"{sweeps['certifying']} certifying")


def _print_run(payload) -> None:
    print(f"converged in {payload['iterations']} sweeps; system residual "
          f"{payload['system_residual']:.3e}")
    _print_membership(payload["membership"])
    en, ok = payload["energy"], payload["checks"]["energy_budget"]
    print(f"energy budget: {'pass' if ok else 'FAIL'} "
          f"(lhs {en['lhs']:.6g} vs rhs {en['rhs']:.6g})")
    cons = payload["constants"]
    c1 = "vacuous" if cons["c1_vacuous"] else f"{cons['c1_emp']:.6g}"
    print(f"fitted constants: c1_emp {c1}, "
          f"c_domain {cons['c_domain_density']:.6g}")
    for name, ok in sorted(payload["checks"].items()):
        print(f"  [{'ok' if ok else 'VIOLATED'}] {name}")


def _print_mms(payload) -> None:
    width = max(len(st["name"]) for st in payload["studies"]) + 2
    print(f"{'study':<{width}}{'ladder':<26}{'orders':<16}status")
    for st in payload["studies"]:
        ladder = ", ".join(str(lab) for lab in st["labels"])
        status = "pass" if payload["checks"][st["name"]] else "FAIL"
        gate = "round-off" if st["exact"] else f">= {st['threshold']:.2g}"
        print(f"{st['name']:<{width}}{ladder:<26}"
              f"{st['orders_text']:<16}{status} ({gate})")


def _print_uniqueness(payload) -> None:
    if payload["identical"]:
        ok = payload["checks"]["gronwall_envelope"]
        print("identical data: final gap energy "
              f"{payload['gap_energy_final']:.3e}; envelope "
              f"{'satisfied' if ok else 'VIOLATED'}")
    else:
        print(f"gap constant c12 = {payload['c12']:.6g} (fitted); "
              f"max energy/envelope ratio {payload['max_ratio']:.6f}")
        print("the fitted envelope closes by construction: not a check")
    print(f"delta = {payload['delta']:.6g} "
          f"(threshold {payload['delta_cap']:.6g})")
    for solve, mem in payload["membership"].items():
        _print_membership(mem, f"membership of the {solve} solve")
        _print_sweeps(payload["sweeps"][solve], f"march of the {solve} solve")


def _print_probe(payload) -> None:
    print("perturbation amplitudes and output gaps:")
    for d, g in zip(payload.get("deltas", []), payload["gaps"]):
        print(f"  {d:.3e} -> {g:.3e}")
    if payload["shrink_ratios"]:
        ratios = ", ".join(f"{r:.3f}" for r in payload["shrink_ratios"])
        print(f"gap shrink ratios per halving: {ratios}")
    print("linear response: "
          + ("yes" if payload["checks"]["probe_linearity"] else "NO"))
    _print_membership(payload["membership"])
    _print_sweeps(payload["sweeps"])


def _commands() -> dict:
    """Command name -> (help text, driver, printer).

    Built at call time from the module globals, so a rebinding of a driver
    or printer (a tracer, a test) takes effect.  A driver takes
    ``(cfg, out_dir)`` and returns its payload, with each check's name and
    verdict under ``checks``; a printer takes the payload.
    """
    return {
        "run": ("converge one window and check every estimate",
                run_experiment, _print_run),
        "mms": ("manufactured-solution refinement studies",
                mms_experiment, _print_mms),
        "uniqueness": ("two-run gap energy against its growth envelope",
                       uniqueness_pair_experiment, _print_uniqueness),
        "probe": ("input-perturbation linearity of one sweep",
                  probe_experiment, _print_probe),
    }


def main(argv=None) -> int:
    commands = _commands()
    args = _parser(commands).parse_args(argv)
    _, driver, printer = commands[args.command]
    out_dir = args.out or RunConfig.out_dir
    payload = {"command": args.command, "status": "config-error",
               "exit_code": EXIT_CONFIG, "error": None}
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out:
            cfg.out_dir = args.out
        out_dir = cfg.out_dir
        payload["config"] = config_as_dict(cfg)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot create output directory "
                              f"{out_dir!r}: {exc.strerror}") from None
        payload.update(driver(cfg, out_dir))
        failed = sorted(n for n, ok in payload["checks"].items() if not ok)
        payload.update(failed_checks=failed,
                       status="invariant-violation" if failed else "ok",
                       exit_code=EXIT_INVARIANT if failed else EXIT_OK)
    except ConfigError as exc:  # status and exit code keep their defaults
        payload["error"] = str(exc)
    except _SOLVER_FAILURES as exc:
        payload.update(status="solver-failure", error=str(exc),
                       exit_code=EXIT_SOLVER, **_failure_record(exc))
    except InvariantViolation as exc:
        payload.update(status="invariant-violation", error=str(exc),
                       exit_code=EXIT_INVARIANT, **_failure_record(exc))

    summary_path = _write_summary(out_dir, payload)

    if payload["error"] is not None:
        print(f"{payload['status']}: {payload['error']}", file=sys.stderr)
    else:
        printer(payload)
    if summary_path is not None:
        print(f"summary: {summary_path}")
    return payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
