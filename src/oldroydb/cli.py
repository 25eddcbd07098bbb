"""Command-line front end: run | mms | uniqueness | probe.

Every invocation, success or failure, leaves a machine-readable
``summary.json`` in the output directory naming any violated invariant.
Exit codes: 0 all checks pass, 2 configuration problem, 3 solver failure,
4 invariant violation.  Failures of kinds 3 and 4 also record
``failed_timestep``, the step that failed or null if none did.
"""

import argparse
import json
import os
import sys

from .errors import (ConfigError, DensityBandError, InvariantViolation,
                     LinearSolveError, NonConvergenceError,
                     SingularStressSystemError)
from .harness import (RunConfig, config_as_dict, load_config,
                      mms_experiment, probe_experiment, run_experiment,
                      uniqueness_pair_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

_SOLVER_FAILURES = (NonConvergenceError, LinearSolveError,
                    SingularStressSystemError)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oldroydb",
        description="Fixed-point solver and estimate checks for a weakly "
                    "compressible viscoelastic flow")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("run", "converge one window and check every estimate"),
        ("mms", "manufactured-solution refinement studies"),
        ("uniqueness", "two-run gap energy against its growth envelope"),
        ("probe", "input-perturbation linearity of one sweep"),
    ]
    for name, help_text in commands:
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


def _write_summary(out_dir, payload) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _print_run(payload) -> None:
    print(f"converged in {payload['iterations']} sweeps; system residual "
          f"{payload['system_residual']:.3e}")
    ratios = [r for r in payload["contraction_ratios"] if r is not None]
    if ratios:
        print(f"contraction ratio: worst {max(ratios):.3f}")
    mem = payload["membership"]
    print(f"membership: {'pass' if mem['passed'] else 'FAIL'} "
          f"(slack_min {mem['slack_min']:.3f}, density range "
          f"[{mem['density_min']:.6g}, {mem['density_max']:.6g}])")
    en = payload["energy"]
    print(f"energy budget: {'pass' if en['satisfied'] else 'FAIL'} "
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
        status = "pass" if st["passed"] else "FAIL"
        gate = ("round-off" if st["exact"]
                else f">= {st['threshold']:.2g}")
        print(f"{st['name']:<{width}}{ladder:<26}"
              f"{st['orders_text']:<16}{status} ({gate})")


def _print_uniqueness(payload) -> None:
    if payload["identical"]:
        print("identical data: gap energy at solver-tolerance level "
              f"(final {payload['gap_energy_final']:.3e})")
    else:
        fitted = "fitted" if payload["c12_fitted"] else "held"
        print(f"gap constant c12 = {payload['c12']:.6g} ({fitted}); "
              f"max energy/envelope ratio {payload['max_ratio']:.6f}")
    print(f"envelope {'satisfied' if payload['satisfied'] else 'VIOLATED'} "
          f"with delta = {payload['delta']:.6g} "
          f"(threshold {payload['delta_cap']:.6g})")


def _print_probe(payload) -> None:
    print("perturbation amplitudes and output gaps:")
    for d, g in zip(payload.get("deltas", []), payload["gaps"]):
        print(f"  {d:.3e} -> {g:.3e}")
    if payload["shrink_ratios"]:
        ratios = ", ".join(f"{r:.3f}" for r in payload["shrink_ratios"])
        print(f"gap shrink ratios per halving: {ratios}")
    print("linear response: "
          + ("yes" if payload["linear_ok"] else "NO"))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = args.out or "out"
    payload = {"command": args.command, "status": "config-error",
               "exit_code": EXIT_CONFIG, "error": None}
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out:
            cfg.out_dir = args.out
        out_dir = cfg.out_dir
        payload["config"] = config_as_dict(cfg)

        if args.command == "run":
            result = run_experiment(cfg, out_dir)
        elif args.command == "mms":
            result = mms_experiment(cfg, out_dir)
        elif args.command == "uniqueness":
            result = uniqueness_pair_experiment(cfg, out_dir)
        else:
            result = probe_experiment(cfg, out_dir)
        payload.update(result)
        payload["error"] = None
        payload["exit_code"] = (EXIT_OK if payload["status"] == "ok"
                                else EXIT_INVARIANT)
    except ConfigError as exc:
        payload["status"] = "config-error"
        payload["error"] = str(exc)
        payload["exit_code"] = EXIT_CONFIG
    except _SOLVER_FAILURES as exc:
        payload["status"] = "solver-failure"
        payload["error"] = str(exc)
        payload["exit_code"] = EXIT_SOLVER
        history = getattr(exc, "history", None)
        if history:
            payload["distance_history"] = list(history)
        payload["failed_timestep"] = getattr(exc, "timestep", None)
    except (DensityBandError, InvariantViolation) as exc:
        payload["status"] = "invariant-violation"
        payload["error"] = str(exc)
        payload["exit_code"] = EXIT_INVARIANT
        payload["failed_timestep"] = getattr(exc, "timestep", None)

    summary_path = _write_summary(out_dir, payload)

    if payload["error"] is not None:
        print(f"{payload['status']}: {payload['error']}", file=sys.stderr)
    elif args.command == "run":
        _print_run(payload)
    elif args.command == "mms":
        _print_mms(payload)
    elif args.command == "uniqueness":
        _print_uniqueness(payload)
    else:
        _print_probe(payload)
    print(f"summary: {summary_path}")
    return payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
