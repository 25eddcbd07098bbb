"""oldroydb benchmark: four CLI workloads, timed end to end or traced.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from the root of a source checkout. Every operation is one fresh
``oldroydb`` CLI process (``PYTHONPATH=src``, ``OPENBLAS_NUM_THREADS=1``);
its outputs are checked before it counts as done. ``--trace 0`` repeats the
operation until ``--seconds`` have passed and reports the median wall time,
set-up time, CPU time and peak RSS. ``--trace 1`` runs the operation once
untraced and twice traced and reports the per-layer metrics. The last line
of standard output is one JSON object (``--workload all`` prints one line
per workload, each led by its name); the exit code is 1 when any operation
failed and 2 when the checkout cannot run the benchmark at all.
"""

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")
WORK = ".perfbench_work"
OP_TIMEOUT_S = 150.0


def _config(name):
    return os.path.join(CONFIGS, name)


# workload -> (command, CLI arguments); why each is here is in README.md
WORKLOADS = {
    "run2d-n64": ("run", ["--config", _config("run2d-n64.cfg")]),
    "run3d-n16": ("run", ["--config", _config("run3d-n16.cfg")]),
    "uniqueness2d": ("uniqueness",
                     ["--jobs", "2", "--config", _config("uniqueness2d.cfg")]),
    "mms": ("mms", ["--jobs", "1", "--config", _config("mms2d.cfg")]),
}


@dataclasses.dataclass
class Operation:
    """One finished CLI process: its resource use and its problems."""

    wall_s: float
    setup_s: float  # None when the process never reached a sweep or study
    cpu_s: float
    peak_rss_mb: float
    problems: list
    out_dir: str


def _env(seed):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OLDROYD_SEED"] = str(seed)
    return env


def _wait(proc, timeout):
    """Reap ``proc`` with its own rusage; kill it after ``timeout``."""
    reaped = threading.Event()

    def kill():
        if not reaped.is_set():
            proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        reaped.set()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_operation(workload, out_dir, env, trace_path=None, jobs=None):
    """Start one CLI process, wait for it and check what it wrote."""
    command, args = WORKLOADS[workload]
    if jobs is not None:
        args = list(args)
        args[args.index("--jobs") + 1] = str(jobs)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    marker = out_dir + ".mark"
    argv = [sys.executable, os.path.join(HERE, "launch.py"), marker,
            trace_path or "-", command, *args, "--out", out_dir]
    with open(out_dir + ".stderr", "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        code, usage = _wait(proc, OP_TIMEOUT_S)
        end = time.monotonic()
    problems = checks.check_operation(command, out_dir, code)
    setup_s = None
    try:
        with open(marker, encoding="utf-8") as fh:
            first = json.load(fh)["first_work"]
        if first is None:
            problems.append("no sweep or study started")
        else:
            setup_s = first - start
    except (OSError, ValueError) as exc:
        problems.append(f"no set-up marker: {exc}")
    if problems:
        with open(out_dir + ".stderr", encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"{workload}: operation failed: {'; '.join(problems)}\n{tail}",
              file=sys.stderr)
    return Operation(end - start, setup_s, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, problems, out_dir)


def _gronwall(out_dir):
    with open(os.path.join(out_dir, "gronwall.csv"), "rb") as fh:
        return fh.read()


def jobs_reference(workload, env):
    """gronwall.csv under ``--jobs 1``, which ``--jobs 2`` must reproduce."""
    if WORKLOADS[workload][0] != "uniqueness":
        return None
    op = run_operation(workload, os.path.join(WORK, "jobs1"), env, jobs=1)
    return b"" if op.problems else _gronwall(op.out_dir)


def check_jobs(op, reference):
    if reference is None or op.problems:
        return
    if not reference or _gronwall(op.out_dir) != reference:
        op.problems.append("gronwall.csv differs between --jobs 1 and 2")
        print("uniqueness2d: gronwall.csv differs between --jobs 1 and 2",
              file=sys.stderr)


def timed(workload, env, seconds, reference):
    """Whole operations, started until ``seconds`` have passed."""
    ops = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        op = run_operation(workload, os.path.join(WORK, f"op{len(ops)}"), env)
        check_jobs(op, reference)
        ops.append(op)
    metrics = {
        "wall_s": (statistics.median(o.wall_s for o in ops), "s"),
        "setup_s": (statistics.median([o.setup_s for o in ops
                                       if o.setup_s is not None] or [0.0]),
                    "s"),
        "cpu_s": (statistics.median(o.cpu_s for o in ops), "s"),
        "peak_rss_mb": (statistics.median(o.peak_rss_mb for o in ops), "MB"),
    }
    return ops, metrics


def _artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir) if name != "summary.json")


def traced(workload, env, reference):
    """One untraced operation, then two traced ones for the layer figures."""
    base = run_operation(workload, os.path.join(WORK, "untraced"), env)
    check_jobs(base, reference)
    ops, per_run = [base], []
    for i in range(2):
        spans_path = os.path.join(WORK, f"spans{i}.json")
        op = run_operation(workload, os.path.join(WORK, f"traced{i}"), env,
                           trace_path=spans_path)
        check_jobs(op, reference)
        ops.append(op)
        try:
            with open(spans_path, encoding="utf-8") as fh:
                spans = [tuple(s) for s in json.load(fh)]
        except (OSError, ValueError) as exc:
            op.problems.append(f"no spans: {exc}")
            spans = []
        figures, self_s = layers.aggregate(spans)
        figures["harness.artifact_bytes"] = _artifact_bytes(op.out_dir)
        per_run.append((op, figures, self_s))

    first, second = per_run[0][1], per_run[1][1]
    moved = [f"{k}: {first[k]} then {second[k]}" for k in layers.GUARDED
             if first[k] != second[k]]
    if moved:
        print(f"{workload}: guarded counts differ between two runs of the "
              f"same code and seed: {'; '.join(moved)}", file=sys.stderr)
        for op, _, _ in per_run:
            op.problems.append("guarded counts differ")

    metrics = {}
    for name, (kind, _) in layers.METRICS.items():
        values = [figures[name] for _, figures, _ in per_run]
        metrics[name] = ((statistics.median(values), "s") if kind == "seconds"
                         else (values[0], "count"))
    metrics["harness.artifact_bytes"] = (first["harness.artifact_bytes"], "B")
    overhead = (statistics.median(op.wall_s for op, _, _ in per_run)
                - base.wall_s)
    metrics["trace.overhead_s"] = (overhead, "s")

    self_s = per_run[0][2]
    total = sum(self_s.values()) or 1.0
    print(f"{workload}: self time of the first traced run, summed over "
          f"threads ({total:.2f} s traced, wall {per_run[0][0].wall_s:.2f} s)",
          file=sys.stderr)
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<26}{value:9.3f} s {100.0 * value / total:6.1f}%",
              file=sys.stderr)
    return ops, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "oldroydb", "cli.py")):
        print("run.py: no src/oldroydb here; run from the root of an "
              "oldroydb source checkout", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    env = _env(args.seed)
    # compile the package and load the libraries once, untimed
    warm = subprocess.run([sys.executable, "-c", "import oldroydb.cli"],
                          env=env, timeout=OP_TIMEOUT_S)
    if warm.returncode != 0:
        print("run.py: the oldroydb package does not import",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    any_failed = False
    for name in names:
        reference = jobs_reference(name, env)
        if args.trace:
            ops, metrics = traced(name, env, reference)
        else:
            ops, metrics = timed(name, env, args.seconds, reference)
        failed = sum(1 for op in ops if op.problems)
        any_failed = any_failed or failed > 0
        line = json.dumps({
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()},
        })
        print(line if len(names) == 1 else f"{name}: {line}", flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
