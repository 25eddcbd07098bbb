"""Layer spans: which oldroydb functions are wrapped, and what they add up to.

A span is recorded around each call of a function listed in ``TARGETS``.
The wrapper replaces every binding of the function object in every loaded
``oldroydb`` module, so each caller is traced at the name it looks the
function up by (``oldroydb.fixed_point.step_velocity``,
``oldroydb.velocity.step_velocity``, ...). Nothing in the program changes.
"""

import functools
import itertools
import sys
import threading
import time

# (span name, defining module, attribute); several targets may share a span
TARGETS = [
    ("velocity.solve", "velocity", "step_velocity"),
    ("velocity.audit", "velocity", "check_energy_budget"),
    ("velocity.audit", "velocity", "check_regularity_budget"),
    ("velocity.audit", "velocity", "check_step_dissipation"),
    ("fields.viscous_operator", "fields", "viscous_operator"),
    ("fields.norm", "fields", "norm"),
    ("transport.trace", "transport", "trace"),
    ("transport.density", "transport", "step_density"),
    ("transport.stress", "transport", "step_stress"),
    ("transport.audit", "transport", "check_density_bounds"),
    ("transport.audit", "transport", "check_stress_bounds"),
    ("rheology.source", "rheology", "momentum_source"),
    ("rheology.coupling", "rheology", "objective_coupling"),
    ("fixed_point.sweep", "fixed_point", "picard_sweep"),
    ("fixed_point.forcing", "fixed_point", "assemble_forcing"),
    ("fixed_point.membership", "fixed_point", "check_membership"),
    ("fixed_point.distance", "fixed_point", "trajectory_distance"),
    ("fixed_point.iterate", "fixed_point", "iterate"),
    ("fixed_point.gap_energy", "fixed_point", "uniqueness_experiment"),
    ("mms.velocity_space", "mms", "velocity_spatial_study"),
    ("mms.velocity_time", "mms", "velocity_temporal_study"),
    ("mms.density_advection", "mms", "density_advection_study"),
    ("mms.density_still", "mms", "density_still_study"),
    ("mms.stress_relaxation", "mms", "stress_relaxation_study"),
    ("harness.setup", "harness", "build_initial_data"),
    ("harness.artifacts", "harness", "EnergyLedger.write"),
    ("harness.artifacts", "harness", "_write_csv"),
    ("harness.artifacts", "fields", "save_snapshot"),
    ("cli.summary", "cli", "_write_summary"),
    ("cli.summary", "cli", "_print_run"),
    ("cli.summary", "cli", "_print_mms"),
    ("cli.summary", "cli", "_print_uniqueness"),
]

# the first call of any of these ends set-up: the first sweep or study
FIRST_WORK = [("fixed_point", "picard_sweep"),
              ("mms", "velocity_spatial_study"),
              ("mms", "velocity_temporal_study"),
              ("mms", "density_advection_study"),
              ("mms", "density_still_study"),
              ("mms", "stress_relaxation_study")]

# per-span extra figure summed into a metric: CG iterations of a step
# (0 if the step report stops carrying them, rather than failing the run)
EXTRA = {"velocity.solve":
         lambda result: getattr(result[1], "iterations", 0)}

# per-layer metric -> (kind, span names); kind is calls, seconds or extra.
# Seconds are inclusive: a span's whole duration, child spans included.
METRICS = {
    "velocity.solves": ("calls", ["velocity.solve"]),
    "velocity.solve_s": ("seconds", ["velocity.solve"]),
    "velocity.cg_iters": ("extra", ["velocity.solve"]),
    "velocity.audit_s": ("seconds", ["velocity.audit"]),
    "fields.viscous_operator_calls": ("calls", ["fields.viscous_operator"]),
    "fields.viscous_operator_s": ("seconds", ["fields.viscous_operator"]),
    "fields.norm_calls": ("calls", ["fields.norm"]),
    "fields.norm_s": ("seconds", ["fields.norm"]),
    "transport.steps": ("calls", ["transport.density", "transport.stress"]),
    "transport.trace_s": ("seconds", ["transport.trace"]),
    "transport.density_s": ("seconds", ["transport.density"]),
    "transport.stress_s": ("seconds", ["transport.stress"]),
    "transport.audit_s": ("seconds", ["transport.audit"]),
    "rheology.source_s": ("seconds", ["rheology.source"]),
    "rheology.coupling_calls": ("calls", ["rheology.coupling"]),
    "rheology.coupling_s": ("seconds", ["rheology.coupling"]),
    "fixed_point.sweeps": ("calls", ["fixed_point.sweep"]),
    "fixed_point.forcing_s": ("seconds", ["fixed_point.forcing"]),
    "fixed_point.membership_s": ("seconds", ["fixed_point.membership"]),
    "fixed_point.distance_s": ("seconds", ["fixed_point.distance"]),
    "fixed_point.iterate_s": ("seconds", ["fixed_point.iterate"]),
    "fixed_point.gap_energy_s": ("seconds", ["fixed_point.gap_energy"]),
    "mms.velocity_space_s": ("seconds", ["mms.velocity_space"]),
    "mms.velocity_time_s": ("seconds", ["mms.velocity_time"]),
    "mms.density_advection_s": ("seconds", ["mms.density_advection"]),
    "mms.density_still_s": ("seconds", ["mms.density_still"]),
    "mms.stress_relaxation_s": ("seconds", ["mms.stress_relaxation"]),
    "harness.setup_s": ("seconds", ["harness.setup"]),
    "harness.artifacts_s": ("seconds", ["harness.artifacts"]),
    "cli.import_s": ("seconds", ["cli.import"]),
    "cli.summary_s": ("seconds", ["cli.summary"]),
}

# counts that must repeat exactly between runs of one code and seed
GUARDED = ("velocity.solves", "velocity.cg_iters",
           "fields.viscous_operator_calls", "fixed_point.sweeps",
           "fields.norm_calls")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "oldroydb" or name.startswith("oldroydb."))]


def rebind(module, attribute, make_wrapper):
    """Replace ``module.attribute`` everywhere it is bound in the package.

    ``attribute`` may be ``Class.method``. Returns the number of bindings
    replaced; 0 means the program no longer has that function.
    """
    owner = sys.modules.get(f"oldroydb.{module}")
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, leaf, None)
    if original is None:
        return 0
    wrapper = make_wrapper(original)
    if path:
        setattr(owner, leaf, wrapper)
        return 1
    count = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                count += 1
    return count


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent, thread, extra)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrapper(self, name, extra=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                sid = next(ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                value = 0
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if extra is not None:
                        value = extra(result)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, name, start, end, parent,
                                  threading.get_ident(), value))
            return traced
        return make

    def add(self, name, start, end):
        """A span measured by hand, such as the package import."""
        self.spans.append((next(self._ids), name, start, end, None,
                           threading.get_ident(), 0))

    def install(self):
        """Wrap every target; returns the targets the program lacks."""
        missing = []
        for name, module, attribute in TARGETS:
            if not rebind(module, attribute,
                          self.wrapper(name, EXTRA.get(name))):
                missing.append(f"{module}.{attribute}")
        return missing


def aggregate(spans):
    """Per-layer metrics and per-span self time from one traced run.

    A span counts towards ``seconds`` only when no enclosing span has the
    same name, so a layer is never counted twice inside itself.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    calls, seconds, extra, self_s = {}, {}, {}, {}
    for s in spans:
        sid, name, start, end, parent = s[:5]
        calls[name] = calls.get(name, 0) + 1
        extra[name] = extra.get(name, 0) + s[6]
        self_s[name] = self_s.get(name, 0.0) + (end - start) \
            - child_time.get(sid, 0.0)
        outer = True
        while parent is not None:
            up = by_id[parent]
            if up[1] == name:
                outer = False
                break
            parent = up[4]
        if outer:
            seconds[name] = seconds.get(name, 0.0) + (end - start)

    table = {"calls": calls, "seconds": seconds, "extra": extra}
    metrics = {metric: sum(table[kind].get(n, 0) for n in names)
               for metric, (kind, names) in METRICS.items()}
    return metrics, self_s
