"""Run one oldroydb CLI command, marking when set-up ends.

usage: python3 launch.py MARKER_JSON TRACE_JSON|- CLI_ARGS...

The marker file receives the monotonic time of the first sweep or study
(the end of set-up). With a trace path, every layer in ``layers.TARGETS``
is wrapped as well and the spans are written there when the command ends.
The exit code is the CLI's own.
"""

import json
import sys
import time

import layers


def main():
    marker_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import_start = time.perf_counter()
    import oldroydb.cli as cli
    import_end = time.perf_counter()

    tracer = None
    if trace_path != "-":
        tracer = layers.Tracer()
        tracer.add("cli.import", import_start, import_end)
        for target in tracer.install():
            print(f"launch: no {target} to trace", file=sys.stderr)

    first = []

    def mark(fn):
        def marked(*args, **kwargs):
            if not first:
                first.append(time.monotonic())
            return fn(*args, **kwargs)
        return marked

    for module, attribute in layers.FIRST_WORK:
        layers.rebind(module, attribute, mark)

    try:
        code = cli.main(argv)
    finally:
        with open(marker_path, "w", encoding="utf-8") as fh:
            json.dump({"first_work": first[0] if first else None}, fh)
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
