"""One benchmark invocation, in a fresh interpreter started by run.py.

    python3 child.py MODE ROOT RESULT ARGS...

MODE is `run` (ARGS is a gmsim command line, passed to gmsim.cli.run_cli),
`trace` (the same, with spans recorded around every layer) or `setup`
(ARGS is a config path: import gmsim, parse and validate it, stop).
gmsim is imported from ROOT/src. RESULT receives the exit code of run_cli,
the monotonic time at which set-up ended and at which run_cli returned,
ru_maxrss, and in trace mode the spans.
"""

import json
import os
import resource
import sys
import time

import spans


def main():
    mode, root, result_path, *args = sys.argv[1:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import gmsim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"gmsim was imported from {cli.__file__}, not from {src}")
    result = {}
    if mode == "setup":
        with open(args[0]) as fh:
            cli.validate_potentials(cli.parse_config(fh.read()))
        result["setup_end"] = time.perf_counter()
    else:
        tracer = spans.Tracer() if mode == "trace" else None
        restore = spans.install(tracer) if tracer else None
        validate = cli.validate_potentials

        def stamped(*a, **kw):
            out = validate(*a, **kw)
            result.setdefault("setup_end", time.perf_counter())
            return out

        cli.validate_potentials = stamped
        try:
            result["exit"] = cli.run_cli(args)
            result["end"] = time.perf_counter()
        finally:
            cli.validate_potentials = validate
            if restore:
                restore()
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        fh.write(json.dumps(result))


if __name__ == "__main__":
    main()
