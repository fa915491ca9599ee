"""Traced CLI process: python3 runner.py SPANS_FILE ARGS...

Times `import levelscope.cli` as a root span named "import", installs the
tracer's wrappers, runs levelscope.cli.main(ARGS) and exits with its code.
The spans are written to SPANS_FILE once, at the end. The process prints
nothing of its own, so its stdout is the CLI's.
"""

import sys
import time

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import levelscope.cli

    t1 = time.perf_counter_ns()
    import tracer

    tr = tracer.Tracer()
    tr.record("import", t0, t1)
    tr.install()
    try:
        rc = levelscope.cli.main(argv)
    finally:
        sys.stdout.flush()
        tr.dump(spans_path)
    sys.exit(rc)
