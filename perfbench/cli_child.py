"""Run one ``osls`` command with spans recorded, for the benchmark's traced passes.

Usage: python3 cli_child.py SPAWNED_AT TRACE_OUT SRC_DIR -- COMMAND ARGS...

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started this
process; the clock is system-wide, so import-done minus SPAWNED_AT is the
interpreter start plus ``import osls.cli``. The spans, counts and that
start-up time are written to TRACE_OUT as JSON, and the command's exit code
is this process's exit code.
"""

import json
import sys
import time


def main() -> int:
    spawned_at, trace_out, src = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import osls.cli

    imported_at = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return osls.cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.export()
        record["startup_s"] = imported_at - spawned_at
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
