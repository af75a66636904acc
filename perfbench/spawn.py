"""Run one command from a small process; report its wall time, exit code and peak RSS.

Usage: python3 -S spawn.py RESULT_PATH COMMAND ARGS...

A child's ``ru_maxrss`` counts the memory image it was forked from, so a
command started straight from the benchmark process would report at least
that process's size. Started with ``-S``, this launcher stays near 10 MB.
An argument equal to ``{spawned_at}`` is replaced with ``time.perf_counter()``
taken just before the fork. RESULT_PATH receives "seconds exit_code rss_kib".
"""

import os
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    argv = [repr(start) if arg == "{spawned_at}" else arg for arg in argv]
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        handle.write(f"{seconds!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
