"""Run one command and record its wall time and peak RSS.

Usage: python -S -E perfbench/launch.py RESULT_FILE PROGRAM [ARG ...]

Writes "<wall seconds> <peak RSS KiB>" to RESULT_FILE and exits with the
command's status.  The benchmark starts every child through this launcher
because Linux carries a parent's peak RSS over into a child started with
vfork, as Python's subprocess does, so ``os.wait4`` called from the
benchmark process would report at least the benchmark's own peak.  The
launcher is small and forks, so the peak it reads is the child's own.
"""

import os
import sys
import time


def main() -> None:
    result, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result, "w") as fp:
        fp.write(f"{wall!r} {usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    os._exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
