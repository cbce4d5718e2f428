"""Run a command as a child of this small process and report its rusage.

    python3 perfbench/launch.py <fd> <program> [args...]

Writes one JSON object to file descriptor <fd> when the command has exited:
its wall seconds from fork to reap, user and system CPU seconds, peak RSS in
kB and exit code, all from os.wait4.

A process inherits its parent's peak RSS: Linux carries the parent's
high-water mark into the child's ru_maxrss across fork and exec. The harness
keeps child outputs in memory and outgrows the ~18 MB of a B4 child, so the
measured commands are forked from this launcher, whose own peak is below that
of any flagpieces process. On SIGTERM the launcher kills the command and still
reaps it before exiting.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(fd)
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGTERM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kb": ru.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }
    os.write(fd, json.dumps(result).encode())
    os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
