"""Starts the benchmark's commands from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the memory its parent had when
the child started, so a command started by the measuring process would
report at least that process's peak.  The measuring process hands every
command to this process instead.  Run with ``python3 -S``, it imports only
os, sys, json and time, and its own high-water RSS is the floor under every
command's figure.

One JSON request per line on stdin, one JSON reply per line on stdout:

- ``{"argv": [...], "log": path}`` runs ``argv`` with this process's
  environment and working directory, standard output and error appended to
  ``log``, and replies ``{"seconds", "rss_mb", "code"}``;
- ``{"hwm": true}`` replies ``{"rss_mb"}``, this process's VmHWM.
"""

import json
import os
import sys
import time


def run(argv: list, log: str) -> dict:
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
    finally:
        os.close(fd)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024, "code": os.waitstatus_to_exitcode(status)}


def high_water_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"rss_mb": high_water_mb()} if request.get("hwm") else run(request["argv"], request["log"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
