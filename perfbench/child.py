"""What every process the benchmark launches shares: its control channel.

A child talks to the benchmark over its standard streams.  It writes one
JSON event per line to stdout and reads one command per line from stdin:

* ``snap`` -- report this process's resource usage now (the benchmark
  sends it to every process at once to open the measured window);
* ``stop`` -- wind down (only the daemon launchers act on it).

Resource usage is ``getrusage(RUSAGE_SELF)``: user and system CPU of all
threads, peak RSS, page faults and context switches.  The scheduling
policy and nice value are reported as inherited; nothing here changes
them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading

_out_lock = threading.Lock()

POLICY_NAMES = {
    getattr(os, name): name
    for name in ("SCHED_OTHER", "SCHED_BATCH", "SCHED_IDLE", "SCHED_FIFO", "SCHED_RR")
    if hasattr(os, name)
}


def emit(event: str, **fields) -> None:
    line = json.dumps({"ev": event, **fields})
    with _out_lock:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


def rusage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kib": ru.ru_maxrss,
        "minflt": ru.ru_minflt,
        "majflt": ru.ru_majflt,
        "nvcsw": ru.ru_nvcsw,
        "nivcsw": ru.ru_nivcsw,
    }


def policy() -> str:
    try:
        name = POLICY_NAMES.get(os.sched_getscheduler(0), "unknown")
        return f"{name} nice {os.getpriority(os.PRIO_PROCESS, 0)}"
    except (AttributeError, OSError):
        return "unknown"


def serve_commands(on_stop=None) -> None:
    """Answer ``snap`` and ``stop`` commands from stdin on a daemon thread."""

    def loop() -> None:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "snap":
                emit("snap", ru=rusage())
            elif cmd == "stop" and on_stop is not None:
                on_stop()

    threading.Thread(target=loop, name="bench-control", daemon=True).start()
