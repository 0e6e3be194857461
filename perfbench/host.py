"""The host record and the host-speed yardstick timings are scaled by.

The hosts this benchmark runs on change speed while a run is in
progress: on a 2-vCPU VM shared with other tenants the same run of
``tenants_traced`` took 1.21 s to 1.84 s of host time over four
minutes, in spells of tens of seconds, and the two vCPUs change speed
independently.  Left alone, that drift would swamp the changes the
benchmark exists to see.  So every timed sample is taken between two
timings of a fixed pure-Python loop on the same CPU, and reported in
*reference seconds*: host seconds times ``REFERENCE_LOOP_S`` over the
mean loop time around the sample -- what the sample would have taken
on a host running the loop in ``REFERENCE_LOOP_S``.  Over the same four
minutes the scaled samples of that run stayed within 1.59 s to 1.82 s.

The loop runs in a fresh interpreter (``python3 -I host.py``), so it
never depends on the program under test, not even on the state the
program leaves in the measuring process's memory allocator.  Raw host
seconds and every loop timing are kept in the run's record beside the
scaled figures.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import time
from heapq import heappop, heappush
from typing import Dict

__all__ = [
    "REFERENCE_LOOP_S",
    "fresh_loop_seconds",
    "host_record",
    "loop_seconds",
    "pin_to_one_cpu",
    "scaled",
]

#: Loop time of the reference host, about that of a 2-vCPU
#: "Intel(R) Xeon(R) Processor" VM under Python 3.11.
REFERENCE_LOOP_S = 0.08


def loop_seconds() -> float:
    """Host seconds of one pass of the fixed loop, in this process.

    The loop does the simulator's kind of work on a working set beyond
    the core's private caches: it allocates objects, updates them at
    pseudo-random places, keeps a bounded heap of tuples and a dict of
    them.  The garbage collector is off while it runs.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = 40_000
        objs = [[i, 0.0] for i in range(n)]
        rng, heap, table = 12345, [], {}
        for i in range(n):
            rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
            obj = objs[rng % n]
            obj[1] += 1.0
            heappush(heap, (obj[1], i, obj))
            if len(heap) > 2000:
                heappop(heap)
            table[rng & 0xFFFF] = obj
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def fresh_loop_seconds() -> float:
    """:func:`loop_seconds` in a fresh, isolated interpreter."""
    out = subprocess.run(
        [sys.executable, "-I", __file__],
        stdout=subprocess.PIPE,
        check=True,
        timeout=60,
    )
    return float(out.stdout)


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` in reference seconds, given the loop around it."""
    return seconds * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the loop
    times the CPU the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def host_record() -> Dict[str, object]:
    """CPU model, nproc, platform and Python version."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


if __name__ == "__main__":
    print(repr(loop_seconds()))
