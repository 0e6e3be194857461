"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload metadata_rw --seed 0 \\
        --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``metadata_rw``, ``wan_fanout``,
``tenants_traced``.  Each run starts fresh interpreters through
``worker.py``, so nothing the parent imported is measured, and keeps
itself and them on one CPU.  Timings are in reference seconds: host
seconds scaled by a host-speed loop timed around each sample (see
``host.py``; the raw host seconds are kept in the run's record).

- ``--trace 0`` reports the end-to-end metrics, measured with the
  benchmark's own tracing off:

  - ``setup_s``: median over ten fresh interpreters, half before the
    runs and half after, of the time from spawning the interpreter to
    the workload being ready to run (importing the program, building
    the scenario registry, building and validating the workload's
    spec);
  - ``run_s``: median time of one ``ScenarioSpec.run()`` of the
    workload, over every run after the first in ``--seconds``;
  - ``peak_rss_mb``: peak resident memory of the process after set-up
    plus one run.

- ``--trace 1`` reports the per-layer metrics of ``layers.py``: counts
  from one traced run (they repeat exactly), host-second times as the
  median over the traced runs, and the tracing overhead.

Every run is checked: its ``result_metrics`` must equal the pinned ones
on the workload's default seed (``pinned.json``) or the first run's on
any other seed, and the seed-independent invariants must hold.  A run
that raises or fails a check counts as a failed operation.

The last line of standard output is the result::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The host record (CPU, nproc, platform, Python) and the median loop time
go to standard error and, with every sample, raw and scaled, and the
traced run's aggregated spans, to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import host  # noqa: E402  (stdlib only)
from perfbench.layers import LAYER_METRICS  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = Path(".perfbench_out")

WORKLOADS = ("metadata_rw", "wan_fanout", "tenants_traced")
#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up
#: that leaves the bytecode cache filled).
SETUP_PROBES = 10
#: Every run of this script ends within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_probe(workload: str, seed: int, deadline: float) -> float:
    """Seconds from spawning a worker to its ``ready`` line."""
    cmd = [sys.executable, str(WORKER), "setup", workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        # A probe that hangs before its line is killed at the deadline.
        watchdog = threading.Timer(_remaining(deadline), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=_remaining(deadline))
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure(
    workload: str, seed: int, seconds: float, trace: bool, deadline: float
) -> dict:
    cmd = [
        sys.executable, str(WORKER), "measure", workload, str(seed),
        repr(seconds), "1" if trace else "0",
    ]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("measurement worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"measurement worker failed (exit {proc.returncode})")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def setup_samples(
    workload: str, seed: int, count: int, deadline: float
) -> dict:
    """``count`` set-up times, each between two host-speed loop
    timings."""
    loops = [host.fresh_loop_seconds()]
    ref_s, host_s = [], []
    for _ in range(count):
        host_s.append(setup_probe(workload, seed, deadline))
        loops.append(host.fresh_loop_seconds())
        ref_s.append(host.scaled(host_s[-1], loops[-2], loops[-1]))
    return {"setup_s": ref_s, "host_setup_s": host_s, "setup_loop_s": loops}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    host.pin_to_one_cpu()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host.host_record(),
        "reference_loop_s": host.REFERENCE_LOOP_S,
    }
    print(f"host: {json.dumps(record['host'])}", file=sys.stderr)
    if trace:
        measured = measure(workload, seed, seconds, True, deadline)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, unit, value in _layer_values(measured["layers"])
        }
    else:
        # Half the set-up probes before the runs and half after, so
        # they sample the host over the whole measurement.
        setup_probe(workload, seed, deadline)  # fills the bytecode cache
        half = SETUP_PROBES // 2
        before = setup_samples(workload, seed, half, deadline)
        measured = measure(workload, seed, seconds, False, deadline)
        after = setup_samples(workload, seed, SETUP_PROBES - half, deadline)
        setup = {k: before[k] + after[k] for k in before}
        measured.update(setup)
        metrics = {
            "setup_s": {
                "value": statistics.median(setup["setup_s"]),
                "unit": "s",
            },
            "run_s": {
                "value": statistics.median(measured["run_s"]),
                "unit": "s",
            },
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MiB"},
        }
    print(
        "host-speed loop, median s: "
        f"{statistics.median(measured['loop_s'])!r} "
        f"(reference {host.REFERENCE_LOOP_S!r})",
        file=sys.stderr,
    )
    for problem in measured["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    record["measured"] = measured
    result = {
        "correct": measured["failed"] == 0 and not measured["problems"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def _layer_values(layers: dict):
    """(name, unit, value) of every per-layer metric, in table order."""
    for name, unit, _better, _target, _zero_on in LAYER_METRICS:
        if name not in layers:
            raise BenchError(f"traced run did not report {name}")
        yield name, unit, layers[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
