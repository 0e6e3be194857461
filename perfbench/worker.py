"""One benchmark process: set a workload up, then (optionally) run it.

``run.py`` starts this script in a fresh interpreter for every
measurement, so set-up time and peak memory are those of a process that
did nothing else::

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE

``setup`` imports the program, builds and validates the workload's spec,
prints ``ready`` and exits; the parent times it from spawn to that line.

``measure`` sets up, runs the workload once (peak RSS is read after this
run), then keeps running it for ``SECONDS`` and prints one JSON line:
the time of each ``ScenarioSpec.run()`` in reference and in host
seconds (see ``host.py``), the number of runs attempted and failed,
and the problems found.  With ``TRACE`` = 1 the
runs after the first are split: untraced runs first, then runs with the
layer wrappers of ``layers.py`` installed, and the line also carries the
per-layer metrics and the aggregated spans.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # Measure the program of this checkout or nothing: never one that
    # happens to be importable from elsewhere.
    raise SystemExit(f"no program source under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import host, workloads  # noqa: E402  (imports the program)
from repro.results import result_metrics  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

#: Fewest timed runs a measurement takes, however long they are.
MIN_RUNS = 3
#: Share of a traced measurement spent on untraced reference runs.
UNTRACED_SHARE = 1 / 3


class Runner:
    """Runs one workload repeatedly and checks every run's outputs."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = workloads.build_spec(workload, seed)
        pin = workloads.load_pins()[workload]
        #: Pinned metrics on the default seed; on any other seed the
        #: first run's metrics, which every later run must repeat.
        self.reference = pin["metrics"] if seed == pin["seed"] else None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.events: list = []
        #: Every host-speed loop timing taken, in order.
        self.loops: list = []

    def run(self):
        """One checked run: ``(host seconds, result or None)``."""
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.spec.run()
        except Exception:  # a crashed run is a failed operation
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        if self.reference is None:
            self.reference = result_metrics(result)
        problems = workloads.check_result(
            self.workload, self.spec, result, self.reference
        )
        self.events.append(result.provenance["events_processed"])
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed, result

    def timed_run(self):
        """:meth:`run` between two timings of the host-speed loop:
        ``(reference seconds, host seconds, result or None)``."""
        if not self.loops:
            self.loops.append(host.fresh_loop_seconds())
        elapsed, result = self.run()
        self.loops.append(host.fresh_loop_seconds())
        ref_s = host.scaled(elapsed, self.loops[-2], self.loops[-1])
        return ref_s, elapsed, result

    def timed_runs(self, until: float) -> dict:
        """Runs until ``until`` (perf_counter) and at least MIN_RUNS."""
        ref_s, host_s = [], []
        while len(ref_s) < MIN_RUNS or time.perf_counter() < until:
            # Index instead of unpacking: a result left bound to a name
            # would stay alive through the next run.
            sample = self.timed_run()
            ref_s.append(sample[0])
            host_s.append(sample[1])
            del sample
        return {"run_s": ref_s, "host_run_s": host_s}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    runner.run()  # first run: lazy imports, then the peak-RSS reading
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    out = {"peak_rss_mb": peak_rss_mb, "import_s": IMPORT_S}
    if not trace:
        out.update(runner.timed_runs(start + seconds))
    else:
        out.update(measure_traced(runner, start, seconds))
    if len(set(runner.events)) > 1:
        runner.failed += 1
        runner.problems.append(
            f"sim.core.events differ between runs: {sorted(set(runner.events))}"
        )
    out.update(
        loop_s=runner.loops,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
    )
    return out


def measure_traced(runner: Runner, start: float, seconds: float) -> dict:
    from perfbench import layers

    untraced = runner.timed_runs(start + seconds * UNTRACED_SHARE)["run_s"]
    clock = layers.LayerClock()
    counts, times = [], []

    def collect(result):
        counts.append(layers.layer_metrics(clock, result))
        times.append(layers.layer_seconds(clock))

    uninstall = layers.install(clock)
    try:
        traced = []
        while len(traced) < MIN_RUNS or time.perf_counter() < start + seconds:
            clock.reset()
            ref_s, _host_s, result = runner.timed_run()
            traced.append(ref_s)
            if result is not None:
                collect(result)
            del result
    finally:
        uninstall()
    if not counts:
        return {"run_s": untraced, "layers": {}, "spans": []}
    if any(c != counts[0] for c in counts[1:]):
        runner.failed += 1
        runner.problems.append("per-layer counts differ between traced runs")
    metrics = layers.summarize(counts[0], times)
    metrics["scenario.import_s"] = IMPORT_S
    metrics["trace.overhead_ratio"] = statistics.median(
        traced
    ) / statistics.median(untraced)
    problems = layers.bypass_problems(runner.workload, metrics)
    if problems:
        runner.failed += 1
        runner.problems.extend(problems)
    return {
        "run_s": untraced,
        "traced_run_s": traced,
        "layers": metrics,
        "spans": clock.spans(),
    }


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        workloads.build_spec(workload, seed)
        print("ready", flush=True)
        return 0
    if mode == "measure":
        seconds, trace = float(argv[3]), argv[4] == "1"
        print(json.dumps(measure(workload, seed, seconds, trace)))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
