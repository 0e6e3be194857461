"""The benchmark's own tests: pins, traced-equals-untraced, bypass zeros.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workloads
from repro.results import result_metrics
from repro.scenario import get_scenario

ROOT = Path(__file__).resolve().parents[2]


def _traced(spec, clock):
    """One run of ``spec`` with every layer wrapper installed."""
    uninstall = layers.install(clock)
    try:
        clock.reset()
        result = spec.run()
    finally:
        uninstall()
    return result, layers.summarize(
        layers.layer_metrics(clock, result), [layers.layer_seconds(clock)]
    )


def test_benchmark_json_lists_the_layer_table():
    from perfbench import run as bench

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert bench.WORKLOADS == workloads.WORKLOADS
    assert doc["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _target, _zero in layers.LAYER_METRICS
    ]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert set(e2e) == {"setup_s", "run_s", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_default_seeds_are_the_registry_specs():
    assert workloads.build_spec("metadata_rw", 0) == get_scenario(
        "paper_synthetic"
    )
    assert workloads.build_spec("wan_fanout", 11) == get_scenario(
        "fanout_bandwidth_aware"
    )
    pins = workloads.load_pins()
    assert {w: p["seed"] for w, p in pins.items()} == workloads.DEFAULT_SEEDS


@pytest.mark.parametrize(
    "workload, bench_name",
    [("metadata_rw", "fig5_synthetic"), ("wan_fanout", "fanout_bandwidth_aware")],
)
def test_registry_size_matches_the_pr9_trajectory(workload, bench_name):
    """The registry-size runs reproduce the committed BENCH file exactly
    (it stores metrics rounded to 6 decimals) and the pinned values."""
    bench = json.loads((ROOT / "BENCH_pr9.json").read_text())["scenarios"]
    spec = workloads.build_spec(workload, workloads.DEFAULT_SEEDS[workload])
    assert spec.replace(name=bench_name).spec_hash() == (
        bench[bench_name]["spec_hash"]
    )
    metrics = result_metrics(spec.run())
    assert {k: round(v, 6) for k, v in metrics.items()} == (
        bench[bench_name]["metrics"]
    )
    assert metrics == workloads.load_pins()[workload]["metrics"]


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_equals_untraced_and_bypass_zeros_hold(workload):
    seed = workloads.DEFAULT_SEEDS[workload]
    spec = workloads.build_spec(workload, seed)
    plain = spec.run()
    clock = layers.LayerClock()
    traced, counts = _traced(spec, clock)
    assert result_metrics(traced) == result_metrics(plain)
    assert result_metrics(plain) == workloads.load_pins()[workload]["metrics"]
    assert counts["sim.core.events"] == plain.provenance["events_processed"]
    assert layers.bypass_problems(workload, counts) == []
    # Every count repeats exactly in a second traced run.
    _again, counts_again = _traced(spec, clock)
    for name, unit, *_ in layers.LAYER_METRICS:
        if unit == "count":
            assert counts_again[name] == counts[name], name
    # The layers that do the workload's work are seen doing it.
    assert counts["metadata.strategies.reads"] > 0
    assert counts["cloud.network.rpcs"] > 0
    if workload == "wan_fanout":
        assert counts["cloud.flow.rebalances"] > 0
        assert counts["cloud.flow.estimates"] > 0
    if workload == "tenants_traced":
        assert counts["obs.trace_events"] > 0
        assert counts["workload.admits"] == 128
        assert counts["elastic.decisions"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_non_default_seed_repeats_and_keeps_invariants(workload):
    spec = workloads.build_spec(workload, 5)
    first = spec.run()
    reference = result_metrics(first)
    assert workloads.check_result(workload, spec, first, reference) == []
    assert workloads.check_result(workload, spec, spec.run(), reference) == []


def test_check_result_reports_drift():
    spec = workloads.build_spec("wan_fanout", 11)
    result = spec.run()
    reference = dict(result_metrics(result))
    assert workloads.check_result("wan_fanout", spec, result, reference) == []
    reference["makespan_s"] += 1e-9
    problems = workloads.check_result("wan_fanout", spec, result, reference)
    assert problems and "makespan_s" in problems[0]


def test_generator_wrapper_forwards_send_throw_and_return():
    clock = layers.LayerClock()

    def inner(log):
        try:
            got = yield "first"
            log.append(got)
            yield "second"
        except KeyError as exc:
            log.append(exc.args[0])
        return "done"

    def outer(log):
        value = yield from timed_inner(log)
        return value + "!"

    timed_inner = clock.timed(inner, "inner")
    timed_outer = clock.timed(outer, "outer")
    log = []
    gen = timed_outer(log)
    assert gen.__name__ == "outer"
    assert next(gen) == "first"
    assert gen.send(41) == "second"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("boom"))
    assert stop.value.value == "done!"
    assert log == [41, "boom"]
    assert clock.calls_of("inner") == clock.calls_of("outer") == 1
    assert clock.stack == [] and clock.open_keys == []
    # Self times partition the inclusive time of the outermost key.
    total = clock.seconds("outer", inclusive=True)
    parts = clock.seconds("outer") + clock.seconds("inner")
    assert parts == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_host_speed_scaling():
    from perfbench import host

    ref = host.REFERENCE_LOOP_S
    assert host.scaled(2.0, ref, ref) == 2.0
    # A host running the loop at half speed ran the sample at half speed.
    assert host.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert host.fresh_loop_seconds() > 0


def test_uninstall_restores_every_entry_point():
    from repro.cloud.network import Network
    from repro.scenario import runner

    before = (Network.rpc, Network.__init__, runner.analyze_tracer)
    uninstall = layers.install(layers.LayerClock())
    assert Network.rpc is not before[0]
    uninstall()
    assert (Network.rpc, Network.__init__, runner.analyze_tracer) == before


def test_benchmark_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "wan_fanout",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
