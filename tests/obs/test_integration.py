"""End-to-end observability: tracing must observe, never perturb.

The two load-bearing contracts:

- a traced run produces bit-for-bit the same scenario metrics as the
  identical untraced run (the tracer consumes no RNG and schedules no
  events);
- the exporters emit valid Chrome trace-event JSON with every
  instrumented layer represented, and the streaming sketches agree
  with the exact ``OpStats`` percentiles.
"""

import json

import numpy as np
import pytest

from repro.cloud.flow import SOLVERS
from repro.obs import chrome_trace_doc, events_jsonl, write_chrome_trace
from repro.results import diff_artifacts, scenario_result_to_dict
from repro.scenario import (
    NetworkSpec,
    ObservabilitySpec,
    ScenarioSpec,
    get_scenario,
)


def small_workflow_spec(**obs_knobs):
    spec = ScenarioSpec(
        name="obs-it",
        surface="workflow",
        application="montage",
        ops_per_task=6,
        n_nodes=8,
        seed=3,
    )
    if obs_knobs:
        spec = spec.replace(
            observability=ObservabilitySpec(enabled=True, **obs_knobs)
        )
    return spec


class TestTracingIsInvisible:
    def test_traced_run_bit_identical_to_untraced(self):
        base = small_workflow_spec().run()
        traced = small_workflow_spec(categories=None).run()
        doc_base = scenario_result_to_dict(base)
        doc_traced = scenario_result_to_dict(traced)
        doc_traced.pop("obs", None)
        # Same metrics, same provenance -- including the processed-event
        # count: the tracer never schedules simulation events.
        assert doc_base["metrics"] == doc_traced["metrics"]
        assert doc_base["provenance"] == doc_traced["provenance"]

    def test_spec_hash_unaffected_by_observability(self):
        assert (
            small_workflow_spec().spec_hash()
            == small_workflow_spec(sample_interval=0.25).spec_hash()
        )


class TestScenarioTraceExport:
    @pytest.fixture(scope="class")
    def traced(self):
        spec = get_scenario("fanout_bandwidth_aware").replace(
            observability=ObservabilitySpec(enabled=True)
        )
        return spec.run(quick=True)

    def test_all_instrumented_layers_emit(self, traced):
        counts = traced.obs["events"]
        for cat in ("kernel", "network", "registry", "scheduler", "span"):
            assert counts.get(cat, 0) > 0, f"no {cat} events"

    def test_chrome_trace_doc_valid(self, traced, tmp_path):
        doc = chrome_trace_doc(traced.tracer)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        cats = {e.get("cat") for e in events}
        assert {"kernel", "network", "scheduler", "span"} <= cats
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert e["ts"] >= 0
        # Round-trips through the JSON writer.
        out = tmp_path / "trace.json"
        write_chrome_trace(traced.tracer, out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_jsonl_stream_sorted_and_typed(self, traced):
        records = [json.loads(line) for line in events_jsonl(traced.tracer)]
        assert records
        ts = [r["ts"] for r in records]
        assert ts == sorted(ts)
        spans = [r for r in records if r.get("ph") == "span"]
        assert spans and all("dur" in r for r in spans)

    def test_scheduler_events_carry_candidate_scores(self, traced):
        places = [
            args
            for _, cat, name, args in traced.tracer.events
            if cat == "scheduler" and name == "place"
        ]
        assert places
        for args in places:
            assert args["site"] in args["scores"]
            assert all(v >= 0 for v in args["scores"].values())

    def test_task_spans_have_phase_children(self, traced):
        spans = traced.tracer.spans
        tasks = {s.id: s for s in spans if s.name == "task"}
        assert tasks
        children = [s for s in spans if s.parent in tasks]
        assert {s.name for s in children} >= {"stage", "publish"}
        for s in spans:
            assert s.end is not None and s.end >= s.start


class TestSketchAccuracy:
    def test_ops_histogram_matches_exact_percentiles(self):
        result = small_workflow_spec(categories=("registry",)).run()
        ops = result.result.ops
        hist = result.obs["metrics"]["histograms"]["ops.latency_s"]
        assert hist["count"] == len(ops.records)
        # Stream fits the reservoir -> quantiles are exact.
        assert hist["count"] <= 2048
        latencies = [r.latency for r in ops.records]
        for q, key in ((50, "p50"), (90, "p90"), (99, "p99")):
            assert hist[key] == pytest.approx(
                float(np.percentile(latencies, q)), abs=1e-9
            )
            assert hist[key] == pytest.approx(
                ops.latency_percentile(q), abs=1e-9
            )


class TestProvenanceSurface:
    @pytest.mark.parametrize(
        "model, solver", [("slots", "slots"), ("fair", "fair/incremental")]
    )
    def test_artifact_carries_provenance(self, model, solver):
        spec = small_workflow_spec().replace(
            network=NetworkSpec(bandwidth_model=model)
        )
        doc = scenario_result_to_dict(spec.run())
        prov = doc["provenance"]
        assert prov["flow_solver"] == solver
        assert prov["flow_solver"] in {"slots"} | {
            f"fair/{name}" for name in SOLVERS
        }
        assert prov["events_processed"] > 0
        assert "obs" not in doc  # untraced runs stay lean

    def test_diff_surfaces_provenance_changes(self):
        result = small_workflow_spec().run()
        doc_a = scenario_result_to_dict(result)
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["provenance"]["flow_solver"] = "fair/verify"
        diff = diff_artifacts(doc_a, doc_b)
        assert diff.provenance == {
            "flow_solver": (doc_a["provenance"]["flow_solver"], "fair/verify")
        }
        assert "provenance" in diff.render()
        # Old artifacts without the key still diff cleanly.
        doc_b.pop("provenance")
        legacy = diff_artifacts(doc_a, doc_b)
        assert all(b is None for _, b in legacy.provenance.values())
