"""Exporter contracts: every event shape survives JSONL, Chrome lanes
are named, and the trace CLI rejects malformed category selections."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs import chrome_trace_doc, events_jsonl
from repro.scenario import ObservabilitySpec, get_scenario


@pytest.fixture(scope="module")
def traced_workload():
    """A fully-traced multi-tenant run: exercises every event shape."""
    spec = get_scenario("multi_tenant_8").replace(
        observability=ObservabilitySpec(enabled=True)
    )
    return spec.run(quick=True)


class TestJsonlRoundTrip:
    #: (cat, name) -> keys every record of that shape must carry.
    SHAPES = {
        ("workload", "submit"): {"tenant", "run"},
        ("workload", "admit"): {"tenant", "run", "wait", "in_flight"},
        ("workload", "complete"): {"tenant", "run", "makespan"},
        ("registry", "slot_wait"): {"site", "wait", "queue"},
        ("span", "task"): {"ph", "dur", "id", "task", "vm", "site", "run"},
        ("span", "stage"): {"ph", "dur", "id", "parent"},
        ("span", "publish"): {"ph", "dur", "id", "parent"},
        ("span", "transfer"): {"ph", "dur", "id", "src", "dst", "size"},
        ("span", "rpc"): {"ph", "dur", "id", "src", "dst"},
    }

    def test_every_line_parses_and_known_shapes_keep_keys(
        self, traced_workload
    ):
        lines = list(events_jsonl(traced_workload.tracer))
        assert lines
        seen = set()
        for line in lines:
            rec = json.loads(line)  # every line must parse alone
            assert {"ts", "cat", "name"} <= rec.keys()
            shape = (rec["cat"], rec["name"])
            seen.add(shape)
            expected = self.SHAPES.get(shape)
            if expected is not None:
                missing = expected - rec.keys()
                assert not missing, f"{shape} lost keys {missing}"
        # The run must actually have produced every catalogued shape.
        assert set(self.SHAPES) <= seen

    def test_line_count_matches_tracer_contents(self, traced_workload):
        tracer = traced_workload.tracer
        lines = list(events_jsonl(tracer))
        assert len(lines) == len(tracer.events) + len(tracer.spans)

    def test_span_records_reconstruct_durations(self, traced_workload):
        for line in events_jsonl(traced_workload.tracer):
            rec = json.loads(line)
            if rec.get("ph") == "span":
                assert rec["dur"] >= 0
                assert rec["id"] >= 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOutputIdentityGolden:
    """The trace exports of a quick, fully traced ``multi_tenant_slo``
    run, pinned byte for byte.  The digests were recorded when the
    tracer kept one ``(ts, cat, name, args)`` tuple per event; the
    columnar store must reproduce every export exactly."""

    JSONL = "3c5d000e3734a99097d132a60fcaa28a15fff32e43b3a6c3af5740bd1105ccc7"
    CHROME = "f3eb50866d4aae2a7ed3afb07a73c9fb6eeb7b75675789730f4542485c9d4157"
    EXPORT = "b9b9aa0b38c62cec176ca3d75bd2f8b3aec2d0b0b1df7c2d5c1775f2356fe31a"

    @pytest.fixture(scope="class")
    def tracer(self):
        spec = get_scenario("multi_tenant_slo").replace(
            observability=ObservabilitySpec(enabled=True)
        )
        return spec.run(quick=True).tracer

    def test_jsonl_digest(self, tracer):
        assert _sha256("\n".join(events_jsonl(tracer))) == self.JSONL

    def test_chrome_digest(self, tracer):
        assert _sha256(json.dumps(chrome_trace_doc(tracer))) == self.CHROME

    def test_export_digest(self, tracer):
        # export() takes a forced metrics sample, so it runs once here.
        doc = tracer.export()
        assert _sha256(json.dumps(doc, sort_keys=True)) == self.EXPORT


class TestChromeLaneMetadata:
    def test_every_lane_has_a_thread_name_record(self, traced_workload):
        doc = chrome_trace_doc(traced_workload.tracer)
        events = doc["traceEvents"]
        named = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {e["tid"] for e in events if e["ph"] != "M"}
        assert used, "trace has no records"
        assert used <= set(named), "unnamed lanes in the trace"
        # Lane names are the vm/site/category labels, never empty.
        assert all(named.values())

    def test_process_name_metadata_present(self, traced_workload):
        doc = chrome_trace_doc(traced_workload.tracer)
        procs = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert len(procs) == 1
        assert procs[0]["args"]["name"] == "repro-sim"


class TestTraceCategoriesCli:
    def test_unknown_category_exits_2(self, capsys, tmp_path):
        rc = main(
            [
                "trace", "fanout_bandwidth_aware", "--quick",
                "--categories", "kernel,bogus",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_empty_category_list_exits_2(self, capsys, tmp_path):
        """`--categories ,` selects nothing: a config mistake, not a
        silent all-categories fallback."""
        rc = main(
            [
                "trace", "fanout_bandwidth_aware", "--quick",
                "--categories", ",",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "categories" in capsys.readouterr().err

    def test_category_with_no_events_yields_valid_empty_doc(
        self, capsys, tmp_path
    ):
        """A real category that never fires on this surface (workload
        events on a single-workflow run) must still export valid JSON
        -- just with no trace records beyond the metadata."""
        out = tmp_path / "t.json"
        rc = main(
            [
                "trace", "fanout_bandwidth_aware", "--quick",
                "--categories", "workload",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []
