"""Exporter contracts: every event shape survives JSONL, Chrome lanes
are named, and the trace CLI rejects malformed category selections."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs import Tracer, chrome_trace_doc, events_jsonl
from repro.scenario import ObservabilitySpec, get_scenario
from repro.sim import Environment


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
    tracer kept one ``(ts, cat, name, args)`` tuple per event; every
    later store must reproduce every export exactly."""

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


class TestDroppedPathGolden:
    """A quick, fully traced ``multi_tenant_8`` run whose ``max_events``
    budget runs out part-way, so both events and spans overflow.  Its
    exports, per-category ``counts`` (in first-emission order) and
    ``dropped`` were recorded on the columnar four-list store; the lane
    store must reproduce the retained prefix and the drop accounting
    exactly."""

    MAX_EVENTS = 4000
    JSONL = "7620d575eac2ce8baa3e140c0b8ca33c564dbb4662e6993c13305abc512f764c"
    CHROME = "3b5cec160a0d9ad65fe655782d9d897a67cc764981965b45171f71f4f1754ccb"
    EXPORT = "7e99dadafd671a67919b1b57f1a5c0edd8bb92ff44d81b1b08226ab5b4d8ad38"
    COUNTS = [
        ("kernel", 8466), ("workload", 24), ("scheduler", 78),
        ("span", 2133), ("network", 2960), ("registry", 761),
    ]
    DROPPED = 10422

    @pytest.fixture(scope="class")
    def tracer(self):
        spec = get_scenario("multi_tenant_8").replace(
            observability=ObservabilitySpec(
                enabled=True, max_events=self.MAX_EVENTS
            )
        )
        return spec.run(quick=True).tracer

    def test_both_kinds_overflow(self, tracer):
        assert len(tracer.events) + len(tracer.spans) == self.MAX_EVENTS
        assert len(tracer.spans) < self.COUNTS[3][1]
        assert len(tracer.events) < sum(
            n for cat, n in self.COUNTS if cat != "span"
        )

    def test_counts_and_dropped(self, tracer):
        assert list(tracer.counts.items()) == self.COUNTS
        assert tracer.dropped == self.DROPPED

    def test_jsonl_digest(self, tracer):
        assert _sha256("\n".join(events_jsonl(tracer))) == self.JSONL

    def test_chrome_digest(self, tracer):
        assert _sha256(json.dumps(chrome_trace_doc(tracer))) == self.CHROME

    def test_export_digest(self, tracer):
        doc = tracer.export()
        assert _sha256(json.dumps(doc, sort_keys=True)) == self.EXPORT


class TestDeadCategoryParent:
    """A span of a disabled category handed over as ``parent=`` is
    recorded as no parent, so both exporters still serialize."""

    @pytest.fixture()
    def tracer(self):
        tracer = Tracer(Environment(), categories=("span",))
        dead = tracer.span("k", cat="kernel")
        tracer.span("task", parent=dead).finish()
        return tracer

    def test_parent_is_none(self, tracer):
        assert tracer.spans[0].parent is None

    def test_both_exporters_serialize(self, tracer):
        doc = json.loads(json.dumps(chrome_trace_doc(tracer)))
        (record,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "parent" not in record["args"]
        (line,) = events_jsonl(tracer)
        assert "parent" not in json.loads(line)


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
