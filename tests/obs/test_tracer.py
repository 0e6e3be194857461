"""Unit tests for the tracer core: events, spans, the null fast path."""

import gc

import pytest

from repro.obs import NULL_TRACER, TRACE_CATEGORIES, Tracer
from repro.obs.trace import NULL_SPAN
from repro.sim import Environment, Timeout


def make_env(now=0.0):
    env = Environment()
    if now:
        env.run(until=now)
    return env


class TestNullTracer:
    def test_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert all(not NULL_TRACER.wants(c) for c in TRACE_CATEGORIES)
        NULL_TRACER.emit("kernel", "pop", t=1.0)  # no-op, no error
        assert NULL_TRACER.export() == {}

    def test_null_span_chain(self):
        sp = NULL_TRACER.span("task", vm="vm-0")
        assert sp is NULL_SPAN
        assert sp.child("stage") is NULL_SPAN
        with sp:
            sp.finish(extra=1)  # all no-ops

    def test_fresh_environment_has_no_tracer(self):
        env = Environment()
        assert env.tracer is None
        assert env._trace_kernel is False


class TestTracer:
    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(make_env(), categories=("kernel", "nope"))

    def test_category_filtering(self):
        tracer = Tracer(make_env(), categories=("network",))
        assert tracer.wants("network")
        assert not tracer.wants("kernel")
        tracer.emit("kernel", "pop")
        tracer.emit("network", "transfer_open", src="a", dst="b")
        assert tracer.counts == {"network": 1}
        assert len(tracer.events) == 1
        assert tracer.span("task") is NULL_SPAN  # "span" not enabled

    def test_events_stamped_with_sim_time(self):
        env = make_env()
        tracer = Tracer(env)
        env.attach_tracer(tracer)
        tracer.emit("workload", "submit", tenant="t0")
        Timeout(env, 2.5)
        env.run()
        tracer.emit("workload", "complete", tenant="t0")
        workload = [
            (t, name)
            for t, cat, name, _ in tracer.events
            if cat == "workload"
        ]
        assert workload == [(0.0, "submit"), (2.5, "complete")]

    def test_span_parentage_and_finish(self):
        env = make_env()
        tracer = Tracer(env)
        root = tracer.span("task", task="t1")
        child = root.child("stage", inputs=2)
        by_id = tracer.span("rpc", parent=root.id)
        assert child.parent == root.id
        assert by_id.parent == root.id
        assert root.parent is None
        Timeout(env, 1.0)
        env.run()
        child.finish(transferred=3)
        assert child.end == 1.0
        assert child.args["transferred"] == 3
        Timeout(env, 1.0)
        env.run()
        child.finish()  # idempotent: end does not move
        assert child.end == 1.0
        with tracer.span("ctx") as sp:
            pass
        assert sp.end == 2.0

    def test_max_events_budget_counts_drops(self):
        tracer = Tracer(make_env(), max_events=3)
        for i in range(5):
            tracer.emit("kernel", "pop", t=float(i))
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert tracer.counts["kernel"] == 5  # counts are never capped

    def test_attach_tracer_caches_kernel_flag(self):
        env = Environment()
        tracer = Tracer(env, categories=("kernel",))
        env.attach_tracer(tracer)
        assert env.tracer is tracer
        assert env._trace_kernel is True
        env2 = Environment()
        env2.attach_tracer(Tracer(env2, categories=("network",)))
        assert env2._trace_kernel is False

    def test_kernel_events_from_instrumented_run(self):
        env = Environment()
        env.attach_tracer(Tracer(env))
        Timeout(env, 1.0)
        Timeout(env, 2.0)
        env.run()
        names = {name for _, _, name, _ in env.tracer.events}
        assert "schedule" in names
        assert "pop" in names
        assert env.events_processed == 2

    def test_export_summary(self):
        env = make_env()
        tracer = Tracer(env)
        tracer.emit("kernel", "pop")
        tracer.span("task").finish()
        tracer.metrics.counter("c").inc()
        doc = tracer.export()
        assert doc["events"] == {"kernel": 1, "span": 1}
        assert doc["n_events"] == 1
        assert doc["n_spans"] == 1
        assert doc["dropped"] == 0
        assert doc["metrics"]["counters"] == {"c": 1.0}

    def test_tracer_never_schedules_events(self):
        env = Environment()
        env.attach_tracer(Tracer(env))
        env.tracer.emit("workload", "submit")
        env.tracer.span("task")
        assert env.queued == 0


class TestColumnarEventStore:
    """``Tracer.events`` is a read-only view over column lists."""

    def make_tracer(self):
        env = make_env()
        tracer = Tracer(env)
        tracer.emit("kernel", "pop", depth=1)
        Timeout(env, 1.5)
        env.run()
        tracer.emit("network", "rpc", src="a", dst="b")
        tracer.emit("workload", "submit")
        return tracer

    def test_view_rows(self):
        tracer = self.make_tracer()
        rows = [
            (0.0, "kernel", "pop", {"depth": 1}),
            (1.5, "network", "rpc", {"src": "a", "dst": "b"}),
            (1.5, "workload", "submit", None),
        ]
        events = tracer.events
        assert len(events) == 3
        assert list(events) == rows
        assert [events[i] for i in range(3)] == rows
        assert events[0] == rows[0]
        assert events[-1] == rows[-1]
        assert events[-2] == rows[-2]
        assert events[-3] == rows[0]
        assert events[1:] == rows[1:]
        assert events[::-1] == rows[::-1]
        assert events[:0] == []
        with pytest.raises(IndexError):
            events[3]

    def test_view_is_read_only(self):
        tracer = self.make_tracer()
        with pytest.raises(TypeError):
            tracer.events[0] = (0.0, "kernel", "pop", None)
        assert not hasattr(tracer.events, "append")

    def test_counts_with_exhausted_budget_include_dropped_spans(self):
        tracer = Tracer(make_env(), max_events=3)
        tracer.emit("kernel", "pop")
        tracer.span("task").finish()
        tracer.emit("network", "rpc")
        # Budget exhausted: everything below is counted, not retained.
        tracer.emit("kernel", "pop")
        tracer.span("task").finish()
        tracer.span("rpc", cat="network").finish()
        tracer.emit("registry", "op")
        assert len(tracer.events) == 2
        assert len(tracer.spans) == 1
        assert tracer.dropped == 4
        assert tracer.counts == {
            "kernel": 2, "span": 2, "network": 2, "registry": 1,
        }
        assert list(tracer.counts) == ["kernel", "span", "network", "registry"]
        assert sum(tracer.counts.values()) == (
            len(tracer.events) + len(tracer.spans) + tracer.dropped
        )

    def test_retained_events_stay_out_of_the_cyclic_gc(self):
        """CPython never untracks a tuple holding a dict; the columnar
        store must keep 20k retained events from adding ~20k tracked
        objects to the collector's generations."""
        tracer = Tracer(make_env())
        gc.collect()
        before = len(gc.get_objects())
        for i in range(20_000):
            tracer.emit("kernel", "pop", depth=i, t=0.5, tag="x")
        added = len(gc.get_objects()) - before
        assert len(tracer.events) == 20_000
        assert added < 100


class TestLaneStore:
    """Recorders and ``emit`` share one lane store; spans are handles."""

    #: (advance to, cat, name, fields, values): a mixed stream crossing
    #: the metrics sample interval and, with ``max_events=5``, the budget.
    STREAM = [
        (0.0, "kernel", "pop", ("t", "prio", "depth"), (0.0, 1, 3)),
        (0.5, "network", "rpc", ("src", "dst"), ("a", "b")),
        (1.0, "kernel", "pop", ("t", "prio", "depth"), (1.0, 0, 2)),
        (1.0, "workload", "submit", (), ()),
        (2.5, "kernel", "pop", ("t", "prio", "depth"), (2.5, 1, 1)),
        (2.5, "network", "rpc", ("src", "dst"), ("b", "a")),
        (3.0, "registry", "op", ("kind", "site"), ("read", "a")),
        (4.5, "kernel", "pop", ("t", "prio", "depth"), (4.5, 1, 0)),
    ]

    def replay(self, positional):
        env = make_env()
        tracer = Tracer(env, max_events=5)
        for until, cat, name, fields, values in self.STREAM:
            if until > env.now:
                env.run(until=until)
            if positional:
                tracer.recorder(cat, name, *fields)(*values)
            else:
                tracer.emit(cat, name, **dict(zip(fields, values)))
        return tracer

    def test_recorder_and_emit_store_the_same(self):
        by_rec, by_emit = self.replay(True), self.replay(False)
        assert list(by_rec.events) == list(by_emit.events)
        assert len(by_rec.events) == 5
        assert list(by_rec.counts.items()) == list(by_emit.counts.items())
        assert list(by_rec.counts) == ["kernel", "network", "workload", "registry"]
        assert by_rec._dropped == by_emit._dropped == {
            "kernel": 1, "network": 1, "registry": 1,
        }
        instants = [t for t, _ in by_rec.metrics.series]
        assert instants == [t for t, _ in by_emit.metrics.series]
        assert instants == [0.0, 1.0, 2.5, 4.5]

    def test_emit_and_recorder_interleave_in_one_lane(self):
        tracer = Tracer(make_env())
        pop = tracer.recorder("kernel", "pop", "t", "depth")
        pop(0.0, 1)
        tracer.emit("kernel", "pop", t=0.0, depth=2)
        pop(0.0, 3)
        assert [args["depth"] for _, _, _, args in tracer.events] == [1, 2, 3]
        assert tracer.recorder("kernel", "pop", "t", "depth") is pop
        assert len(tracer._lanes) == 1

    def test_dead_category_recorder_is_a_no_op(self):
        tracer = Tracer(make_env(), categories=("network",))
        tracer.recorder("kernel", "pop", "t")(1.0)
        assert tracer.counts == {}
        assert len(tracer.events) == 0
        assert NULL_TRACER.recorder("kernel", "pop", "t")(1.0) is None

    def test_select_reads_one_category_in_emission_order(self):
        tracer = self.replay(True)
        assert list(tracer.select("kernel")) == [
            row for row in tracer.events if row[1] == "kernel"
        ]
        assert [r[3] for r in tracer.select("network", "rpc")] == [
            {"src": "a", "dst": "b"},
        ]
        assert list(tracer.select("elastic")) == []

    def test_span_handle_past_the_budget(self, monkeypatch):
        tracer = Tracer(make_env(), max_events=1)
        kept = tracer.span("task")
        lost = tracer.span("task")
        assert (kept.id, lost.id) == (0, 1)
        opened = []
        span = tracer.span

        def spy(name, **kwargs):
            opened.append(kwargs.get("parent"))
            return span(name, **kwargs)

        monkeypatch.setattr(tracer, "span", spy)
        child = lost.child("stage")
        assert child.id == 2  # ids keep advancing past the budget
        assert opened == [lost.id]  # ...and children name the lost parent
        lost.finish(extra=1)  # a no-op
        child.finish()
        assert tracer._span_end == [None]
        assert tracer._extras == {}
        with pytest.raises(IndexError):
            lost.end
        kept.finish(extra=1)
        assert tracer.spans[0].args == {"extra": 1}
        assert tracer.dropped == 2

    def test_span_records_rebuild_args_and_extras(self):
        env = make_env()
        tracer = Tracer(env)
        root = tracer.span("rpc", src="a", dst="b")
        bare = root.child("compute")
        Timeout(env, 2.0)
        env.run()
        root.finish(request_s=1.0, src="c")  # update in place, then append
        records = list(tracer.spans)
        assert records[0] == (0, "rpc", "span", None, 0.0, 2.0,
                              {"src": "c", "dst": "b", "request_s": 1.0})
        assert records[1] == (1, "compute", "span", 0, 0.0, None, {})
        assert records == tracer.spans[:] == [tracer.spans[0], tracer.spans[-1]]
        assert bare.record() == records[1]
        assert repr(root) == "<Span #0 'rpc' [0.0, 2.0]>"

    def test_no_span_object_outlives_a_traced_run(self):
        from repro.obs.trace import Span
        from repro.scenario import ObservabilitySpec, get_scenario

        spec = get_scenario("multi_tenant_8").replace(
            observability=ObservabilitySpec(enabled=True)
        )
        result = spec.run(quick=True)
        assert len(result.tracer.spans) > 0
        gc.collect()
        tracer = result.tracer
        assert not [
            o for o in gc.get_objects()
            if isinstance(o, Span) and o._tracer is tracer
        ]

    def test_retained_kernel_row_costs_under_96_bytes(self):
        """A kernel ``pop`` row holds three list slots, a ``ts`` slot
        and a lane id (the fresh ``t`` float is 24 of the bytes); the
        four-list store with a dict per row took about 244."""
        import tracemalloc

        tracer = Tracer(make_env())
        pop = tracer.recorder("kernel", "pop", "t", "prio", "depth")
        n = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                pop(float(i), 1, i % 200)
            per_row = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(tracer.events) == n
        assert per_row < 96, per_row


def test_trace_cost_walk_covers_every_retained_row():
    """``benchmarks/profile_kernel.py trace-cost`` reads the lane store's
    internals; its per-category rows must match what was retained."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks" / "profile_kernel.py"
    spec = importlib.util.spec_from_file_location("profile_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    env = make_env()
    tracer = Tracer(env, max_events=6)
    root = tracer.span("task", vm="a-0")
    root.child("stage").finish(metadata_s=0.5)
    for i in range(3):
        tracer.emit("kernel", "pop", t=float(i), depth=300 + i)
    tracer.emit("scheduler", "place", scores={"a": 1.5})
    tracer.emit("kernel", "pop", t=9.0, depth=1)  # past the budget
    root.finish()
    cost = module.trace_cost(tracer)
    assert {c: rows for c, (rows, _) in cost.items()} == {
        "span": 2, "kernel": 3, "scheduler": 1,
    }
    assert all(nbytes > 0 for _, nbytes in cost.values())
