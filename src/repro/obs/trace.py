"""Tracer core: typed events in simulated time, plus a span API.

A :class:`Tracer` hangs off an :class:`~repro.sim.core.Environment`
(``env.attach_tracer(tracer)``) and records two kinds of things:

- **events**: point-in-time facts ``(ts, category, name, args)`` --
  a kernel pop, a transfer retry, a placement decision;
- **spans**: intervals ``[start, end]`` with parent/child linkage --
  a workflow task, an input-staging phase, one RPC.

Everything is stamped with *simulated* time (``env.now``), never wall
time, so traces are deterministic and diffable across runs.

The disabled fast path is the module singleton :data:`NULL_TRACER`:
every method is a no-op, ``wants()`` is always ``False``, and
instrumented components cache ``wants(category)`` as a plain boolean at
construction so the per-event cost with tracing off is one attribute
load and a falsy branch.  The tracer itself never touches any RNG and
never schedules simulation events, so enabling it cannot perturb a run.

Event volume is bounded by ``max_events``; beyond the cap events and
spans are counted (``dropped``) but not retained.

Retained events live in four parallel column lists (ts, category,
name, args) rather than one tuple per event: CPython never untracks a
tuple that holds a dict, so a tuple store would leave every event in
the cyclic GC's generations, while the columns are a handful of lists.
``Tracer.events`` is a read-only view yielding the same tuples.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["TRACE_CATEGORIES", "Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: The closed event taxonomy; ``ObservabilitySpec.categories`` must be a
#: subset.  See docs/observability.md for the events each category emits.
TRACE_CATEGORIES: Tuple[str, ...] = (
    "kernel",     # schedule/pop/cancel/reschedule + queue depth
    "network",    # transfer open/done/abort/retry, per-leg RPC timing
    "flow",       # fair-share re-solves: component size, flows rescheduled
    "registry",   # metadata op start/finish, registry slot waits
    "scheduler",  # per-placement candidate scores
    "workload",   # tenant submit, admission enqueue/dequeue (reject reserved)
    "elastic",    # autoscaler decisions, VM provision/drain lifecycle
    "span",       # interval spans (tasks, staging, transfers, RPCs)
)


class Span:
    """One traced interval, closed by ``end()`` or a ``with`` block."""

    __slots__ = ("id", "name", "cat", "parent", "start", "end", "args", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        cat: str,
        parent: Optional[int],
        start: float,
        args: Dict[str, object],
    ):
        self.id = span_id
        self.name = name
        self.cat = cat
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self._tracer = tracer

    def finish(self, **extra: object) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end is None:
            self.end = self._tracer._env.now
            if extra:
                self.args.update(extra)

    def child(self, name: str, **args: object) -> "Span":
        """Open a child span parented to this one."""
        return self._tracer.span(name, parent=self, **args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:
        return (
            f"<Span #{self.id} {self.name!r} [{self.start}, {self.end}]"
            f"{'' if self.parent is None else f' parent={self.parent}'}>"
        )


class _NullSpan:
    """Span stand-in returned by :class:`NullTracer`; does nothing."""

    __slots__ = ()
    id = -1
    parent = None

    def finish(self, **extra: object) -> None:
        pass

    def child(self, name: str, **args: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class _EventView(Sequence):
    """Read-only ``(ts, cat, name, args)`` rows over a tracer's columns.

    Supports ``len``, iteration, indexing and slicing (a slice is a
    list of row tuples); rows are rebuilt on access, so the retained
    trace itself holds no per-event tuple.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: Tuple[list, list, list, list]):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __iter__(self):
        return zip(*self._cols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(*(col[i] for col in self._cols)))
        return tuple([col[i] for col in self._cols])


class Tracer:
    """Collects events and spans from an instrumented simulation.

    ``categories`` selects which parts of the taxonomy are live
    (``None`` = all).  Components query ``wants(cat)`` once at
    construction and skip emission entirely for dead categories, so a
    partially-enabled tracer only pays for what it records.
    """

    enabled = True

    def __init__(
        self,
        env,
        categories: Optional[Tuple[str, ...]] = None,
        max_events: int = 1_000_000,
        sample_interval: float = 1.0,
        histogram_capacity: int = 2048,
    ):
        if categories is not None:
            unknown = set(categories) - set(TRACE_CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories: {sorted(unknown)}; "
                    f"known: {list(TRACE_CATEGORIES)}"
                )
        self._env = env
        self._cats = frozenset(
            TRACE_CATEGORIES if categories is None else categories
        )
        # Live categories in first-emission order: the emit gate and
        # the key order of ``counts``.
        self._seen: Dict[str, None] = {}
        self._cols: Tuple[list, list, list, list] = ([], [], [], [])
        self.events = _EventView(self._cols)
        self.spans: List[Span] = []
        self._dropped: Dict[str, int] = {}
        self._budget = max_events
        self._next_span_id = 0
        self.metrics = MetricsRegistry(
            sample_interval=sample_interval,
            histogram_capacity=histogram_capacity,
        )

    @property
    def counts(self) -> Dict[str, int]:
        """Events and spans emitted per category, retained or dropped."""
        kept = Counter(self._cols[1])
        kept.update(s.cat for s in self.spans)
        dropped = self._dropped
        return {c: kept[c] + dropped.get(c, 0) for c in self._seen}

    @property
    def dropped(self) -> int:
        """Events and spans emitted past the ``max_events`` budget."""
        return sum(self._dropped.values())

    # -- emission -----------------------------------------------------------------

    def wants(self, cat: str) -> bool:
        """True if ``cat`` events would be recorded; cache me as a bool."""
        return cat in self._cats

    def emit(self, cat: str, name: str, **args: object) -> None:
        """Record one point event at the current simulated time."""
        if cat not in self._seen:
            if cat not in self._cats:
                return
            self._seen[cat] = None
        now = self._env.now
        if self._budget > 0:
            self._budget -= 1
            ts, cats, names, argss = self._cols
            ts.append(now)
            cats.append(cat)
            names.append(name)
            argss.append(args or None)
        else:
            self._dropped[cat] = self._dropped.get(cat, 0) + 1
        metrics = self.metrics  # inlined MetricsRegistry.maybe_sample
        if not now - metrics._last < metrics.sample_interval:
            metrics.sample(now)

    def span(self, name: str, cat: str = "span", parent=None, **args) -> Span:
        """Open a span at ``env.now``; close with ``finish()``/``with``.

        ``parent`` is an open :class:`Span` (or a span id).  There is
        deliberately *no* implicit current-span stack: simulation
        processes interleave at every yield, so parentage must be
        threaded explicitly by the instrumented code.
        """
        if cat not in self._seen:
            if cat not in self._cats:
                return NULL_SPAN
            self._seen[cat] = None
        parent_id = parent.id if isinstance(parent, Span) else parent
        sid = self._next_span_id
        self._next_span_id += 1
        now = self._env.now
        span = Span(self, sid, name, cat, parent_id, now, args)
        if self._budget > 0:
            self._budget -= 1
            self.spans.append(span)
        else:
            self._dropped[cat] = self._dropped.get(cat, 0) + 1
        metrics = self.metrics  # inlined MetricsRegistry.maybe_sample
        if not now - metrics._last < metrics.sample_interval:
            metrics.sample(now)
        return span

    # -- export -------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        """Summary + metrics dump for ``ScenarioResult``/artifacts.

        Raw events are *not* embedded (use the Chrome/JSONL exporters in
        :mod:`repro.obs.export`); this is the bounded summary that is
        safe to persist with every run.
        """
        self.metrics.sample(self._env.now, force=True)
        return {
            "events": dict(sorted(self.counts.items())),
            "n_events": len(self.events),
            "n_spans": len(self.spans),
            "dropped": self.dropped,
            "metrics": self.metrics.export(),
        }


class NullTracer:
    """The disabled fast path: every operation is a no-op.

    Use the module singleton :data:`NULL_TRACER`; components written as
    ``tr = env.tracer or NULL_TRACER`` never need a None check.
    """

    enabled = False

    def wants(self, cat: str) -> bool:
        return False

    def emit(self, cat: str, name: str, **args: object) -> None:
        pass

    def span(self, name: str, cat: str = "span", parent=None, **args) -> _NullSpan:
        return NULL_SPAN

    def export(self) -> Dict[str, object]:
        return {}


NULL_TRACER = NullTracer()
