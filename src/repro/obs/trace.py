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

Retained rows live in **schema lanes**.  A lane holds one
``(category, name, field names)`` schema as a ``ts`` column plus one
plain list per field, and an array of lane ids keeps emission order
across lanes, so a retained event costs a few list slots and no dict,
tuple or object of its own (and nothing for the cyclic GC to walk).
:meth:`Tracer.emit` and the positional :meth:`Tracer.recorder` the hot
emitters bind at construction write the same lanes through the same
code.  Spans use span lanes the same way, plus id-indexed lane, parent
and end columns; a :class:`Span` is a two-slot handle over them.
``Tracer.events`` and ``Tracer.spans`` are read-only views that
rebuild rows and :class:`SpanRecord`\\ s on access, and
:meth:`Tracer.select` reads only the lanes a consumer names.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TRACE_CATEGORIES",
    "Span",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

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

Row = Tuple[float, str, str, Optional[Dict[str, object]]]


class SpanRecord(NamedTuple):
    """One retained span, as :attr:`Tracer.spans` yields it."""

    id: int
    name: str
    cat: str
    parent: Optional[int]
    start: float
    end: Optional[float]
    args: Dict[str, object]


def _record_field(field: str) -> property:
    return property(
        lambda self: getattr(self.record(), field),
        doc=f"The span's ``{field}``, read from the tracer's columns.",
    )


class Span:
    """Handle on one traced interval, closed by ``finish()`` or ``with``.

    Holds only the span id and its tracer; the span's fields live in
    the tracer's columns (``record()`` and the ``name``/``cat``/
    ``parent``/``start``/``end``/``args`` properties read them back).
    A span opened past ``max_events`` keeps its id, so its children
    still name it as parent, but it is not retained: ``finish()`` is a
    no-op and reading its fields raises :class:`IndexError`.
    """

    __slots__ = ("id", "_tracer")

    def __init__(self, tracer: "Tracer", span_id: int):
        self.id = span_id
        self._tracer = tracer

    name = _record_field("name")
    cat = _record_field("cat")
    parent = _record_field("parent")
    start = _record_field("start")
    end = _record_field("end")
    args = _record_field("args")

    def record(self) -> SpanRecord:
        """The span as retained so far (``end`` is ``None`` while open)."""
        return self._tracer.spans[self.id]

    def finish(self, **extra: object) -> None:
        """Close the span at the current simulated time (idempotent)."""
        tracer = self._tracer
        ends = tracer._span_end
        sid = self.id
        if sid < len(ends) and ends[sid] is None:
            ends[sid] = tracer._env.now
            if extra:
                fields = tuple(extra)
                store = tracer._extras.get(fields)
                if store is None:
                    store = tracer._extras[fields] = (
                        array("I"), [[] for _ in fields]
                    )
                store[0].append(sid)
                for col, value in zip(store[1], extra.values()):
                    col.append(value)

    def child(self, name: str, **args: object) -> "Span":
        """Open a child span parented to this one."""
        return self._tracer.span(name, parent=self.id, **args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:
        if self.id >= len(self._tracer.spans):
            return f"<Span #{self.id} (dropped)>"
        r = self.record()
        return (
            f"<Span #{r.id} {r.name!r} [{r.start}, {r.end}]"
            f"{'' if r.parent is None else f' parent={r.parent}'}>"
        )


class _NullSpan:
    """Span stand-in for a dead category (and :class:`NullTracer`)."""

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


def _ignore(*values: object) -> None:
    """The recorder of a dead category."""


class _Lane:
    """One row schema: a ``ts`` column plus one list per field.

    A span lane's ``ts`` is the start time and its first field is
    ``parent`` (a keyword ``span()`` never passes through ``args``).
    """

    __slots__ = ("id", "cat", "name", "fields", "ts", "cols")

    def __init__(self, lane_id: int, cat: str, name: str, fields: Tuple[str, ...]):
        self.id = lane_id
        self.cat = cat
        self.name = name
        self.fields = fields
        self.ts: list = []
        self.cols: List[list] = [[] for _ in fields]

    def row(self, i: int) -> Tuple[float, tuple]:
        return self.ts[i], tuple(col[i] for col in self.cols)


def _event_rows(lane: _Lane) -> Iterator[Row]:
    """An event lane's rows, in emission order."""
    cat, name, fields = lane.cat, lane.name, lane.fields
    if not fields:
        return ((ts, cat, name, None) for ts in lane.ts)
    return (
        (ts, cat, name, dict(zip(fields, values)))
        for ts, values in zip(lane.ts, zip(*lane.cols))
    )


@lru_cache(maxsize=None)
def _recorder_factory(arity: int, span: bool) -> Callable:
    """Compile the recorder of an ``arity``-field lane.

    Generated once per shape (as ``collections.namedtuple`` generates
    its methods) so each field is one bound ``append`` call, with no
    per-row loop, tuple or dict.  A retained row marks its lane id in
    the order array (events) or the span-lane column, where a span
    also opens its ``end`` slot.  Only the arity is spliced into the
    source, never a field name.
    """
    values = ", ".join(f"v{i}" for i in range(arity))
    appends = "".join(f", a{i}" for i in range(arity))
    stores = "".join(f"            a{i}(v{i})\n" for i in range(arity))
    source = (
        "def factory(tracer, seen, cat, env, metrics, dropped,"
        f" mark, lane, open_end, ts{appends}):\n"
        f"    def record({values}):\n"
        "        if cat not in seen:\n"
        "            seen[cat] = None\n"
        "        now = env.now\n"
        "        if tracer._budget > 0:\n"
        "            tracer._budget -= 1\n"
        "            mark(lane)\n"
        + ("            open_end(None)\n" if span else "")
        + "            ts(now)\n"
        f"{stores}"
        "        else:\n"
        "            dropped[cat] = dropped.get(cat, 0) + 1\n"
        "        # inlined MetricsRegistry.maybe_sample\n"
        "        if not now - metrics._last < metrics.sample_interval:\n"
        "            metrics.sample(now)\n"
        "    return record\n"
    )
    namespace: Dict[str, object] = {}
    exec(source, namespace)
    return namespace["factory"]


class _EventView(Sequence):
    """Read-only ``(ts, cat, name, args)`` rows over a tracer's lanes.

    Supports ``len``, iteration (in emission order), indexing and
    slicing (a slice is a list of rows); rows are rebuilt on access,
    so the retained trace itself holds no per-event tuple or dict.
    Indexing walks the order array: iterate for bulk reads.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._order)

    def __iter__(self) -> Iterator[Row]:
        nexts = [_event_rows(lane).__next__ for lane in self._tracer._lanes]
        for lane_id in self._tracer._order:
            yield nexts[lane_id]()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        order = self._tracer._order
        lane_id = order[i]
        if i < 0:
            i += len(order)
        lane = self._tracer._lanes[lane_id]
        ts, values = lane.row(order[:i].count(lane_id))
        args = dict(zip(lane.fields, values)) if lane.fields else None
        return ts, lane.cat, lane.name, args


class _SpanView(Sequence):
    """Read-only :class:`SpanRecord`\\ s, in span-id order.

    A retained span's id is its index: ids count every span opened,
    and once the budget runs out nothing later is retained.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._span_lane)

    def __iter__(self) -> Iterator[SpanRecord]:
        tracer = self._tracer
        # Finish extras are stored in finish order: index them by span
        # id (int -> int maps, which the cyclic GC never tracks).
        stores = list(tracer._extras.items())
        store_of: Dict[int, int] = {}
        row_of: List[Dict[int, int]] = []
        for k, (_, (sids, _)) in enumerate(stores):
            store_of.update(zip(sids, repeat(k)))
            row_of.append(dict(zip(sids, range(len(sids)))))
        nexts, names, heads = [], [], []
        for lane in tracer._span_lanes:
            parents, *cols = lane.cols
            values = zip(*cols) if cols else repeat(())
            nexts.append(zip(lane.ts, parents, values).__next__)
            names.append(lane.fields[1:])
            heads.append((lane.name, lane.cat))
        new = tuple.__new__  # SpanRecord._make without the call
        for sid, (lane_id, end) in enumerate(
            zip(tracer._span_lane, tracer._span_end)
        ):
            start, parent, values = nexts[lane_id]()
            args = dict(zip(names[lane_id], values))
            k = store_of.get(sid)
            if k is not None:
                fields, (_, cols) = stores[k]
                j = row_of[k][sid]
                args.update(zip(fields, [col[j] for col in cols]))
            name, cat = heads[lane_id]
            yield new(SpanRecord, (sid, name, cat, parent, start, end, args))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        tracer = self._tracer
        n = len(tracer._span_lane)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(
                f"span #{i} is not retained (opened past max_events)"
            )
        lane_id = tracer._span_lane[i]
        lane = tracer._span_lanes[lane_id]
        start, (parent, *values) = lane.row(
            tracer._span_lane[:i].count(lane_id)
        )
        args = dict(zip(lane.fields[1:], values))
        for fields, (sids, cols) in tracer._extras.items():
            if i in sids:
                j = sids.index(i)
                args.update(zip(fields, (col[j] for col in cols)))
                break
        return SpanRecord(
            i, lane.name, lane.cat, parent, start, tracer._span_end[i], args
        )


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
        # Live categories in first-emission order: the key order of
        # ``counts``.
        self._seen: Dict[str, None] = {}
        self._dropped: Dict[str, int] = {}
        self._budget = max_events
        # Event lanes, the recorder writing each ``(cat, name, *fields)``
        # schema, and the lane id of every retained event in order.
        self._lanes: List[_Lane] = []
        self._recorders: Dict[tuple, Callable] = {}
        self._order = array("I")
        # Span lanes and their recorders, and per retained span (index
        # = span id) its lane and end time; ``finish(**extra)`` fields
        # go to ``_extras``: field names -> (span ids, one list each).
        self._span_lanes: List[_Lane] = []
        self._span_recorders: Dict[tuple, Callable] = {}
        self._span_lane = array("I")
        self._span_end: list = []
        self._extras: Dict[Tuple[str, ...], Tuple[array, List[list]]] = {}
        self._next_span_id = 0
        self.events = _EventView(self)
        self.spans = _SpanView(self)
        self.metrics = MetricsRegistry(
            sample_interval=sample_interval,
            histogram_capacity=histogram_capacity,
        )

    @property
    def counts(self) -> Dict[str, int]:
        """Events and spans emitted per category, retained or dropped."""
        kept: Counter = Counter()
        for lane in self._lanes + self._span_lanes:
            kept[lane.cat] += len(lane.ts)
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

    def _lane_recorder(
        self, lanes: List[_Lane], span: bool, cat: str, name: str,
        fields: Tuple[str, ...],
    ) -> Callable[..., None]:
        if len(set(fields)) != len(fields):
            raise ValueError(f"duplicate field in {fields!r}")
        lane = _Lane(len(lanes), cat, name, fields)
        lanes.append(lane)
        mark = (self._span_lane if span else self._order).append
        return _recorder_factory(len(fields), span)(
            self, self._seen, cat, self._env, self.metrics, self._dropped,
            mark, lane.id, self._span_end.append, lane.ts.append,
            *(col.append for col in lane.cols),
        )

    def recorder(self, cat: str, name: str, *fields: str) -> Callable[..., None]:
        """A positional emitter for one event schema.

        ``rec = tracer.recorder("kernel", "pop", "t", "prio", "depth")``
        then ``rec(t, prio, depth)`` records exactly what
        ``emit("kernel", "pop", t=t, prio=prio, depth=depth)`` would,
        into the same lane, without building a keyword dict.  Hot
        emitters bind one at construction beside their cached
        ``wants()`` flag; a dead category gets a no-op.
        """
        if cat not in self._cats:
            return _ignore
        key = (cat, name, *fields)
        rec = self._recorders.get(key)
        if rec is None:
            rec = self._recorders[key] = self._lane_recorder(
                self._lanes, False, cat, name, fields
            )
        return rec

    def emit(self, cat: str, name: str, **args: object) -> None:
        """Record one point event at the current simulated time."""
        rec = self._recorders.get((cat, name, *args))
        if rec is None:
            if cat not in self._cats:
                return
            rec = self.recorder(cat, name, *args)
        rec(*args.values())

    def span(self, name: str, cat: str = "span", parent=None, **args) -> Span:
        """Open a span at ``env.now``; close with ``finish()``/``with``.

        ``parent`` is an open :class:`Span` (or a span id); a span of a
        dead category records no parent.  There is deliberately *no*
        implicit current-span stack: simulation processes interleave at
        every yield, so parentage must be threaded explicitly by the
        instrumented code.
        """
        if cat not in self._cats:
            return NULL_SPAN
        if isinstance(parent, Span):
            parent = parent.id
        elif parent is NULL_SPAN:
            parent = None
        rec = self._span_recorders.get((cat, name, *args))
        if rec is None:
            rec = self._span_recorders[(cat, name, *args)] = (
                self._lane_recorder(
                    self._span_lanes, True, cat, name, ("parent", *args)
                )
            )
        sid = self._next_span_id
        self._next_span_id = sid + 1
        rec(parent, *args.values())
        return Span(self, sid)

    # -- reading ------------------------------------------------------------------

    def select(self, cat: str, name: Optional[str] = None) -> Iterator[Row]:
        """The ``(ts, cat, name, args)`` rows of one category (and name).

        Reads only the matching lanes, in emission order; consumers
        that want a few schemas out of a large trace use this instead
        of rebuilding every row of :attr:`events`.
        """
        lanes = [
            lane
            for lane in self._lanes
            if lane.ts and lane.cat == cat and (name is None or lane.name == name)
        ]
        if len(lanes) <= 1:
            return _event_rows(lanes[0]) if lanes else iter(())
        nexts = {lane.id: _event_rows(lane).__next__ for lane in lanes}
        return (nexts[i]() for i in self._order if i in nexts)

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

    def recorder(self, cat: str, name: str, *fields: str) -> Callable[..., None]:
        return _ignore

    def emit(self, cat: str, name: str, **args: object) -> None:
        pass

    def span(self, name: str, cat: str = "span", parent=None, **args) -> _NullSpan:
        return NULL_SPAN

    def export(self) -> Dict[str, object]:
        return {}


NULL_TRACER = NullTracer()
