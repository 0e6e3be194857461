"""Per-layer attribution of host time, from outside the simulator.

:func:`install` wraps the public entry points of each layer *on the
classes* before a scenario is built (components bind methods and cache
tracer flags at construction), and returns a function that restores the
originals.  Every wrapper pushes a frame on one shared stack, so a
layer's self time is its inclusive time minus the wrapped layers nested
inside it.  Generator entry points (simulation processes) are timed per
resumption: the wrapper forwards ``send``, ``throw`` and the return
value, and the kernel's own time between resumptions is not charged to
them.  ``sim.core`` is ``Environment.run``'s inclusive time minus every
wrapped child, so it also holds the unwrapped process bodies the kernel
resumes (task lifecycles, reader/writer loops, tenant arrivals).

Spans are aggregated in memory -- per key: calls, inclusive and self
seconds, plus the time each key spent nested under each parent key --
and written out by the caller once the runs are over.  Nothing here
schedules events or consumes randomness; the benchmark's tests check
that a traced run's outputs equal the untraced run's.

Counts come from the program's own public stats where it keeps them
(``provenance["events_processed"]``, ``NetworkStats``, ``FlowStats``,
``OpStats``, ``ElasticReport``, ``tracer.counts``) and from the wrappers'
call counts otherwise.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LAYER_METRICS",
    "LayerClock",
    "bypass_problems",
    "install",
    "layer_metrics",
    "layer_seconds",
    "summarize",
]

#: Every per-layer metric: (name, unit, better, what it should move,
#: workloads on which it must read exactly zero).
LAYER_METRICS: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("sim.core.events", "count", "lower",
     "run_s on metadata_rw, then wan_fanout and tenants_traced", ()),
    ("sim.core.self_s", "s", "lower",
     "run_s on metadata_rw, then wan_fanout and tenants_traced", ()),
    ("sim.core.us_per_event", "us", "lower",
     "run_s on metadata_rw, then wan_fanout and tenants_traced", ()),
    ("sim.resources.acquires", "count", "lower", "run_s on metadata_rw", ()),
    ("sim.resources.fast_path_ratio", "ratio", "higher",
     "run_s on metadata_rw", ()),
    ("sim.resources.self_s", "s", "lower", "run_s on metadata_rw", ()),
    ("cloud.network.rpcs", "count", "lower", "run_s on metadata_rw", ()),
    ("cloud.network.rpcs_same_site", "count", "lower",
     "run_s on metadata_rw", ()),
    ("cloud.network.transfers", "count", "lower", "run_s on metadata_rw", ()),
    ("cloud.network.self_s", "s", "lower", "run_s on metadata_rw", ()),
    ("cloud.flow.rebalances", "count", "lower", "run_s on wan_fanout",
     ("metadata_rw", "tenants_traced")),
    ("cloud.flow.estimates", "count", "lower", "run_s on wan_fanout",
     ("metadata_rw", "tenants_traced")),
    ("cloud.flow.flows", "count", "lower", "run_s on wan_fanout",
     ("metadata_rw", "tenants_traced")),
    ("cloud.flow.self_s", "s", "lower", "run_s on wan_fanout",
     ("metadata_rw", "tenants_traced")),
    ("cloud.flow.us_per_rebalance", "us", "lower", "run_s on wan_fanout",
     ("metadata_rw", "tenants_traced")),
    ("metadata.registry.serves", "count", "lower", "run_s on metadata_rw",
     ()),
    ("metadata.registry.self_s", "s", "lower", "run_s on metadata_rw", ()),
    ("metadata.strategies.reads", "count", "lower", "run_s on metadata_rw",
     ()),
    ("metadata.strategies.writes", "count", "lower", "run_s on metadata_rw",
     ()),
    ("metadata.strategies.read_self_s", "s", "lower",
     "run_s on metadata_rw", ()),
    ("metadata.strategies.write_self_s", "s", "lower",
     "run_s on metadata_rw", ()),
    ("metadata.strategies.local_fraction", "ratio", "higher",
     "run_s on metadata_rw", ()),
    ("scheduling.placements", "count", "lower",
     "run_s on wan_fanout, then tenants_traced", ("metadata_rw",)),
    ("scheduling.self_s", "s", "lower",
     "run_s on wan_fanout, then tenants_traced", ("metadata_rw",)),
    ("storage.fetches", "count", "lower", "run_s on wan_fanout",
     ("metadata_rw",)),
    ("storage.self_s", "s", "lower", "run_s on wan_fanout", ("metadata_rw",)),
    ("workflow.tasks", "count", "lower", "run_s on wan_fanout",
     ("metadata_rw",)),
    ("workflow.self_s", "s", "lower", "run_s on wan_fanout",
     ("metadata_rw",)),
    ("workload.admits", "count", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("workload.self_s", "s", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("elastic.decisions", "count", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("elastic.fleet_changes", "count", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("elastic.self_s", "s", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("obs.trace_events", "count", "lower",
     "run_s and peak_rss_mb on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("obs.trace_events_per_event", "ratio", "lower",
     "run_s and peak_rss_mb on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("obs.emit_self_s", "s", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("obs.analyze_s", "s", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("obs.slo_s", "s", "lower", "run_s on tenants_traced",
     ("metadata_rw", "wan_fanout")),
    ("scenario.build_s", "s", "lower", "run_s on all three workloads", ()),
    ("scenario.import_s", "s", "lower", "setup_s on all three workloads",
     ()),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced run_s over untraced run_s, the cost of this tracing",
     ()),
)


class LayerClock:
    """Aggregated spans of the wrapped entry points, plus call tallies.

    Wrappers close over the per-key lists, so :meth:`reset` zeroes them
    in place between runs instead of rebinding them.
    """

    def __init__(self) -> None:
        self.keys: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.incl: List[float] = []
        self.self_s: List[float] = []
        #: Child-time accumulators of the open frames, innermost last.
        self.stack: List[float] = []
        #: Key index of each open frame, innermost last.
        self.open_keys: List[int] = []
        #: (parent key index or -1, key index) -> seconds nested there.
        self.edges: Dict[Tuple[int, int], float] = {}
        self.tally: Dict[str, int] = {}
        #: Instances built during the run, for their public stats.
        self.networks: List[object] = []
        self.strategies: List[object] = []

    def reset(self) -> None:
        for i in range(len(self.keys)):
            self.calls[i] = 0
            self.incl[i] = 0.0
            self.self_s[i] = 0.0
        for held in (
            self.stack, self.open_keys, self.networks, self.strategies
        ):
            del held[:]
        self.edges.clear()
        self.tally.clear()

    def key(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.keys)
            self.keys.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return self._index[name]

    def count(self, name: str, n: int = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + n

    def seconds(self, name: str, inclusive: bool = False) -> float:
        k = self._index.get(name)
        if k is None:
            return 0.0
        return (self.incl if inclusive else self.self_s)[k]

    def calls_of(self, name: str) -> int:
        k = self._index.get(name)
        return 0 if k is None else self.calls[k]

    def spans(self) -> List[Dict[str, object]]:
        """The aggregated span tree, for writing out after the runs."""
        keys = self.keys
        return [
            {
                "parent": keys[p] if p >= 0 else None,
                "key": keys[k],
                "seconds": secs,
            }
            for (p, k), secs in sorted(self.edges.items())
        ]

    # -- wrappers ----------------------------------------------------------

    def _close(self, k: int, t0: float) -> None:
        dt = perf_counter() - t0
        stack = self.stack
        self.self_s[k] += dt - stack.pop()
        self.incl[k] += dt
        open_keys = self.open_keys
        open_keys.pop()
        edge = (open_keys[-1] if open_keys else -1, k)
        self.edges[edge] = self.edges.get(edge, 0.0) + dt
        if stack:
            stack[-1] += dt

    def timed(
        self,
        fn: Callable,
        name: str,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; generators per resumption.

        ``on_return(args, result)`` runs after each completed call, with
        the return value of the generator for generator functions.
        """
        k = self.key(name)
        stack, open_keys, calls = self.stack, self.open_keys, self.calls
        close = self._close

        if inspect.isgeneratorfunction(fn):

            def drive(gen, args):
                send, throw = gen.send, gen.throw
                value, exc = None, None
                while True:
                    t0 = perf_counter()
                    stack.append(0.0)
                    open_keys.append(k)
                    try:
                        if exc is None:
                            target = send(value)
                        else:
                            target = throw(exc)
                    except StopIteration as stop:
                        close(k, t0)
                        if on_return is not None:
                            on_return(args, stop.value)
                        return stop.value
                    except BaseException:
                        close(k, t0)
                        raise
                    close(k, t0)
                    try:
                        value, exc = (yield target), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # forwarded into gen
                        value, exc = None, thrown

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[k] += 1
                gen = fn(*args, **kwargs)
                proxy = drive(gen, args)
                proxy.__name__ = gen.__name__
                proxy.__qualname__ = gen.__qualname__
                return proxy

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[k] += 1
                t0 = perf_counter()
                stack.append(0.0)
                open_keys.append(k)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(k, t0)
                if on_return is not None:
                    on_return(args, result)
                return result

        return wrapper


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo function."""
    # Import every module defining subclasses that override an entry
    # point, so they exist before the class tree is walked.
    for module in (
        "repro.elastic.policies",
        "repro.metadata.strategies",
        "repro.scheduling.policies",
        "repro.workload.admission",
    ):
        importlib.import_module(module)
    from repro.cloud.deployment import Deployment
    from repro.cloud.flow import FlowNetwork
    from repro.cloud.network import Network
    from repro.elastic.policies import ElasticityPolicy
    from repro.metadata.controller import ArchitectureController
    from repro.metadata.registry import MetadataRegistry
    from repro.metadata.strategies.base import MetadataStrategy
    from repro.obs.trace import Tracer
    from repro.scenario import runner as scenario_runner
    from repro.scenario.spec import ScenarioSpec, TopologySpec
    from repro.scheduling.base import PlacementPolicy
    from repro.sim.core import Environment
    from repro.sim.resources import Resource
    from repro.storage.transfer import TransferService
    from repro.workflow.engine import WorkflowEngine
    from repro.workload.admission import AdmissionController

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr, name, on_return=None):
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, clock.timed(original, name, on_return))

    def patch_tree(base, attrs, name, on_return=None):
        for cls in _subclasses(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    patch(cls, attr, name, on_return)

    def capture(owner, into):
        original = owner.__init__
        undo.append((owner, "__init__", original))

        @functools.wraps(original)
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            into.append(self)

        owner.__init__ = init

    def on_acquire(args, req):
        clock.count("resources.acquires")

    def on_try_acquire(args, req):
        if req is not None:
            clock.count("resources.acquires")
            clock.count("resources.fast_path")

    def on_rpc(args, result):
        if args[1] == args[2]:
            clock.count("network.rpcs_same_site")

    def on_execute(args, result):
        clock.count("workflow.tasks", len(result.task_results))

    patch(Environment, "run", "sim.core")
    patch_tree(Resource, ("request",), "sim.resources", on_acquire)
    patch_tree(Resource, ("try_acquire",), "sim.resources", on_try_acquire)
    patch_tree(Resource, ("release",), "sim.resources")
    patch(Network, "rpc", "cloud.network.rpc", on_rpc)
    patch(Network, "transfer", "cloud.network.transfer")
    patch(FlowNetwork, "rebalance", "cloud.flow.rebalance")
    patch(FlowNetwork, "estimate_rate", "cloud.flow.estimate_rate")
    for attr in sorted(MetadataRegistry.__dict__):
        if attr.startswith("serve_"):
            patch(MetadataRegistry, attr, "metadata.registry")
    patch_tree(MetadataStrategy, ("read",), "metadata.strategies.read")
    patch_tree(
        MetadataStrategy, ("write", "delete"), "metadata.strategies.write"
    )
    patch_tree(PlacementPolicy, ("place",), "scheduling")
    patch(TransferService, "fetch", "storage")
    patch(WorkflowEngine, "execute", "workflow", on_execute)
    patch_tree(AdmissionController, ("admit",), "workload")
    patch_tree(ElasticityPolicy, ("decide",), "elastic.decide")
    patch(Deployment, "add_vms", "elastic.fleet")
    patch(Deployment, "drain_vms", "elastic.fleet")
    patch(Tracer, "emit", "obs.emit")
    patch(Tracer, "span", "obs.emit")
    # The runner calls these two through its module globals.
    patch(scenario_runner, "analyze_tracer", "obs.analyze")
    patch(scenario_runner, "evaluate_slo", "obs.slo")
    patch(ScenarioSpec, "validate", "scenario.build")
    patch(TopologySpec, "build", "scenario.build")
    patch(Deployment, "__init__", "scenario.build")
    patch(ArchitectureController, "__init__", "scenario.build")
    capture(Network, clock.networks)
    capture(MetadataStrategy, clock.strategies)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        del undo[:]

    return uninstall


def layer_metrics(clock: LayerClock, result) -> Dict[str, float]:
    """Every per-layer count of one finished traced run.

    Times are not included: :func:`layer_seconds` gives those, and the
    caller takes their median over runs.
    """
    from repro.metadata.stats import OpKind

    events = int(result.provenance["events_processed"])
    networks = clock.networks
    flow_nets = [n.flow_net for n in networks if n.flow_net is not None]
    strategies = clock.strategies
    n_ops = sum(len(s.stats) for s in strategies)
    local = sum(s.stats.local_fraction * len(s.stats) for s in strategies)
    tracer = result.tracer
    trace_events = sum(tracer.counts.values()) if tracer is not None else 0
    acquires = clock.tally.get("resources.acquires", 0)
    elastic = result.elastic
    return {
        "sim.core.events": events,
        "sim.resources.acquires": acquires,
        "sim.resources.fast_path_ratio": (
            clock.tally.get("resources.fast_path", 0) / acquires
            if acquires
            else 0.0
        ),
        "cloud.network.rpcs": clock.calls_of("cloud.network.rpc"),
        "cloud.network.rpcs_same_site": clock.tally.get(
            "network.rpcs_same_site", 0
        ),
        "cloud.network.transfers": sum(n.stats.messages for n in networks),
        "cloud.flow.rebalances": sum(f.rebalances for f in flow_nets),
        "cloud.flow.estimates": clock.calls_of("cloud.flow.estimate_rate"),
        "cloud.flow.flows": sum(
            link.stats.flows for f in flow_nets for link in f.links.values()
        ),
        "metadata.registry.serves": sum(
            reg.ops_served
            for s in strategies
            for reg in s.registries.values()
        ),
        "metadata.strategies.reads": sum(
            s.stats.count_by_kind(OpKind.READ) for s in strategies
        ),
        "metadata.strategies.writes": sum(
            s.stats.count_by_kind(OpKind.WRITE) for s in strategies
        ),
        "metadata.strategies.local_fraction": local / n_ops if n_ops else 0.0,
        "scheduling.placements": clock.calls_of("scheduling"),
        "storage.fetches": clock.calls_of("storage"),
        "workflow.tasks": clock.tally.get("workflow.tasks", 0),
        "workload.admits": clock.calls_of("workload"),
        "elastic.decisions": clock.calls_of("elastic.decide"),
        "elastic.fleet_changes": (
            len(elastic.actions) if elastic is not None else 0
        ),
        "obs.trace_events": trace_events,
        "obs.trace_events_per_event": trace_events / events if events else 0.0,
    }


def layer_seconds(clock: LayerClock) -> Dict[str, float]:
    """Every per-layer time of one traced run, in seconds."""
    s = clock.seconds
    return {
        "sim.core.self_s": s("sim.core"),
        "sim.resources.self_s": s("sim.resources"),
        "cloud.network.self_s": s("cloud.network.rpc")
        + s("cloud.network.transfer"),
        "cloud.flow.self_s": s("cloud.flow.rebalance")
        + s("cloud.flow.estimate_rate"),
        "cloud.flow.rebalance_self_s": s("cloud.flow.rebalance"),
        "metadata.registry.self_s": s("metadata.registry"),
        "metadata.strategies.read_self_s": s("metadata.strategies.read"),
        "metadata.strategies.write_self_s": s("metadata.strategies.write"),
        "scheduling.self_s": s("scheduling"),
        "storage.self_s": s("storage"),
        "workflow.self_s": s("workflow"),
        "workload.self_s": s("workload"),
        "elastic.self_s": s("elastic.decide") + s("elastic.fleet"),
        "obs.emit_self_s": s("obs.emit"),
        "obs.analyze_s": s("obs.analyze", inclusive=True),
        "obs.slo_s": s("obs.slo", inclusive=True),
        "scenario.build_s": s("scenario.build", inclusive=True),
    }


def summarize(
    counts: Dict[str, float], seconds: List[Dict[str, float]]
) -> Dict[str, float]:
    """One run's counts plus the median of each time over ``seconds``
    (one :func:`layer_seconds` dict per traced run), with the per-event
    and per-rebalance rates derived from them."""
    metrics = dict(counts)
    for name in seconds[0]:
        metrics[name] = statistics.median(s[name] for s in seconds)
    rebalance_s = metrics.pop("cloud.flow.rebalance_self_s")
    events = metrics["sim.core.events"]
    metrics["sim.core.us_per_event"] = (
        metrics["sim.core.self_s"] / events * 1e6 if events else 0.0
    )
    rebalances = metrics["cloud.flow.rebalances"]
    metrics["cloud.flow.us_per_rebalance"] = (
        rebalance_s / rebalances * 1e6 if rebalances else 0.0
    )
    return metrics


def bypass_problems(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Layer metrics that must read zero on ``workload`` but do not."""
    return [
        f"{name} = {metrics[name]!r} on {workload}, expected 0"
        for name, _unit, _better, _target, zero_on in LAYER_METRICS
        if workload in zero_on and metrics.get(name) != 0
    ]
