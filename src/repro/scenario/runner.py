"""Execute a declarative scenario: the single ``run()`` entrypoint.

``run_scenario`` owns everything that used to be hand-wired per
experiment module: deployment construction (always on a **fresh**
topology built from the spec's preset -- site-cap and fault-latency
edits mutate topologies in place, so sharing one between runs leaks
state), metadata-controller setup, fault-injector wiring, dispatch to
the right execution surface (workflow engine / synthetic benchmark /
multi-tenant workload runner) and stats collection into one
:class:`ScenarioResult`.

The dispatch preserves the seed-exact code paths bit-for-bit: a
spec-driven run issues exactly the calls the pre-spec plumbing did
(pinned by the golden equivalence tests in
``tests/experiments/test_seed_compat.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.deployment import Deployment
from repro.elastic import ElasticController, ElasticReport, ElasticSignals
from repro.cloud.faults import (
    FaultEvent,
    LatencySpikeInjector,
    LinkFlapInjector,
    RegionOutage,
    SiteOutage,
)
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController
from repro.obs import RunAnalysis, Tracer, analyze_tracer
from repro.scenario.slo import SLOReport, evaluate_slo
from repro.scenario.spec import ScenarioSpec
from repro.sim import Environment
from repro.util.units import MB
from repro.workflow.engine import WorkflowEngine
from repro.workload.runner import WorkloadRunner

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: the surface result plus run context.

    ``result`` is the surface's native result object
    (:class:`~repro.workflow.engine.WorkflowResult`,
    :class:`~repro.experiments.synthetic.SyntheticResult` or
    :class:`~repro.workload.result.WorkloadResult`); the wrapper adds
    what the spec layer owns -- the resolved scheduler/admission names,
    the fault events that actually fired, WAN accounting, execution
    provenance (flow-solver mode, processed-event count) and, when tracing was on, the observability summary plus the
    live tracer for the Chrome/JSONL exporters.
    """

    spec: ScenarioSpec
    result: object
    scheduler: str = ""
    admission: Optional[str] = None
    fault_events: Tuple[FaultEvent, ...] = ()
    wan_bytes: int = 0
    provenance: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Dict[str, object]] = None
    #: Post-run trace analysis (critical paths, attribution buckets,
    #: utilization; None when tracing was off or spans were not
    #: recorded).  A pure consumer of the trace -- computing it cannot
    #: change any metric.
    analysis: Optional[RunAnalysis] = None
    #: SLO verdicts (None when the spec declares no objectives).
    slo: Optional[SLOReport] = None
    #: Elastic control-plane report: actions taken, capacity paid
    #: (None when ``spec.elasticity`` is disabled).
    elastic: Optional[ElasticReport] = None
    #: The live tracer (None when tracing was off).  Not serialized --
    #: the exporters in ``repro.obs.export`` consume it directly.
    tracer: Optional[Tracer] = field(default=None, repr=False)

    @property
    def surface(self) -> str:
        return self.spec.surface

    @property
    def makespan(self) -> float:
        return self.result.makespan

    def to_dict(self, include_ops: bool = False) -> Dict[str, object]:
        """JSON artifact form; see ``repro.results.serialize``."""
        from repro.results.serialize import scenario_result_to_dict

        return scenario_result_to_dict(self, include_ops=include_ops)

    def render(self) -> str:
        """The human-readable report (same tables as the CLI)."""
        from repro.experiments.charts import bar_chart
        from repro.experiments.reporting import render_table

        res = self.result
        if self.surface == "workload":
            text = res.render()
        elif self.surface == "synthetic":
            text = render_table(
                ["metric", "value"],
                [
                    ["strategy", res.strategy],
                    ["nodes", res.n_nodes],
                    ["total ops", res.total_ops],
                    ["makespan (s)", res.makespan],
                    ["throughput (ops/s)", res.throughput],
                    ["mean node time (s)", res.mean_node_time],
                    ["local fraction", f"{res.ops.local_fraction:.0%}"],
                    ["read retries", res.ops.total_retries],
                ],
                title="synthetic reader/writer benchmark",
            )
            text += "\n\n" + bar_chart(
                sorted(res.node_time_by_site().items()),
                title="mean node time by site (s)",
                width=40,
            )
        else:
            text = render_table(
                ["metric", "value"],
                [
                    ["workflow", res.workflow],
                    ["strategy", res.strategy],
                    ["scheduler", self.scheduler],
                    ["tasks", len(res.task_results)],
                    ["makespan (s)", res.makespan],
                    ["metadata time (s)", res.total_metadata_time],
                    ["transfer time (s)", res.total_transfer_time],
                    ["local ops", f"{res.ops.local_fraction:.0%}"],
                ],
                title=f"run: {res.workflow} under {res.strategy}",
            )
            text += "\n\n" + bar_chart(
                sorted(res.tasks_per_site().items()),
                title="tasks per site",
                width=40,
            )
        if self.fault_events:
            lines = ["", "faults:"]
            lines.extend(
                f"  t={ev.at:8.2f}  {ev.kind:<22} {ev.target}"
                + (f"  {ev.detail}" if ev.detail else "")
                for ev in sorted(self.fault_events, key=lambda e: e.at)
            )
            text += "\n".join(lines)
        if self.slo is not None:
            text += "\n\n" + self.slo.render()
        if self.elastic is not None:
            text += "\n\n" + self.elastic.render()
        return text

    def __repr__(self) -> str:
        return (
            f"<ScenarioResult {self.spec.name} [{self.surface}] "
            f"makespan={self.makespan:.1f}s>"
        )


def _wire_faults(
    spec: ScenarioSpec,
    deployment: Deployment,
    registries: Optional[Dict[str, object]],
) -> List[object]:
    """Instantiate one injector per fault spec against the deployment.

    Registry-backed control-plane behaviour (service slots held during
    outages) engages when the strategy's registries are available;
    data-plane teardown is wired through the network unconditionally
    (a safe no-op under the slot model).
    """
    env = deployment.env
    network = deployment.network
    injectors: List[object] = []
    for f in spec.faults:
        if f.kind == "site_outage":
            injectors.append(
                SiteOutage(
                    env,
                    registry=(registries or {}).get(f.site),
                    start=f.start,
                    duration=f.duration,
                    network=network,
                    site=f.site,
                )
            )
        elif f.kind == "region_outage":
            injectors.append(
                RegionOutage(
                    env,
                    sites=f.sites,
                    region=f.region,
                    topology=deployment.topology,
                    registries=registries,
                    start=f.start,
                    duration=f.duration,
                    network=network,
                )
            )
        elif f.kind == "link_flap":
            injectors.append(
                LinkFlapInjector(
                    env, network, f.link[0], f.link[1], times=f.times
                )
            )
        else:  # latency_spike
            injectors.append(
                LatencySpikeInjector(
                    env,
                    deployment.topology,
                    f.link[0],
                    f.link[1],
                    start=f.start,
                    duration=f.duration,
                    factor=f.factor,
                )
            )
    return injectors


def _collect_events(injectors: List[object]) -> Tuple[FaultEvent, ...]:
    return tuple(ev for inj in injectors for ev in inj.events)


def _provenance(deployment: Deployment) -> Dict[str, object]:
    """Execution provenance: *how* the run was computed.

    These facts never change the simulated numbers (the flow solvers
    are pinned equivalent by goldens), which is exactly why they are
    recorded separately from ``metrics`` -- ``repro.cli diff`` surfaces
    a solver swap without flagging the results.
    """
    network = deployment.network
    flow_solver = (
        f"fair/{network.flow_net.solver}"
        if network.flow_net is not None
        else "slots"
    )
    return {
        "flow_solver": flow_solver,
        "events_processed": deployment.env.events_processed,
    }


def _finalize(result: ScenarioResult) -> ScenarioResult:
    """Post-run passes: trace analysis and SLO judgement.

    Both are strictly read-only consumers of the finished run (no
    simulation RNG, no events), so a finalized run's metrics are
    bit-for-bit the metrics of the bare run -- pinned by
    ``tests/obs/test_analyze.py``.
    """
    tracer = result.tracer
    if tracer is not None and tracer.wants("span"):
        result.analysis = analyze_tracer(tracer)
    if result.spec.slo is not None and not result.spec.slo.empty:
        result.slo = evaluate_slo(result.spec.slo, result)
    return result


def _elastic_signals(spec: ScenarioSpec) -> ElasticSignals:
    """Workload-surface sensors, fed deadline targets from the SLO spec."""
    slo = spec.slo
    return ElasticSignals(
        tenant_deadlines=(
            dict(slo.tenant_deadlines) if slo is not None else {}
        ),
        run_deadline_s=slo.deadline_s if slo is not None else None,
    )


def _start_elastic(
    spec: ScenarioSpec,
    deployment: Deployment,
    cluster,
    signals: Optional[ElasticSignals],
    tracer: Optional[Tracer],
) -> Optional[ElasticController]:
    """Construct and start the control loop (None when disabled)."""
    if not spec.elasticity.enabled:
        return None
    controller = ElasticController(
        deployment,
        cluster,
        spec.elasticity,
        signals=signals,
        tracer=tracer,
    )
    controller.start()
    return controller


def _build_workflow(spec: ScenarioSpec):
    """The workflow-surface DAG, built exactly like the CLI built it."""
    if spec.workflow_file is not None:
        from repro.workflow.serialization import load_workflow

        return load_workflow(spec.workflow_file)
    from repro.scenario.spec import WORKFLOW_BUILDERS

    builder = WORKFLOW_BUILDERS[spec.application]
    kwargs = {"ops_per_task": spec.ops_per_task}
    if spec.compute_time is not None:
        kwargs["compute_time"] = spec.compute_time
    return builder(**kwargs)


def run_scenario(
    spec: ScenarioSpec,
    quick: bool = False,
    workflow=None,
    config_base: Optional[MetadataConfig] = None,
) -> ScenarioResult:
    """Validate ``spec`` and execute it end to end.

    Parameters
    ----------
    quick:
        Run the :meth:`~repro.scenario.spec.ScenarioSpec.quick`
        reduction of the spec (CI-friendly op volumes, same shape).
    workflow:
        Workflow surface only: a pre-built
        :class:`~repro.workflow.dag.Workflow` to execute instead of
        the spec's ``application``/``workflow_file`` (used by
        experiment harnesses with bespoke DAGs).
    config_base:
        Optional :class:`MetadataConfig` supplying defaults that the
        spec's own pins override (the ``base=`` merge the legacy
        ``from_*_args`` chain performed).
    """
    spec.validate()
    if quick:
        spec = spec.quick()
    if workflow is not None and spec.surface != "workflow":
        raise ValueError(
            "a pre-built workflow applies to the workflow surface only"
        )
    config = spec.to_metadata_config(base=config_base)
    net = spec.network
    # The tracer must be attached before the deployment is built:
    # network/registry/engine components cache their tracer category
    # flags at construction time.
    env = Environment()
    tracer: Optional[Tracer] = None
    obs = spec.observability
    if obs.enabled:
        tracer = Tracer(
            env,
            categories=obs.categories,
            max_events=obs.max_events,
            sample_interval=obs.sample_interval,
            histogram_capacity=obs.histogram_capacity,
        )
        env.attach_tracer(tracer)
    deployment = Deployment(
        env=env,
        topology=spec.topology.build(),
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        bandwidth_model=net.bandwidth_model or "slots",
        site_egress_bw=(
            net.egress_cap_mb * MB if net.egress_cap_mb is not None else None
        ),
        site_ingress_bw=(
            net.ingress_cap_mb * MB
            if net.ingress_cap_mb is not None
            else None
        ),
        rpc_flow_weight=net.rpc_flow_weight,
    )

    if spec.surface == "synthetic":
        # The synthetic harness owns its controller, so outages here
        # are data-plane-only (no registries to hold slots on).
        injectors = _wire_faults(spec, deployment, registries=None)
        # Imported lazily: the experiments package sits above the
        # scenario layer (its compare modules consume specs).
        from repro.experiments.synthetic import run_synthetic_workload

        result = run_synthetic_workload(
            spec.strategy.name,
            n_nodes=spec.n_nodes,
            ops_per_node=spec.ops_per_node,
            seed=spec.seed,
            config=config,
            deployment=deployment,
        )
        return _finalize(
            ScenarioResult(
                spec=spec,
                result=result,
                fault_events=_collect_events(injectors),
                provenance=_provenance(deployment),
                obs=tracer.export() if tracer is not None else None,
                tracer=tracer,
            )
        )

    controller = ArchitectureController(
        deployment, strategy=spec.strategy.name, config=config
    )
    injectors = _wire_faults(
        spec, deployment, registries=controller.strategy.registries
    )
    if spec.surface == "workflow":
        engine = WorkflowEngine(
            deployment,
            controller.strategy,
            input_site=spec.scheduler.input_site,
        )
        # Workflow surface has no admission layer, so the autoscaler
        # senses queue depth only (signals=None).
        elastic = _start_elastic(
            spec, deployment, engine.cluster, None, tracer
        )
        result = engine.run(
            workflow if workflow is not None else _build_workflow(spec)
        )
        controller.shutdown()
        return _finalize(
            ScenarioResult(
                spec=spec,
                result=result,
                scheduler=engine.policy.name,
                fault_events=_collect_events(injectors),
                wan_bytes=engine.transfer.wan_bytes,
                provenance=_provenance(deployment),
                obs=tracer.export() if tracer is not None else None,
                elastic=(
                    elastic.finalize() if elastic is not None else None
                ),
                tracer=tracer,
            )
        )

    signals = (
        _elastic_signals(spec) if spec.elasticity.enabled else None
    )
    runner = WorkloadRunner(
        deployment, controller.strategy, elastic_signals=signals
    )
    elastic = _start_elastic(
        spec, deployment, runner.engine.cluster, signals, tracer
    )
    result = runner.run(spec.workload)
    controller.shutdown()
    return _finalize(
        ScenarioResult(
            spec=spec,
            result=result,
            scheduler=result.scheduler,
            admission=result.admission,
            fault_events=_collect_events(injectors),
            wan_bytes=result.wan_bytes,
            provenance=_provenance(deployment),
            obs=tracer.export() if tracer is not None else None,
            elastic=elastic.finalize() if elastic is not None else None,
            tracer=tracer,
        )
    )
