"""The three benchmark workloads and the checks on their simulated outputs.

Every workload is built through the public scenario API
(``get_scenario(...).replace(...)``) and run through
``ScenarioSpec.run()``; the benchmark never reaches into the simulator's
internals to build or run one.  The workload seed is a benchmark
argument: it replaces the spec's ``seed`` (and, on the workload surface,
``workload.seed``), so one seed always gives the same inputs.

- ``metadata_rw``: the Section VI-B reader/writer benchmark at Fig. 5
  scale (registry ``paper_synthetic``: hybrid strategy, 32 nodes, 1000
  ops/node, slot WAN model, untraced).  A closed loop of 32 nodes inside
  the simulation, half writing and half reading, so metadata writes run
  beside reads.  Host time goes to the kernel, resources, network RPCs
  and the metadata layer; flow, scheduling, workflow and obs are
  bypassed.
- ``wan_fanout``: registry ``fanout_bandwidth_aware``: Montage on the
  heterogeneous fan-out WAN under fair-share flows with a 12 MB/s hub
  egress cap and bandwidth-aware placement.  Host time goes to the
  flow solver, scheduler rate probes and storage staging; metadata is a
  minor cost.
- ``tenants_traced``: an open-loop multi-tenant workload built from
  ``multi_tenant_slo``: 16 tenants with Poisson arrivals over five
  applications, ``max_in_flight`` admission, the predictive autoscaler
  of ``autoscale_ramp``, the program's own tracing on and the SLO spec.
  The only workload where obs, elastic, workload and admission do real
  work.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.cloud.presets import AZURE_4DC
from repro.results import result_metrics
from repro.scenario import WORKFLOW_BUILDERS, ScenarioSpec, get_scenario
from repro.workload.spec import APPLICATIONS, WorkloadSpec

__all__ = [
    "DEFAULT_SEEDS",
    "PINNED_PATH",
    "WORKLOADS",
    "build_spec",
    "check_result",
    "load_pins",
]

WORKLOADS = ("metadata_rw", "wan_fanout", "tenants_traced")

#: The seed each workload's registry scenario ships with.  Its
#: ``result_metrics`` are pinned in ``pinned.json``.
DEFAULT_SEEDS: Dict[str, int] = {
    "metadata_rw": 0,
    "wan_fanout": 11,
    "tenants_traced": 17,
}

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: tenants_traced sizing: 16 tenants x 8 instances, Poisson arrivals at
#: 0.5 per second per tenant.
TENANTS = 16
INSTANCES_PER_TENANT = 8
ARRIVAL_RATE = 0.5


def _tenants_traced(seed: int) -> ScenarioSpec:
    base = get_scenario("multi_tenant_slo")
    workload = WorkloadSpec.uniform(
        TENANTS,
        applications=(
            "montage-small",
            "buzzflow-small",
            "scatter",
            "pipeline",
            "ingest",
        ),
        mode="open",
        n_instances=INSTANCES_PER_TENANT,
        arrival_rate=ARRIVAL_RATE,
        input_sites=AZURE_4DC,
        ops_per_task=8,
        compute_time=0.25,
        seed=seed,
        name="tenants_traced",
    )
    return base.replace(
        name="tenants_traced",
        description="benchmark: open-loop tenants, autoscaled and traced",
        workload=workload,
        elasticity=get_scenario("autoscale_ramp").elasticity,
        seed=seed,
    )


def build_spec(workload: str, seed: int) -> ScenarioSpec:
    """The validated spec of ``workload`` under ``seed``."""
    if workload == "metadata_rw":
        spec = get_scenario("paper_synthetic").replace(seed=seed)
    elif workload == "wan_fanout":
        spec = get_scenario("fanout_bandwidth_aware").replace(seed=seed)
    elif workload == "tenants_traced":
        spec = _tenants_traced(seed)
    else:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    spec.validate()
    return spec


def load_pins() -> Dict[str, Dict[str, object]]:
    """workload -> {"seed": int, "metrics": result_metrics at that seed}."""
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def _invariant_problems(spec: ScenarioSpec, result) -> List[str]:
    """Seed-independent facts every correct run satisfies."""
    res = result.result
    problems: List[str] = []
    if spec.surface == "synthetic":
        want = spec.n_nodes * spec.ops_per_node
        if res.total_ops != want or len(res.ops) != want:
            problems.append(
                f"total_ops {res.total_ops} / recorded {len(res.ops)}"
                f" != n_nodes*ops_per_node {want}"
            )
    elif spec.surface == "workflow":
        kwargs = {"ops_per_task": spec.ops_per_task}
        if spec.compute_time is not None:
            kwargs["compute_time"] = spec.compute_time
        workflow = WORKFLOW_BUILDERS[spec.application](**kwargs)
        if len(res.task_results) != len(workflow.tasks):
            problems.append(
                f"{len(res.task_results)} of {len(workflow.tasks)} tasks "
                "completed"
            )
    else:
        tenants = {t.name: t for t in spec.workload.tenants}
        want = sum(t.n_instances for t in tenants.values())
        if res.n_completed != want:
            problems.append(
                f"{res.n_completed} of {want} tenant instances completed"
            )
        for record in res.records:
            tenant = tenants[record.tenant]
            n_tasks = len(APPLICATIONS[record.application](tenant).tasks)
            if len(record.result.task_results) != n_tasks:
                problems.append(
                    f"instance {record.run}: "
                    f"{len(record.result.task_results)} of {n_tasks} tasks"
                )
    if result.elastic is not None and result.elastic.stranded_tasks:
        problems.append(
            f"stranded_tasks = {result.elastic.stranded_tasks}"
        )
    return problems


def check_result(
    workload: str,
    spec: ScenarioSpec,
    result,
    reference: Dict[str, float],
) -> List[str]:
    """Problems with one run's outputs (empty when it is correct).

    ``reference`` is the pinned ``result_metrics`` on the default seed,
    or the first run's on any other seed; the comparison is float
    ``==`` on every key.
    """
    metrics = result_metrics(result)
    problems = _invariant_problems(spec, result)
    if metrics != reference:
        diff = sorted(
            k
            for k in set(metrics) | set(reference)
            if metrics.get(k) != reference.get(k)
        )
        problems.append(f"{workload}: result_metrics differ on {diff}")
    return problems
