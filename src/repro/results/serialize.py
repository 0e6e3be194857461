"""Result serialization: every experiment outcome as a JSON document.

The scenario layer made every experiment *description* serializable
(``ScenarioSpec.to_dict``); this module does the same for experiment
*outcomes*, so runs survive the process that produced them:

- :func:`scenario_result_to_dict` -- one
  :class:`~repro.scenario.runner.ScenarioResult` as a self-describing
  artifact (the spec, its content hash, surface payload, and a flat
  ``metrics`` mapping that ``repro.cli diff`` compares key by key);
- :func:`sweep_result_to_dict` / :func:`sweep_cell_to_dict` -- a whole
  sweep grid, errored cells included;
- :func:`synthetic_result_to_dict`, :func:`workflow_result_to_dict`
  and :func:`workload_result_to_dict` -- each surface's native payload
  (an artifact's ``result`` section).

Documents are plain dicts of JSON scalars/lists/dicts; wall-clock and
git-revision stamps are *not* part of these payloads (the
parallel-vs-serial bit-for-bit contract covers them) -- the
:class:`~repro.results.store.ResultStore` adds those under ``meta`` at
save time.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.metrics import summarize_ops
from repro.experiments.synthetic import SyntheticResult
from repro.metadata.stats import OpStats
from repro.scenario.runner import ScenarioResult
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepCell, SweepResult
from repro.workflow.engine import TaskResult, WorkflowResult
from repro.workload.result import WorkloadResult

__all__ = [
    "result_metrics",
    "scenario_result_to_dict",
    "spec_hash",
    "sweep_cell_to_dict",
    "sweep_result_to_dict",
    "synthetic_result_to_dict",
    "workflow_result_to_dict",
    "workload_result_to_dict",
]


def spec_hash(spec: ScenarioSpec) -> str:
    """The stable content hash artifacts are keyed by (module form).

    Function alias of :meth:`ScenarioSpec.spec_hash
    <repro.scenario.spec.ScenarioSpec.spec_hash>` for callers holding
    the results package rather than the spec.
    """
    return spec.spec_hash()


def synthetic_result_to_dict(result: SyntheticResult) -> Dict[str, Any]:
    """Flatten a synthetic reader/writer run (op trace excluded)."""
    return {
        "strategy": result.strategy,
        "n_nodes": result.n_nodes,
        "ops_per_node": result.ops_per_node,
        "total_ops": result.total_ops,
        "makespan": result.makespan,
        "throughput": result.throughput,
        "mean_node_time": result.mean_node_time,
        "node_times": [float(t) for t in result.node_times],
        "node_sites": list(result.node_sites),
        "node_time_by_site": result.node_time_by_site(),
    }


def _ops_to_records(stats: OpStats) -> List[Dict[str, Any]]:
    return [
        {
            "kind": r.kind.value,
            "key": r.key,
            "site": r.site,
            "started_at": r.started_at,
            "finished_at": r.finished_at,
            "latency": r.latency,
            "local": r.local,
            "found": r.found,
            "retries": r.retries,
            "run": r.run,
        }
        for r in stats.records
    ]


def _task_result_to_dict(r: TaskResult) -> Dict[str, Any]:
    return {
        "task_id": r.task_id,
        "vm": r.vm,
        "site": r.site,
        "started_at": r.started_at,
        "finished_at": r.finished_at,
        "duration": r.duration,
        "metadata_time": r.metadata_time,
        "transfer_time": r.transfer_time,
        "compute_time": r.compute_time,
    }


def workflow_result_to_dict(
    result: WorkflowResult, include_ops: bool = False
) -> Dict[str, Any]:
    """Flatten a workflow run, with headline op metrics always included."""
    doc: Dict[str, Any] = {
        "workflow": result.workflow,
        "strategy": result.strategy,
        "makespan": result.makespan,
        "total_metadata_time": result.total_metadata_time,
        "total_transfer_time": result.total_transfer_time,
        "tasks_per_site": result.tasks_per_site(),
        "tasks": [_task_result_to_dict(r) for r in result.task_results],
    }
    if result.ops is not None:
        doc["op_metrics"] = summarize_ops(result.ops).as_dict()
        if include_ops:
            doc["ops"] = _ops_to_records(result.ops)
    return doc


def workload_result_to_dict(result: WorkloadResult) -> Dict[str, Any]:
    """Flatten a multi-tenant workload run, per-instance results inline."""
    return {
        "name": result.name,
        "strategy": result.strategy,
        "scheduler": result.scheduler,
        "admission": result.admission,
        "mode": result.mode,
        "makespan": result.makespan,
        "peak_in_flight": result.peak_in_flight,
        "admission_bound": result.admission_bound,
        "total_ops": result.total_ops,
        "wan_bytes": result.wan_bytes,
        "jain_fairness": result.jain_fairness(),
        "makespan_by_tenant": result.makespan_by_tenant(),
        "queue_wait_by_tenant": result.queue_wait_by_tenant(),
        "slowdown_by_tenant": result.slowdown_by_tenant(),
        "instances": [
            {
                "tenant": r.tenant,
                "application": r.application,
                "run": r.run,
                "submitted_at": r.submitted_at,
                "admitted_at": r.admitted_at,
                "finished_at": r.finished_at,
                "queue_wait": r.queue_wait,
                "makespan": r.makespan,
                "result": workflow_result_to_dict(r.result),
            }
            for r in result.records
        ],
    }


def result_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Flat headline metrics: the keyed values ``repro.cli diff`` compares.

    Every surface contributes ``makespan_s`` and ``wan_bytes``; the
    rest are surface-specific (throughput for synthetic, staging times
    for workflow, fairness/slowdown for workload).  Keys are stable --
    diffs across commits align on them.
    """
    res = result.result
    metrics: Dict[str, float] = {
        "makespan_s": float(result.makespan),
        "wan_bytes": float(result.wan_bytes),
    }
    if result.surface == "synthetic":
        metrics.update(
            throughput_ops_s=float(res.throughput),
            mean_node_time_s=float(res.mean_node_time),
            total_ops=float(res.total_ops),
        )
    elif result.surface == "workflow":
        metrics.update(
            metadata_time_s=float(res.total_metadata_time),
            transfer_time_s=float(res.total_transfer_time),
            tasks=float(len(res.task_results)),
        )
    else:  # workload
        metrics.update(
            op_throughput_ops_s=float(res.op_throughput()),
            network_throughput_bytes_s=float(res.network_throughput()),
            jain_fairness=float(res.jain_fairness()),
            p50_slowdown=float(res.slowdown_percentile(50)),
            p95_slowdown=float(res.slowdown_percentile(95)),
            mean_queue_wait_s=float(res.mean_queue_wait()),
            completed=float(res.n_completed),
            peak_in_flight=float(res.peak_in_flight),
        )
    if result.elastic is not None:
        metrics.update(
            vm_seconds=float(result.elastic.vm_seconds),
            capacity_cost=float(result.elastic.cost),
            scale_ups=float(result.elastic.n_scale_ups),
            scale_downs=float(result.elastic.n_scale_downs),
            fleet_peak=float(result.elastic.fleet_peak),
        )
    return metrics


def scenario_result_to_dict(
    result: ScenarioResult, include_ops: bool = False
) -> Dict[str, Any]:
    """One scenario run as a self-describing JSON artifact.

    Carries the full spec (so the artifact alone reproduces the run
    via ``ScenarioSpec.from_dict(doc["spec"]).run()``), the spec's
    content hash, the flat ``metrics`` diff keys, the fault events
    that fired, execution ``provenance`` (flow solver mode,
    processed-event count -- facts about *how* the run
    was computed, surfaced separately by ``repro.cli diff``), the
    observability summary under ``obs`` when tracing was on, and the
    surface's native payload under ``result``.
    """
    res = result.result
    if result.surface == "synthetic":
        payload = synthetic_result_to_dict(res)
    elif result.surface == "workflow":
        payload = workflow_result_to_dict(res, include_ops=include_ops)
    else:
        payload = workload_result_to_dict(res)
    doc = {
        "schema": 1,
        "kind": "scenario-result",
        "name": result.spec.name,
        "surface": result.surface,
        "seed": result.spec.seed,
        "spec_hash": result.spec.spec_hash(),
        "spec": result.spec.to_dict(),
        "scheduler": result.scheduler,
        "admission": result.admission,
        "wan_bytes": result.wan_bytes,
        "fault_events": [
            {
                "at": ev.at,
                "kind": ev.kind,
                "target": ev.target,
                "detail": ev.detail,
            }
            for ev in result.fault_events
        ],
        "metrics": result_metrics(result),
        "provenance": dict(result.provenance),
        "result": payload,
    }
    if result.obs is not None:
        doc["obs"] = result.obs
    if result.analysis is not None:
        doc["analysis"] = result.analysis.to_dict()
    if result.slo is not None:
        doc["slo"] = result.slo.to_dict()
    if result.elastic is not None:
        doc["elastic"] = result.elastic.to_dict()
    return doc


def sweep_cell_to_dict(
    cell: SweepCell, include_ops: bool = False
) -> Dict[str, Any]:
    """One grid point: overrides plus either its artifact or its error."""
    return {
        "overrides": dict(cell.overrides),
        "error": cell.error,
        "result": (
            scenario_result_to_dict(cell.result, include_ops=include_ops)
            if cell.result is not None
            else None
        ),
    }


def sweep_result_to_dict(
    sweep: SweepResult, include_ops: bool = False
) -> Dict[str, Any]:
    """A whole sweep grid as one JSON document, errored cells inline."""
    return {
        "schema": 1,
        "kind": "sweep-result",
        "base": sweep.base.to_dict(),
        "base_hash": sweep.base.spec_hash(),
        "axes": {k: list(v) for k, v in sweep.axes.items()},
        "cells": [
            sweep_cell_to_dict(c, include_ops=include_ops)
            for c in sweep.cells
        ],
    }
