"""Workload outcomes: per-instance records and tenant-level fairness.

The workload layer reports three families of metrics:

- **per-workflow**: each instance's makespan, queue wait and response
  time (wait + makespan), wrapped around the engine's own
  :class:`~repro.workflow.engine.WorkflowResult`;
- **per-tenant**: distributions of the above grouped by tenant, plus
  *slowdown* -- an instance's response time divided by the fastest
  observed makespan of the same application anywhere in the workload
  (an empirical no-contention proxy; 1.0 means "as fast as the best
  case this workload ever saw", larger means contention or queueing
  hurt this tenant);
- **aggregate**: whole-workload makespan, peak concurrency, metadata-op
  and WAN throughput, and the Jain fairness index over per-tenant mean
  slowdowns (1.0 = perfectly even suffering, 1/n = one tenant absorbs
  all of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.reporting import render_table
from repro.util.units import MB
from repro.workflow.engine import WorkflowResult

__all__ = ["InstanceRecord", "WorkloadResult", "jain_index"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when all values are equal; ``1/n`` when one value dominates.
    Defined as 1.0 for empty or all-zero inputs (nothing to be unfair
    about).
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0
    s = sum(xs)
    return (s * s) / (len(xs) * sq)


@dataclass(frozen=True)
class InstanceRecord:
    """One completed workflow instance of the workload."""

    tenant: str
    application: str
    run: str
    submitted_at: float
    admitted_at: float
    finished_at: float
    result: WorkflowResult

    def __post_init__(self):
        if not (
            self.submitted_at <= self.admitted_at <= self.finished_at
        ):
            raise ValueError(
                "instance timeline must satisfy "
                "submitted <= admitted <= finished"
            )

    @property
    def queue_wait(self) -> float:
        """Seconds between submission and admission."""
        return self.admitted_at - self.submitted_at

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def response_time(self) -> float:
        """Submission-to-completion, the tenant-visible latency."""
        return self.finished_at - self.submitted_at


@dataclass
class WorkloadResult:
    """Outcome of one multi-tenant workload execution."""

    name: str
    strategy: str
    scheduler: str
    admission: str
    mode: str
    records: List[InstanceRecord] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Highest number of concurrently executing workflows observed.
    peak_in_flight: int = 0
    #: The admission policy's hard cap (None: unbounded).
    admission_bound: Optional[int] = None
    #: Strategy-global op records completed during the workload window
    #: (the conservation reference for per-run attribution).
    total_ops: int = 0
    #: Bytes moved across WAN links during the workload.
    wan_bytes: int = 0

    # -- aggregate ---------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Whole-workload span: first submission to last completion."""
        return self.finished_at - self.started_at

    @property
    def n_completed(self) -> int:
        return len(self.records)

    def tenants(self) -> List[str]:
        return sorted({r.tenant for r in self.records})

    def op_throughput(self) -> float:
        """Aggregate completed metadata ops per second."""
        span = self.makespan
        return self.total_ops / span if span > 0 else 0.0

    def network_throughput(self) -> float:
        """Aggregate WAN bytes per second."""
        span = self.makespan
        return self.wan_bytes / span if span > 0 else 0.0

    def attributed_ops(self) -> int:
        """Ops carried by the per-workflow snapshots (conservation)."""
        return sum(
            len(r.result.ops.records)
            for r in self.records
            if r.result.ops is not None
        )

    # -- per-instance ------------------------------------------------------

    def _best_by_application(self) -> Dict[str, float]:
        """Fastest observed makespan per application (cached one-pass).

        The slowdown baseline; cached because ``records`` is immutable
        once the runner returns and reports query slowdowns per record.
        """
        cached = getattr(self, "_best_cache", None)
        if cached is None:
            cached = {}
            for r in self.records:
                best = cached.get(r.application)
                if best is None or r.makespan < best:
                    cached[r.application] = r.makespan
            self._best_cache = cached
        return cached

    def slowdown(self, record: InstanceRecord) -> float:
        """Response time over the best observed same-application makespan."""
        best = self._best_by_application()[record.application]
        if best <= 0:
            return 1.0
        return record.response_time / best

    # -- per-tenant --------------------------------------------------------

    def by_tenant(self) -> Dict[str, List[InstanceRecord]]:
        out: Dict[str, List[InstanceRecord]] = {}
        for r in self.records:
            out.setdefault(r.tenant, []).append(r)
        return out

    def makespan_by_tenant(self) -> Dict[str, float]:
        """Mean workflow makespan per tenant."""
        return {
            t: float(np.mean([r.makespan for r in rs]))
            for t, rs in self.by_tenant().items()
        }

    def queue_wait_by_tenant(self) -> Dict[str, float]:
        """Mean queue wait per tenant."""
        return {
            t: float(np.mean([r.queue_wait for r in rs]))
            for t, rs in self.by_tenant().items()
        }

    def slowdown_by_tenant(self) -> Dict[str, float]:
        """Mean slowdown per tenant."""
        return {
            t: float(np.mean([self.slowdown(r) for r in rs]))
            for t, rs in self.by_tenant().items()
        }

    def jain_fairness(self) -> float:
        """Jain index over per-tenant mean slowdowns."""
        return jain_index(list(self.slowdown_by_tenant().values()))

    # -- distributions -----------------------------------------------------

    def slowdowns(self) -> List[float]:
        return [self.slowdown(r) for r in self.records]

    def slowdown_percentile(self, q: float) -> float:
        sd = self.slowdowns()
        return float(np.percentile(sd, q)) if sd else 0.0

    def mean_queue_wait(self) -> float:
        waits = [r.queue_wait for r in self.records]
        return float(np.mean(waits)) if waits else 0.0

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON document form; see ``repro.results.serialize``."""
        from repro.results.serialize import workload_result_to_dict

        return workload_result_to_dict(self)

    def render(self) -> str:
        rows = []
        waits = self.queue_wait_by_tenant()
        spans = self.makespan_by_tenant()
        slows = self.slowdown_by_tenant()
        for tenant, rs in sorted(self.by_tenant().items()):
            rows.append(
                [
                    tenant,
                    rs[0].application,
                    len(rs),
                    f"{spans[tenant]:.2f}",
                    f"{waits[tenant]:.2f}",
                    f"{slows[tenant]:.2f}",
                ]
            )
        table = render_table(
            [
                "tenant",
                "application",
                "done",
                "makespan (s)",
                "queue wait (s)",
                "slowdown",
            ],
            rows,
            title=(
                f"Workload {self.name}: {self.strategy} / "
                f"{self.scheduler} / {self.admission} ({self.mode} loop)"
            ),
        )
        summary = (
            f"workload makespan {self.makespan:.2f}s | "
            f"peak in-flight {self.peak_in_flight}"
            + (
                f" (bound {self.admission_bound})"
                if self.admission_bound is not None
                else ""
            )
            + f" | {self.op_throughput():.0f} ops/s | "
            f"{self.network_throughput() / MB:.1f} WAN MB/s | "
            f"Jain fairness {self.jain_fairness():.3f}"
        )
        return table + "\n" + summary

    def __repr__(self) -> str:
        return (
            f"<WorkloadResult {self.name} tenants={len(self.tenants())} "
            f"instances={self.n_completed} makespan={self.makespan:.1f}s>"
        )
