"""Table I: settings for the real-life workflow scenarios.

==================  ===========  ==========  =============
Scenario            Small Scale  Comp. Int.  Metadata Int.
==================  ===========  ==========  =============
Operations / node   100          200         1,000
Computation / node  1 s          5 s         1 s
Total ops BuzzFlow  7,200        14,400      72,000
Total ops Montage   16,000       32,000      150,000*
==================  ===========  ==========  =============

(*) The paper rounds Montage's MI total to 150,000; with the 160 jobs
implied by the SS/CI rows the exact figure is 160,000 -- we keep the
DAG fixed and note the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workflow.applications import BUZZFLOW_JOBS, MONTAGE_JOBS

__all__ = ["TABLE_I", "TableIColumn"]


@dataclass(frozen=True)
class TableIColumn:
    """One column of Table I."""

    name: str
    label: str
    ops_per_task: int
    compute_time: float

    def total_ops(self, n_jobs: int) -> int:
        """Aggregate metadata operations for a workflow of ``n_jobs``."""
        return self.ops_per_task * n_jobs

    @property
    def paper_total_buzzflow(self) -> int:
        return self.ops_per_task * BUZZFLOW_JOBS

    @property
    def paper_total_montage(self) -> int:
        return self.ops_per_task * MONTAGE_JOBS


TABLE_I: Dict[str, TableIColumn] = {
    "SS": TableIColumn(
        "SS", "Small Scale", ops_per_task=100, compute_time=1.0
    ),
    "CI": TableIColumn(
        "CI", "Computation Intensive", ops_per_task=200, compute_time=5.0
    ),
    "MI": TableIColumn(
        "MI", "Metadata Intensive", ops_per_task=1000, compute_time=1.0
    ),
}
