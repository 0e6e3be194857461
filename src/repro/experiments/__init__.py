"""Experiment harness: one module per table/figure of the evaluation.

Each ``figN_*`` module exposes a ``run(...)`` function returning a
result object with the measured series plus the paper's reference
numbers, and a ``render()`` producing the text table the benchmarks
print.  See DESIGN.md Section 4 for the experiment index and
EXPERIMENTS.md for recorded paper-vs-measured outcomes.
"""

from repro.experiments.scenarios import TABLE_I, TableIColumn
from repro.experiments.synthetic import (
    SyntheticResult,
    run_synthetic_workload,
)
from repro.experiments.fig1_latency import run_fig1
from repro.experiments.fig3_replication import run_fig3
from repro.experiments.fig5_makespan import run_fig5
from repro.experiments.fig6_progress import run_fig6
from repro.experiments.fig7_throughput import run_fig7
from repro.experiments.fig8_scalability import run_fig8
from repro.experiments.fig10_workflows import run_fig10

__all__ = [
    "SyntheticResult",
    "TABLE_I",
    "TableIColumn",
    "run_fig1",
    "run_fig3",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig10",
    "run_synthetic_workload",
]
