"""Analysis utilities: the Section VII strategy advisor and run metrics."""

from repro.analysis.advisor import (
    WorkloadProfile,
    recommend_strategy,
    profile_workflow,
)
from repro.analysis.metrics import RunMetrics, summarize_ops
from repro.analysis.monitor import RegistryMonitor, Sample
from repro.analysis.queueing import (
    closed_network_throughput,
    mm1_mean_wait,
    mm1_utilization,
    saturation_point,
    throughput_upper_bound,
)

__all__ = [
    "RegistryMonitor",
    "RunMetrics",
    "Sample",
    "WorkloadProfile",
    "closed_network_throughput",
    "mm1_mean_wait",
    "mm1_utilization",
    "profile_workflow",
    "recommend_strategy",
    "saturation_point",
    "summarize_ops",
    "throughput_upper_bound",
]
