"""Observability plane: tracing spans/events + streaming metrics.

The package is deliberately dependency-free (it imports nothing from the
rest of ``repro``) so every layer -- kernel, cloud, metadata, scheduling,
workload -- can import it without cycles.  See ``docs/observability.md``
for the event taxonomy, span model and exporter formats.
"""

from repro.obs.analyze import (
    ATTRIBUTION_BUCKETS,
    PathStep,
    RunAnalysis,
    UtilizationSummary,
    WorkflowAnalysis,
    analyze_tracer,
    capacity_timeline,
    concurrency_profile,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    TRACE_CATEGORIES,
    Tracer,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    P2Quantile,
    ReservoirHistogram,
)
from repro.obs.export import (
    chrome_trace_doc,
    events_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "PathStep",
    "RunAnalysis",
    "UtilizationSummary",
    "WorkflowAnalysis",
    "analyze_tracer",
    "capacity_timeline",
    "concurrency_profile",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "TRACE_CATEGORIES",
    "Tracer",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "P2Quantile",
    "ReservoirHistogram",
    "chrome_trace_doc",
    "events_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
