"""Observability: metrics registry, span tracing, exporters, run reports.

See :mod:`repro.obs.runtime` for how instrumented code gets the active
recorders, and the README's "Observability" section for the user-facing
``--trace`` / ``--metrics-json`` workflow.
"""

from . import runtime
from .export import (
    read_jsonl,
    read_trace_file,
    to_chrome_trace,
    validate_trace_records,
    write_jsonl,
    write_trace_file,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    label_key,
)
from .report import (
    aggregate_spans,
    counter_by_label,
    counter_totals,
    find_root_span,
    format_run_report,
    gauge_value,
    load_metrics,
    span_coverage,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    TRACE_WIRE_VERSION,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "METRICS_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "label_key",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "TRACE_WIRE_VERSION",
    "Tracer",
    "read_jsonl",
    "read_trace_file",
    "to_chrome_trace",
    "validate_trace_records",
    "write_jsonl",
    "write_trace_file",
    "aggregate_spans",
    "counter_by_label",
    "counter_totals",
    "find_root_span",
    "format_run_report",
    "gauge_value",
    "load_metrics",
    "span_coverage",
    "runtime",
]
