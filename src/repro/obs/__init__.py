"""Observability: metrics registry, span tracing, exporters, run reports.

See :mod:`repro.obs.runtime` for how instrumented code gets the active
recorders, and the README's "Observability" section for the user-facing
``--trace`` / ``--metrics-json`` workflow.
"""

from .. import _lazy_exports
# A submodule exported as itself, eagerly: every instrumented module uses it.
from . import runtime

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".metrics": (
            "DEFAULT_TIME_BUCKETS",
            "METRICS_SCHEMA",
            "Histogram",
            "MetricsRegistry",
            "NULL_METRICS",
            "NullMetrics",
            "label_key",
        ),
        ".trace": (
            "NULL_TRACER",
            "NullTracer",
            "Span",
            "TRACE_SCHEMA",
            "TRACE_WIRE_VERSION",
            "Tracer",
        ),
        ".export": (
            "read_jsonl",
            "read_trace_file",
            "to_chrome_trace",
            "validate_trace_records",
            "write_jsonl",
            "write_trace_file",
        ),
        ".report": (
            "aggregate_spans",
            "counter_by_label",
            "counter_totals",
            "find_root_span",
            "format_run_report",
            "gauge_value",
            "load_metrics",
            "span_coverage",
        ),
    },
)
__all__.append("runtime")
