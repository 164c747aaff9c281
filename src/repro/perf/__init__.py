"""Unified benchmark harness: registry, robust measurement, regression ledger.

One ``Benchmark`` protocol for every experiment in ``benchmarks/``, one
versioned record schema (``repro-bench-1``), one append-only history file
(``BENCH_history.jsonl``) and one comparison mechanism replacing the five
hand-written CI gates.  Driven by ``repro bench run|compare|history|list|env``.
"""

from .compare import (
    MetricDelta,
    compare_records,
    compare_with_committed,
    comparison_problems,
    format_compare,
    load_record_file,
)
from .env import comparability_warnings, environment_fingerprint, fingerprint_digest
from .ledger import (
    LEDGER_NAME,
    append_records,
    history_table,
    latest_by_benchmark,
    load_history,
    record_key,
)
from .measure import TimingResult, interleaved_timings, paired_overhead, time_callable
from .registry import (
    SUITE_ALL,
    SUITE_CI,
    Benchmark,
    RunOutcome,
    benchmark_names,
    get_benchmark,
    register,
    run_registered,
    suite_names,
    unregister,
)
from .schema import BENCH_SCHEMA, BenchRecord, MetricSpec, MetricValue, validate_record

__all__ = [
    "BENCH_SCHEMA",
    "LEDGER_NAME",
    "SUITE_ALL",
    "SUITE_CI",
    "BenchRecord",
    "Benchmark",
    "MetricDelta",
    "MetricSpec",
    "MetricValue",
    "RunOutcome",
    "TimingResult",
    "append_records",
    "benchmark_names",
    "comparability_warnings",
    "compare_records",
    "compare_with_committed",
    "comparison_problems",
    "environment_fingerprint",
    "fingerprint_digest",
    "format_compare",
    "get_benchmark",
    "history_table",
    "interleaved_timings",
    "latest_by_benchmark",
    "load_history",
    "load_record_file",
    "paired_overhead",
    "record_key",
    "register",
    "run_registered",
    "suite_names",
    "time_callable",
    "unregister",
    "validate_record",
]
