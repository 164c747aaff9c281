"""Domain-aware static analysis for the repro codebase (``repro lint``).

A small pass framework (pure stdlib: ``ast`` + ``re``) with four passes
encoding invariants that generic linters cannot see:

* ``field-drift`` — hand-written dataclass serializers must cover every
  field (the PR 7 dropped-counter bug class);
* ``hot-path-impure-call`` / ``hot-loop-closure`` / ``hot-loop-attr`` —
  purity and hoisting discipline in the enumeration hot modules;
* ``worker-shared-state`` — code reachable from pool worker entry points
  must not write module-level state (the allowlist holds only the
  observability recorders);
* ``obs-global-access`` — instrumentation goes through the ``repro.obs``
  runtime accessors, never the private recorder globals.

Suppress a finding with a trailing ``# repro-lint: disable=<rule>`` comment
(line scope) or the same comment alone on a line (file scope).
"""

from __future__ import annotations

from .diagnostics import (
    LINT_SCHEMA,
    Diagnostic,
    format_text_report,
    report_to_dict,
    summarize,
)
from .engine import LintReport, collect_files, iter_rules, run_lint
from .passes import all_passes

__all__ = [
    "LINT_SCHEMA",
    "Diagnostic",
    "LintReport",
    "all_passes",
    "collect_files",
    "format_text_report",
    "iter_rules",
    "report_to_dict",
    "run_lint",
    "summarize",
]
