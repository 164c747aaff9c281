"""BENCH-MEMO — Canonical-form memoization: hit rate and warm-run speedup.

Drives a suite full of duplicated *and permuted* blocks through the engine
uncached, cold-cache and warm-cache; every path must produce cut sets
bit-identical to the uncached run (asserted).  The cold run must search once
per isomorphism class (one store write per class, asserted).  The warm run
must observe a 100% hit rate (``gate_min`` on ``warm_hit_rate``) and beat
the uncached run by at least 2x (``gate_min`` on ``warm_speedup`` — the
ROADMAP bar).

The measurement body and gates live in the unified harness
(``repro.perf.suites.engine``, benchmark name ``memo``); this script is the
pytest entry point.  Refresh the committed baseline with
``repro bench run memo --write-records``.
"""

from __future__ import annotations


def test_memo_hit_rate_and_warm_speedup(bench_harness):
    bench_harness("memo")
