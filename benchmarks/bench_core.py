"""BENCH-CORE — hot-path enumeration benchmark and perf-regression gate.

Times the incremental enumerator against the basic one (``poly-enum-basic``,
Figure 2) on the blocks basic runs on (at most 26 vertices) of three
workload families — synthetic trees (the Figure 4 worst case), the
mibench-like suite and the frontend corpus — and checks every graph's cuts
against the digests recorded from the frozen pre-optimization snapshot of
the incremental enumerator.

The measurement body, metric declarations and gates live in the unified
harness (``repro.perf.suites.engine``, benchmark name ``core``); this script
is a thin pytest entry point.  Two gates are enforced:

* **speedup floor** — the median basic/incremental time ratio over the
  corpus+mibench blocks of 8 to 26 vertices must stay at or above 3x
  (``gate_min`` on ``median_speedup_vs_basic_corpus_mibench``);
* **regression gate** — per-family median ratios may not drop more than
  20% below the committed ``BENCH_core.json`` baseline (``rel_tolerance``
  on the family medians; time *ratios* are stable across machines,
  absolute times are not).

Records are not written as a side effect of running; refresh the committed
baseline with ``repro bench run core --write-records``.

Run through pytest (``pytest benchmarks/bench_core.py --bench-scale small``)
or via the harness: ``repro bench run core --compare-against-committed``.
"""

from __future__ import annotations


def test_core_hot_path_speedup_and_regression_gate(bench_harness):
    bench_harness("core")
