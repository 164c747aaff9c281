"""BENCH-BATCH — Multi-block batch enumeration: dispatch overhead + speedup.

The engine's :class:`~repro.engine.batch.BatchRunner` drives every basic
block of a workload through one enumeration algorithm, optionally across a
persistent worker pool (one block per task).  Three properties matter:

* **determinism** — ``jobs=2`` and forced-pool runs return bit-identical
  cuts (and identical ISE selections) to the sequential run (asserted);
* **dispatch overhead** — a forced-pool ``jobs=1`` run over the frontend
  corpus must cost < 15% over the sequential run (``gate_max`` on
  ``dispatch_overhead``) — the honest, single-core-measurable proxy for
  "parallelism can win".  Every timed call starts from cold contexts, as
  one ``repro ise`` call does: spawned workers, a fresh parent-side
  ``ContextCache`` and a fresh sequential runner;
* **throughput** — the ``jobs=2`` speedup is recorded for the trend; on
  machines with ``cpu_count >= 2`` it is asserted above 1.5x, on
  single-core containers there is no parallelism to buy, so it is skipped.

The measurement body and gates live in the unified harness
(``repro.perf.suites.engine``, benchmark name ``batch_runner``); this script
is the pytest entry point.  Refresh the committed baseline with
``repro bench run batch_runner --write-records``.
"""

from __future__ import annotations


def test_batch_runner_overhead_and_speedup(bench_harness):
    bench_harness("batch_runner")
