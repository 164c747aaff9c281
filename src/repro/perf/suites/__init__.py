"""Built-in benchmark registrations.

Importing this package registers every repo benchmark with
:mod:`repro.perf.registry`; each module groups one layer of the system:

* :mod:`.engine` — the engine-stack gates (core hot path, batch dispatch,
  streaming scheduler, memo store, observability overhead);
* :mod:`.frontend` — the compiler frontend;
* :mod:`.paper` — the paper-reproduction experiments (dominator kernel,
  Figure 4/5, pruning ablation, complexity scaling, ISE speedups);
* :mod:`.selfcheck` — a millisecond-scale harness self-check (suite
  ``dev``), used by the tests and as the CONTRIBUTING example.
"""

from . import engine, frontend, paper, selfcheck  # noqa: F401
