"""Reference implementations the tests use as oracles.

None of this ships in ``src/``: the library runs one dominator kernel (the
single-pass DAG kernel of :mod:`repro.dominators.iterative`) and the
optimized incremental enumerator.  Kept here are the general-graph dominator
algorithms it is checked against (:mod:`tests.reference.lengauer_tarjan`)
and the frozen pre-optimization snapshot of the enumerator whose cuts every
optimisation must reproduce (:mod:`tests.reference.baselines.legacy_incremental`).
"""
