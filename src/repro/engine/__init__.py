"""Unified enumeration engine: algorithm registry + multi-block batch runner.

This package is the single entry point every consumer (CLI, ISE pipeline,
comparison harness, benchmarks) uses to run cut enumeration:

* :mod:`repro.engine.registry` — the six built-in enumeration algorithms
  behind one ``EnumerationRequest → EnumerationResult`` interface, with
  capability flags and name-based lookup;
* :mod:`repro.engine.batch` — the :class:`BatchRunner` that drives a whole
  workload (many basic blocks) through one algorithm, optionally across
  worker processes, with deterministic input-ordered results.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".batch": (
            "BatchItem",
            "BatchReport",
            "BatchRunner",
            "ContextCache",
            "enumerate_batch",
            "resolve_jobs",
        ),
        ".registry": (
            "DEFAULT_ALGORITHM",
            "SEMANTICS_ALL_VALID",
            "SEMANTICS_CONNECTED",
            "SEMANTICS_PAPER",
            "AlgorithmCapabilities",
            "EnumerationRequest",
            "RegisteredAlgorithm",
            "algorithm_aliases",
            "available_algorithms",
            "get_algorithm",
            "register_algorithm",
            "resolve_algorithm_name",
            "unregister_algorithm",
        ),
    },
)
