"""Canonical-form memoization: recognise repeated blocks, reuse their results.

The repo's first persistence layer.  Two cooperating pieces:

* :mod:`repro.memo.canon` — deterministic canonical labeling of data-flow
  graphs (Weisfeiler–Leman refinement with a backtracking tie-break), giving
  every isomorphism class one stable content hash plus, per graph, the node
  permutation into the canonical id space;
* :mod:`repro.memo.store` — a disk-backed, content-addressed result store
  keyed by ``(canonical hash, algorithm, request fingerprint)``, with a
  versioned JSON entry format, sharded directories and atomic writes.

The engine's :class:`~repro.engine.batch.BatchRunner` consults a
:class:`ResultStore` before dispatching work and writes results back
afterwards.  Within one run it enumerates each isomorphism class once: the
first copy is enumerated and written back, and its isomorphs are served from
that entry through the canonical permutations.  The CLI exposes the store via
``--cache-dir`` and the ``cache`` sub-command.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".canon": (
            "DEFAULT_BACKTRACK_BUDGET",
            "CanonicalForm",
            "canonical_form",
            "canonical_hash",
            "permute_graph",
        ),
        ".store": (
            "STORE_FORMAT_VERSION",
            "ResultStore",
            "StoredResult",
            "StoreStats",
            "request_fingerprint",
            "stats_from_dict",
            "stats_to_dict",
        ),
    },
)
