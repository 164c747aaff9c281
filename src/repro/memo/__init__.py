"""Canonical-form memoization: recognise repeated blocks, reuse their results.

The repo's first persistence layer.  Three cooperating pieces:

* :mod:`repro.memo.canon` — deterministic canonical labeling of data-flow
  graphs (Weisfeiler–Leman refinement with a backtracking tie-break), giving
  every isomorphism class one stable content hash plus, per graph, the node
  permutation into the canonical id space;
* :mod:`repro.memo.store` — a disk-backed, content-addressed result store
  keyed by ``(canonical hash, algorithm, request fingerprint)``, with a
  versioned JSON entry format, sharded directories and atomic writes;
* :mod:`repro.memo.dedup` — isomorphism-class deduplication over a workload:
  enumerate one representative per class and remap the cut bit masks through
  the canonical permutations onto every member.

The engine's :class:`~repro.engine.batch.BatchRunner` consults a
:class:`ResultStore` before dispatching work and writes results back
afterwards; the CLI exposes the store via ``--cache-dir`` and the ``cache``
sub-command.
"""

from .canon import (
    DEFAULT_BACKTRACK_BUDGET,
    CanonicalForm,
    canonical_form,
    canonical_hash,
    permute_graph,
)
from .dedup import (
    DedupReport,
    IsoClass,
    enumerate_deduplicated,
    group_by_isomorphism,
    iter_enumerate_deduplicated,
    remap_masks,
)
from .store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    StoredResult,
    StoreStats,
    request_fingerprint,
    stats_from_dict,
    stats_to_dict,
)

__all__ = [
    "DEFAULT_BACKTRACK_BUDGET",
    "CanonicalForm",
    "canonical_form",
    "canonical_hash",
    "permute_graph",
    "DedupReport",
    "IsoClass",
    "enumerate_deduplicated",
    "group_by_isomorphism",
    "iter_enumerate_deduplicated",
    "remap_masks",
    "STORE_FORMAT_VERSION",
    "ResultStore",
    "StoredResult",
    "StoreStats",
    "request_fingerprint",
    "stats_from_dict",
    "stats_to_dict",
]
