"""Core contribution of the paper: polynomial-time convex-cut enumeration.

The package exposes two enumeration algorithms with identical results:

* :func:`enumerate_cuts_basic` — the straightforward algorithm of Figure 2
  (precompute all generalized dominators, then couple outputs with them);
* :func:`enumerate_cuts` — the incremental algorithm of Figure 3 with the
  pruning techniques of Section 5.3, the variant the paper benchmarks.

Supporting classes: :class:`Constraints` (the microarchitectural I/O budget),
:class:`Cut` (an enumerated convex cut), :class:`EnumerationContext` (the
precomputed graph view), :class:`PruningConfig` (toggles for the pruning
rules) and :class:`EnumerationResult`/:class:`EnumerationStats`.
"""

from .constraints import PAPER_DEFAULT_CONSTRAINTS, Constraints
from .context import EnumerationContext
from .cut import Cut, build_body_mask
from .enumeration import enumerate_cuts_basic
from .incremental import IncrementalEnumerator, enumerate_cuts
from .pruning import FULL_PRUNING, NO_PRUNING, PruningConfig
from .recovery import enumerate_with_recovery, head_vertices, recover_excluded_cuts
from .stats import EnumerationResult, EnumerationStats
from .validity import (
    ValidityReport,
    check_cut_mask,
    enumerable_by_paper_algorithm,
    is_io_identified,
    is_valid_cut_mask,
    satisfies_technical_condition,
)

__all__ = [
    "PAPER_DEFAULT_CONSTRAINTS",
    "Constraints",
    "EnumerationContext",
    "Cut",
    "build_body_mask",
    "enumerate_cuts_basic",
    "IncrementalEnumerator",
    "enumerate_cuts",
    "FULL_PRUNING",
    "NO_PRUNING",
    "PruningConfig",
    "enumerate_with_recovery",
    "head_vertices",
    "recover_excluded_cuts",
    "EnumerationResult",
    "EnumerationStats",
    "ValidityReport",
    "check_cut_mask",
    "enumerable_by_paper_algorithm",
    "is_io_identified",
    "is_valid_cut_mask",
    "satisfies_technical_condition",
]
