"""Core contribution of the paper: polynomial-time convex-cut enumeration.

The package exposes two enumeration algorithms with identical results:

* :func:`enumerate_cuts_basic` — the straightforward algorithm of Figure 2
  (precompute all generalized dominators, then couple outputs with them);
* :func:`enumerate_cuts` — the incremental algorithm of Figure 3 with the
  pruning techniques of Section 5.3, the variant the paper benchmarks.

Supporting classes: :class:`Constraints` (the microarchitectural I/O budget),
:class:`Cut` (an enumerated convex cut), :class:`EnumerationContext` (the
precomputed graph view), :class:`PruningConfig` (toggles for the pruning
rules), :class:`EnumerationResult`/:class:`EnumerationStats` and
:class:`BlockTimeout` (raised by a search that passes its deadline).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".constraints": ("PAPER_DEFAULT_CONSTRAINTS", "Constraints"),
        ".context": ("EnumerationContext",),
        ".cut": ("Cut", "build_body_mask"),
        ".enumeration": ("enumerate_cuts_basic",),
        ".incremental": ("IncrementalEnumerator", "enumerate_cuts"),
        ".pruning": ("FULL_PRUNING", "NO_PRUNING", "PruningConfig"),
        ".recovery": ("enumerate_with_recovery", "head_vertices", "recover_excluded_cuts"),
        ".stats": ("BlockTimeout", "EnumerationResult", "EnumerationStats"),
        ".validity": (
            "ValidityReport",
            "check_cut_mask",
            "enumerable_by_paper_algorithm",
            "is_io_identified",
            "is_valid_cut_mask",
            "satisfies_technical_condition",
        ),
    },
)
