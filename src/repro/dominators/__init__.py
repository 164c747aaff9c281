"""Dominator infrastructure.

Single-vertex dominators (Lengauer–Tarjan, the iterative cross-check and
the single-pass DAG kernel), comparability rows that answer the O(1)
ancestor queries of Section 5.4 ("does either vertex dominate the other?")
with one mask per vertex, and multiple-vertex (generalized) dominator
enumeration in the style of Dubrova et al., which is the kernel of the
paper's enumeration algorithm.  Graphs are always given as successor (or
predecessor) lists.  The DAG kernel solves the context's postdominators,
whose comparability rows every search reads, and every dominator array of
``poly-enum-incremental``; Lengauer–Tarjan serves ``poly-enum-basic``, the
legacy snapshot, the ``dominators`` benchmark and the tests, as the
reference.
"""

from .generalized import (
    blocks_all_paths,
    brute_force_generalized_dominators,
    has_private_path,
    is_generalized_dominator,
    reachable_mask_avoiding,
)
from .iterative import comparability_rows, immediate_dominators_iterative
from .lengauer_tarjan import dominates, immediate_dominators, strict_dominators
from .multi_vertex import (
    CompletionResult,
    DominatorSearchStats,
    dominator_completions,
    enumerate_generalized_dominators,
)

__all__ = [
    "blocks_all_paths",
    "brute_force_generalized_dominators",
    "has_private_path",
    "is_generalized_dominator",
    "reachable_mask_avoiding",
    "comparability_rows",
    "immediate_dominators_iterative",
    "dominates",
    "immediate_dominators",
    "strict_dominators",
    "CompletionResult",
    "DominatorSearchStats",
    "dominator_completions",
    "enumerate_generalized_dominators",
]
