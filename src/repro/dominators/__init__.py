"""Dominator infrastructure.

Single-vertex dominators (Lengauer–Tarjan, the iterative cross-check and
the single-pass DAG kernel), dominator/postdominator trees with O(1)
ancestor queries, and multiple-vertex (generalized) dominator enumeration in
the style of Dubrova et al., which is the kernel of the paper's enumeration
algorithm.  The DAG kernel builds the context's postdominator tree and every
dominator array of ``poly-enum-incremental``; Lengauer–Tarjan serves
``poly-enum-basic``, the legacy snapshot, the ``dominators`` benchmark and
the tests, as the reference.
"""

from .dominator_tree import DominatorTree
from .generalized import (
    blocks_all_paths,
    brute_force_generalized_dominators,
    has_private_path,
    is_generalized_dominator,
    reachable_mask_avoiding,
)
from .iterative import immediate_dominators_iterative
from .lengauer_tarjan import dominates, immediate_dominators, strict_dominators
from .multi_vertex import (
    CompletionResult,
    DominatorSearchStats,
    dominator_completions,
    enumerate_generalized_dominators,
)

__all__ = [
    "DominatorTree",
    "blocks_all_paths",
    "brute_force_generalized_dominators",
    "has_private_path",
    "is_generalized_dominator",
    "reachable_mask_avoiding",
    "immediate_dominators_iterative",
    "dominates",
    "immediate_dominators",
    "strict_dominators",
    "CompletionResult",
    "DominatorSearchStats",
    "dominator_completions",
    "enumerate_generalized_dominators",
]
