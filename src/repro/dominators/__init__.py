"""Dominator infrastructure.

Single-vertex dominators of a DAG (the single-pass kernel and its
one-vertex derivation), comparability rows that answer the O(1) ancestor
queries of Section 5.4 ("does either vertex dominate the other?") with one
mask per vertex, and multiple-vertex (generalized) dominator enumeration in
the style of Dubrova et al., which is the kernel of the paper's
enumeration algorithm.  Graphs are always given as successor (or
predecessor) lists.  The DAG kernel is the only dominator kernel the
library runs: it solves the context's postdominators, whose comparability
rows every search reads, every dominator array of
``poly-enum-incremental``, and every reduction step of
``poly-enum-basic``.  Lengauer–Tarjan, which the paper runs, is kept with
the other general-graph oracles under ``tests/reference/``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".generalized": (
            "blocks_all_paths",
            "has_private_path",
            "is_generalized_dominator",
            "reachable_mask_avoiding",
        ),
        ".iterative": (
            "comparability_rows",
            "derive_immediate_dominators",
            "immediate_dominators_dag",
            "strict_dominators",
        ),
        ".multi_vertex": (
            "CompletionResult",
            "DominatorSearchStats",
            "dominator_completions",
            "enumerate_generalized_dominators",
        ),
    },
)
