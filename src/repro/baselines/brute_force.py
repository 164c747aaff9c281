"""Brute-force enumeration oracle.

Enumerates every subset of the candidate (non-forbidden) vertices and filters
by the validity predicates.  Exponential — usable only for the small graphs of
the test-suite, where it is the ground truth every other enumerator is
compared against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional

from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.stats import EnumerationResult, EnumerationStats, Stopwatch, check_deadline
from ..core.validity import (
    enumerable_by_paper_algorithm,
    is_valid_cut_mask,
    satisfies_technical_condition,
)
from ..dfg.graph import DataFlowGraph

ALGORITHM_NAME = "brute-force"

#: Above this many candidate vertices the oracle refuses to run.
MAX_CANDIDATES = 22


def enumerate_cuts_brute_force(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    context: Optional[EnumerationContext] = None,
    paper_semantics: bool = False,
    deadline: Optional[float] = None,
) -> EnumerationResult:
    """Enumerate every valid convex cut of *graph* by exhaustive subset search.

    Parameters
    ----------
    graph, constraints, context:
        As for the other enumerators.
    paper_semantics:
        When ``True`` the oracle additionally applies the two restrictions the
        paper's algorithm relies on (the Section 3 technical input condition
        and input/output identifiability), so the result predicts exactly what
        the polynomial algorithms report.  When ``False`` (default) every
        valid convex cut is returned.
    deadline:
        Optional ``time.perf_counter()`` value; the first candidate subset
        past it raises :class:`~repro.core.stats.BlockTimeout`.
    """
    ctx = context or EnumerationContext.build(graph, constraints)
    candidates = ctx.candidate_nodes
    if len(candidates) > MAX_CANDIDATES:
        raise ValueError(
            f"brute force oracle limited to {MAX_CANDIDATES} candidate vertices, "
            f"graph {graph.name!r} has {len(candidates)}"
        )

    stats = EnumerationStats()
    found: List[int] = []
    accept = enumerable_by_paper_algorithm if paper_semantics else is_valid_cut_mask

    with Stopwatch(stats):
        for size in range(1, len(candidates) + 1):
            for combo in combinations(candidates, size):
                mask = 0
                for vertex in combo:
                    mask |= 1 << vertex
                stats.candidates_checked += 1
                if deadline is not None:
                    check_deadline(deadline)
                if accept(ctx, mask):
                    found.append(mask)

    stats.cuts_found = len(found)
    return EnumerationResult(
        masks=found,
        stats=stats,
        graph_name=graph.name,
        algorithm=ALGORITHM_NAME + ("-paper-semantics" if paper_semantics else ""),
        context=ctx,
    )


def count_excluded_by_technical_condition(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
) -> Dict[str, int]:
    """Quantify how many valid cuts the paper's restrictions exclude.

    Returns a dictionary with the total number of valid convex cuts, the
    number satisfying the technical condition, and the number that are also
    input/output identified (i.e. reachable by the paper's construction).
    Used by the analysis examples and by the documentation of the
    completeness caveat.
    """
    ctx = EnumerationContext.build(graph, constraints)
    full = enumerate_cuts_brute_force(graph, constraints, context=ctx)
    technical = sum(
        1 for mask in full.masks if satisfies_technical_condition(ctx, mask)
    )
    identified = sum(
        1 for mask in full.masks if enumerable_by_paper_algorithm(ctx, mask)
    )
    return {
        "valid_cuts": len(full),
        "technical_condition": technical,
        "paper_enumerable": identified,
    }
