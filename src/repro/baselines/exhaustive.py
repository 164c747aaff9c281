"""Pruned exhaustive subgraph search in the style of Atasu et al. [4] / Pozzi et al. [15].

This is the comparison baseline of Figure 5 of the paper.  The search space is
binary: every candidate vertex is either inside or outside the cut.  Vertices
are decided in **reverse topological order** (consumers before producers), a
choice that makes three pruning rules sound and cheap:

* *output check* — when a vertex is included, all of its successors have
  already been decided, so its output status is permanent; the running output
  count can therefore never decrease and exceeding ``Nout`` prunes the whole
  subtree;
* *permanent-input check* — inputs caused by already-excluded or forbidden
  predecessors can never disappear; more than ``Nin`` of them prunes the
  subtree;
* *convexity check* — including a vertex whose path to an already included
  vertex crosses an excluded vertex can never be repaired, so the include
  branch is pruned.

The algorithm is complete (it enumerates exactly the valid convex cuts under
the constraints) and exhibits the exponential worst case the paper reports on
tree-shaped graphs, which is what Figure 4/5 demonstrate against the
polynomial algorithm.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.stats import EnumerationResult, EnumerationStats, Stopwatch
from ..core.validity import is_valid_cut_mask
from ..dfg.graph import DataFlowGraph
from ..dfg.reachability import popcount

ALGORITHM_NAME = "exhaustive-pruned"


def enumerate_cuts_exhaustive(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    context: Optional[EnumerationContext] = None,
    use_pruning: bool = True,
) -> EnumerationResult:
    """Enumerate all valid convex cuts by pruned binary search over the vertices.

    Parameters
    ----------
    use_pruning:
        When ``False`` the constraint checks are applied only at the leaves of
        the search tree, which reproduces the un-pruned exponential behaviour
        (useful for the ablation benchmarks; keep the graphs small).
    """
    ctx = context or EnumerationContext.build(graph, constraints)
    searcher = _ExhaustiveSearch(ctx, use_pruning=use_pruning)
    return searcher.run(graph.name)


class _ExhaustiveSearch:
    """Recursive include/exclude exploration with constraint propagation."""

    def __init__(self, ctx: EnumerationContext, use_pruning: bool = True) -> None:
        self.ctx = ctx
        self.use_pruning = use_pruning
        self.stats = EnumerationStats()
        self.found: Dict[int, None] = {}  # accepted masks, discovery order
        # Reverse topological order restricted to candidate vertices:
        # successors are decided before their producers.
        topo = ctx.augmented.graph.topological_order()
        self.order: List[int] = [v for v in reversed(topo) if ctx.is_candidate(v)]
        # Vertices that can never be part of a cut count as permanently
        # excluded from the start.
        self.never_included_mask = ~ctx.candidate_mask

    def run(self, graph_name: str) -> EnumerationResult:
        """Execute the search."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 2 * len(self.order) + 200))
        try:
            with Stopwatch(self.stats):
                self._explore(
                    index=0,
                    included_mask=0,
                    excluded_mask=0,
                    output_count=0,
                    included_ancestors_mask=0,
                )
        finally:
            sys.setrecursionlimit(old_limit)
        self.stats.cuts_found = len(self.found)
        return EnumerationResult(
            masks=list(self.found),
            stats=self.stats,
            graph_name=graph_name,
            algorithm=ALGORITHM_NAME if self.use_pruning else ALGORITHM_NAME + "-no-pruning",
            context=self.ctx,
        )

    # ------------------------------------------------------------------ #
    def _explore(
        self,
        index: int,
        included_mask: int,
        excluded_mask: int,
        output_count: int,
        included_ancestors_mask: int,
    ) -> None:
        ctx = self.ctx
        self.stats.pick_output_calls += 1  # doubles as a "search node" counter

        if index == len(self.order):
            if included_mask:
                self._record(included_mask)
            return

        vertex = self.order[index]
        reach = ctx.reach

        # ----- branch 1: include the vertex ------------------------------ #
        include_allowed = True
        new_output_count = output_count
        if self.use_pruning:
            # Convexity: a path from this vertex through an excluded vertex to
            # an already included vertex can never be repaired.
            blocked = (
                reach.descendants_mask(vertex)
                & (excluded_mask | self.never_included_mask)
                & included_ancestors_mask
            )
            if blocked:
                self.stats.count_pruned("convexity")
                include_allowed = False
            if include_allowed:
                # Output status of the vertex is already permanent.
                outside = reach.successors_mask(vertex) & ~included_mask
                if outside:
                    new_output_count = output_count + 1
                    if new_output_count > ctx.max_outputs:
                        self.stats.count_pruned("outputs")
                        include_allowed = False
            if include_allowed:
                permanent_inputs = self._permanent_inputs(
                    included_mask | (1 << vertex), excluded_mask
                )
                if permanent_inputs > ctx.max_inputs:
                    self.stats.count_pruned("inputs")
                    include_allowed = False
        else:
            outside = reach.successors_mask(vertex) & ~included_mask
            if outside:
                new_output_count = output_count + 1

        if include_allowed:
            self._explore(
                index + 1,
                included_mask | (1 << vertex),
                excluded_mask,
                new_output_count,
                included_ancestors_mask | reach.ancestors_mask(vertex),
            )

        # ----- branch 2: exclude the vertex ------------------------------ #
        if self.use_pruning:
            # Excluding the vertex may permanently push the input count of the
            # already included vertices above the budget.
            permanent_inputs = self._permanent_inputs(
                included_mask, excluded_mask | (1 << vertex)
            )
            if permanent_inputs > ctx.max_inputs:
                self.stats.count_pruned("inputs")
                return
        self._explore(
            index + 1,
            included_mask,
            excluded_mask | (1 << vertex),
            output_count,
            included_ancestors_mask,
        )

    def _permanent_inputs(self, included_mask: int, excluded_mask: int) -> int:
        """Inputs of the partial cut that no future decision can remove."""
        reach = self.ctx.reach
        inputs = reach.cut_inputs_mask(included_mask)
        permanent = inputs & (excluded_mask | self.never_included_mask)
        return popcount(permanent)

    def _record(self, included_mask: int) -> None:
        self.stats.candidates_checked += 1
        if included_mask in self.found:
            self.stats.duplicates += 1
            return
        if is_valid_cut_mask(self.ctx, included_mask):
            self.found[included_mask] = None
