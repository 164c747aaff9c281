"""Connected-cut enumeration in the spirit of Yu and Mitra [17].

The related-work section of the paper singles out approaches that trade
generality for speed by only considering *connected* custom instructions.
This module provides such a baseline:

* for single-output instructions it grows "upward cones" from every candidate
  output vertex, extending the cut one predecessor at a time while the
  input/output budget still holds — the classic connected-MIMO-free scheme;
* for multi-output budgets it falls back to the library's incremental
  algorithm with the ``connected_only`` constraint, which the paper notes its
  algorithm supports directly (Section 5.3, "Connectedness").
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.incremental import enumerate_cuts
from ..core.stats import EnumerationResult, EnumerationStats, Stopwatch
from ..core.validity import is_valid_cut_mask
from ..dfg.graph import DataFlowGraph
from ..dfg.reachability import iterate_mask, popcount

ALGORITHM_NAME = "connected-only"


def enumerate_connected_cuts(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    context: Optional[EnumerationContext] = None,
) -> EnumerationResult:
    """Enumerate connected convex cuts only.

    The returned cuts satisfy Definition 4 in addition to the usual
    constraints.  With ``max_outputs == 1`` a dedicated cone-growing search is
    used; otherwise the general algorithm runs with the ``connected_only``
    constraint switched on.
    """
    constraints = constraints or Constraints()
    connected_constraints = Constraints(
        max_inputs=constraints.max_inputs,
        max_outputs=constraints.max_outputs,
        allow_memory_ops=constraints.allow_memory_ops,
        connected_only=True,
        max_depth=constraints.max_depth,
        extra_forbidden=constraints.extra_forbidden,
    )
    ctx = context or EnumerationContext.build(graph, connected_constraints)

    if connected_constraints.max_outputs == 1:
        return _single_output_cones(graph, ctx)
    result = enumerate_cuts(graph, connected_constraints, context=ctx)
    return EnumerationResult(
        masks=result.masks,
        stats=result.stats,
        graph_name=graph.name,
        algorithm=ALGORITHM_NAME,
        context=ctx,
    )


def _single_output_cones(graph: DataFlowGraph, ctx: EnumerationContext) -> EnumerationResult:
    """Grow single-output connected cuts upwards from every candidate output."""
    stats = EnumerationStats()
    found: Dict[int, None] = {}  # accepted masks, discovery order

    with Stopwatch(stats):
        for output in ctx.candidate_nodes:
            visited = set()
            _grow(ctx, output, 1 << output, stats, found, visited)

    stats.cuts_found = len(found)
    return EnumerationResult(
        masks=list(found),
        stats=stats,
        graph_name=graph.name,
        algorithm=ALGORITHM_NAME,
        context=ctx,
    )


def _grow(
    ctx: EnumerationContext,
    output: int,
    body_mask: int,
    stats: EnumerationStats,
    found: Dict[int, None],
    visited: set,
) -> None:
    """Recursively extend *body_mask* with predecessors of its members."""
    if body_mask in visited:
        stats.duplicates += 1
        return
    visited.add(body_mask)
    stats.candidates_checked += 1
    if body_mask not in found and is_valid_cut_mask(ctx, body_mask):
        # Only keep cuts where the chosen vertex is the unique output.
        outputs = ctx.reach.cut_outputs_mask(body_mask)
        if outputs == (1 << output):
            found[body_mask] = None

    # Candidate extensions: predecessors of current members that are allowed
    # and not yet included.  The input budget only bounds the *final* cut, so
    # the growth is throttled with a loose factor to keep the cone search from
    # exploring hopeless regions; the exact check happens above.
    frontier = 0
    for vertex in iterate_mask(body_mask):
        frontier |= ctx.reach.predecessors_mask(vertex)
    frontier &= ctx.candidate_mask & ~body_mask

    for candidate in iterate_mask(frontier):
        new_mask = body_mask | (1 << candidate)
        if new_mask in visited:
            continue
        inputs = ctx.reach.cut_inputs_mask(new_mask)
        if popcount(inputs) > 2 * ctx.max_inputs:
            continue
        _grow(ctx, output, new_mask, stats, found, visited)
