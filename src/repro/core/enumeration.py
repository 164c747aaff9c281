"""The basic polynomial-time enumeration algorithm (Figure 2 of the paper).

``POLY-ENUM`` precomputes, for every candidate output vertex, all of its
generalized dominators with at most ``Nin`` vertices, and then recursively
couples output choices with dominator choices.  The cut body is rebuilt from
scratch for every candidate through the Theorem 3 construction
``S = ∪ B(D, o) \\ I``.

This variant is the reference implementation: simple, close to the paper's
pseudo-code, and "feasible only for small basic blocks" (Section 5.1).  The
practical algorithm is the incremental one in
:mod:`repro.core.incremental`, which the tests check against this one.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..dfg.graph import DataFlowGraph
from ..dfg.reachability import ids_from_mask, popcount
from ..dominators.multi_vertex import (
    DominatorSearchStats,
    enumerate_generalized_dominators,
)
from .constraints import Constraints
from .context import EnumerationContext
from .stats import EnumerationResult, EnumerationStats, Stopwatch, check_deadline
from .validity import is_valid_cut_mask

ALGORITHM_NAME = "poly-enum-basic"


def enumerate_cuts_basic(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    context: Optional[EnumerationContext] = None,
    deadline: Optional[float] = None,
) -> EnumerationResult:
    """Enumerate all convex cuts of *graph* with the basic algorithm of Figure 2.

    Parameters
    ----------
    graph:
        The basic block to analyse.
    constraints:
        Input/output constraints; defaults to ``Nin=4, Nout=2`` as in the
        paper's experiments.
    context:
        Optional pre-built :class:`EnumerationContext` (must match *graph*).
    deadline:
        Optional ``time.perf_counter()`` value: past it, the dominator
        precomputation (before each kernel run) or ``DO-ENUM`` (at each
        candidate) raises :class:`~repro.core.stats.BlockTimeout`.

    Returns
    -------
    EnumerationResult
        The distinct valid cuts and the search statistics.
    """
    ctx = context or EnumerationContext.build(graph, constraints)
    stats = EnumerationStats()
    found: Dict[int, None] = {}  # accepted masks, discovery order

    with Stopwatch(stats):
        dominators_of = _precompute_dominators(ctx, stats, deadline)
        _do_enum(
            ctx,
            dominators_of,
            inputs_mask=0,
            outputs_mask=0,
            body_mask=0,
            chosen=(),
            nout_left=ctx.max_outputs,
            stats=stats,
            found=found,
            deadline=deadline,
        )

    stats.cuts_found = len(found)
    return EnumerationResult(
        masks=list(found),
        stats=stats,
        graph_name=graph.name,
        algorithm=ALGORITHM_NAME,
        context=ctx,
    )


def _precompute_dominators(
    ctx: EnumerationContext, stats: EnumerationStats, deadline: Optional[float]
) -> Dict[int, List[int]]:
    """Setup phase: generalized dominators (as masks) of every candidate output.

    Each reduction step of the Dubrova enumeration runs the single-pass DAG
    kernel over the context's topological order and predecessor lists, and
    counts one ``lt_calls``.
    """
    dominators_of: Dict[int, List[int]] = {}
    check = None if deadline is None else partial(check_deadline, deadline)
    for output in ctx.candidate_nodes:
        candidates = [
            v
            for v in ids_from_mask(ctx.ancestors_mask(output))
            if v != ctx.source
        ]
        search_stats = DominatorSearchStats()
        dominator_sets = enumerate_generalized_dominators(
            ctx.successor_lists,
            ctx.topo_order,
            ctx.predecessor_lists,
            ctx.source,
            output,
            max_size=ctx.max_inputs,
            candidates=candidates,
            search_stats=search_stats,
            check=check,
        )
        masks = []
        for dominator_set in dominator_sets:
            mask = 0
            for vertex in dominator_set:
                mask |= 1 << vertex
            masks.append(mask)
        stats.lt_calls += search_stats.lt_calls
        dominators_of[output] = masks
    return dominators_of


def _do_enum(
    ctx: EnumerationContext,
    dominators_of: Dict[int, List[int]],
    inputs_mask: int,
    outputs_mask: int,
    body_mask: int,
    chosen: Tuple[int, ...],
    nout_left: int,
    stats: EnumerationStats,
    found: Dict[int, None],
    deadline: Optional[float],
) -> None:
    """``DO-ENUM`` of Figure 2."""
    stats.pick_output_calls += 1
    comparable = ctx.postdom_comparable
    reach_between = ctx.reach.between_mask
    for output in ctx.candidate_nodes:
        if (outputs_mask >> output) & 1:
            continue
        if _inadmissible_output(comparable, chosen, output):
            continue
        new_outputs_mask = outputs_mask | (1 << output)
        for dominator_mask in dominators_of[output]:
            new_inputs_mask = inputs_mask | dominator_mask
            if popcount(new_inputs_mask) > ctx.max_inputs:
                continue
            between = reach_between(dominator_mask, output)
            new_body_mask = body_mask | between
            stats.candidates_checked += 1
            if deadline is not None:
                check_deadline(deadline)
            _maybe_record(ctx, new_body_mask, new_inputs_mask, new_outputs_mask, stats, found)
            if nout_left > 1:
                _do_enum(
                    ctx,
                    dominators_of,
                    new_inputs_mask,
                    new_outputs_mask,
                    new_body_mask,
                    chosen + (output,),
                    nout_left - 1,
                    stats,
                    found,
                    deadline,
                )


def _inadmissible_output(comparable: List[int], chosen: Tuple[int, ...], output: int) -> bool:
    """Output admissibility check of Section 5.1.

    A vertex cannot be an output together with a vertex that postdominates it
    (or that it postdominates): the path to the sink of the postdominated
    vertex would re-enter the cut and violate convexity.
    """
    for previous in chosen:
        if (comparable[previous] >> output) & 1:
            return True
    return False


def _maybe_record(
    ctx: EnumerationContext,
    body_mask: int,
    inputs_mask: int,
    outputs_mask: int,
    stats: EnumerationStats,
    found: Dict[int, None],
) -> None:
    """Record the constructed body if it is a valid cut with the chosen outputs.

    The body is the raw union of the ``B(D, o)`` contributions; the chosen
    input vertices are masked out here, with the *final* input set, exactly as
    in the Theorem 3 construction ``S = ∪ B(D, o) \\ I``.
    """
    effective = body_mask & ~inputs_mask
    if effective == 0:
        return
    if effective & ctx.forbidden_mask:
        return
    actual_outputs = ctx.reach.cut_outputs_mask(effective)
    if actual_outputs != outputs_mask:
        return
    if effective in found:
        stats.duplicates += 1
        return
    if not is_valid_cut_mask(ctx, effective):
        return
    found[effective] = None
