"""Recovery of valid cuts that the paper's enumeration deliberately excludes.

Section 3 adds a *technical condition* to the definition of a valid cut (every
input must have a root path that avoids the other inputs) and notes that the
excluded cuts "can be used to find the cuts that were lost": the excluded cut
plus the offending input is itself a valid cut, which the algorithm does find.

During this reproduction we additionally identified a second, closely related
family of valid cuts the Theorem 3 construction cannot rebuild: cuts where one
input is reachable from another input through vertices *outside* the cut (see
:func:`repro.core.validity.is_io_identified`).  Both families share the same
structure — they are obtained from an enumerated cut by peeling off vertices
at the top — so a single post-processing pass recovers them: starting from the
enumerated cuts, repeatedly remove a vertex that has no predecessor inside the
cut, and keep every result that is a valid cut under the constraints.

The pass is a closure (it iterates until no new cut appears).  It is complete
whenever the missing cut can be reached from an enumerated cut through a chain
of head removals whose intermediate steps respect the input budget; the
property-based tests measure how close the combination
"paper algorithm + recovery" gets to the exhaustive baseline in practice.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..dfg.reachability import iterate_mask
from .context import EnumerationContext
from .cut import Cut
from .stats import EnumerationResult
from .validity import is_valid_cut_mask


def head_vertices(context: EnumerationContext, body_mask: int) -> List[int]:
    """Vertices of the cut that have no predecessor inside the cut.

    Removing such a vertex keeps the remaining set convex: a path between two
    remaining vertices cannot pass through the removed vertex, because the
    removed vertex has no predecessor in the cut.
    """
    result = []
    predecessors_mask = context.reach.predecessors_mask
    for vertex in iterate_mask(body_mask):
        if not (predecessors_mask(vertex) & body_mask):
            result.append(vertex)
    return result


def recover_excluded_cuts(
    context: EnumerationContext,
    cuts: Iterable[Cut],
    max_extra: Optional[int] = None,
) -> List[Cut]:
    """Return additional valid cuts reachable from *cuts* by head removals.

    Parameters
    ----------
    context:
        The enumeration context the cuts were produced with.
    cuts:
        Cuts already found by an enumeration algorithm.
    max_extra:
        Optional safety bound on the number of recovered cuts (``None`` means
        unlimited).

    Returns
    -------
    list of Cut
        Only the *new* cuts (the input cuts are not repeated).
    """
    masks = _recover_masks(context, [cut.node_mask() for cut in cuts], max_extra)
    return EnumerationResult(masks=masks, context=context).cuts


def _recover_masks(ctx: EnumerationContext, masks: List[int], limit: Optional[int]) -> List[int]:
    """:func:`recover_excluded_cuts` on vertex bit masks."""
    known: Set[int] = set(masks)
    frontier: List[int] = list(masks)
    recovered: List[int] = []
    while frontier:
        mask = frontier.pop()
        for vertex in head_vertices(ctx, mask):
            reduced = mask & ~(1 << vertex)
            if reduced == 0 or reduced in known:
                continue
            known.add(reduced)
            # Even when the reduced set violates the input budget it may lead
            # to further reductions that are valid again, so always keep
            # exploring from it.
            frontier.append(reduced)
            if is_valid_cut_mask(ctx, reduced):
                recovered.append(reduced)
                if limit is not None and len(recovered) >= limit:
                    return recovered
    return recovered


def enumerate_with_recovery(result: EnumerationResult, context: EnumerationContext) -> EnumerationResult:
    """Augment an enumeration result with the recovered cuts.

    Returns a new :class:`EnumerationResult` whose ``masks`` list contains the
    original cuts followed by the recovered ones, and whose algorithm name is
    tagged with ``+recovery``.
    """
    combined = result.masks + _recover_masks(context, result.masks, None)
    stats = result.stats
    stats.cuts_found = len(combined)
    return EnumerationResult(
        masks=combined,
        stats=stats,
        graph_name=result.graph_name,
        algorithm=f"{result.algorithm}+recovery",
        context=context,
    )
