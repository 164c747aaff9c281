"""Validity predicates for cuts.

These predicates define, independently of any enumeration algorithm, which
vertex sets count as valid instruction-set-extension candidates.  They are
used by the enumerators for their final acceptance test, by the brute-force
oracle, and by the property-based tests that encode the paper's theorems.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..dfg.reachability import ids_from_mask, iterate_mask, popcount
from ..dominators.generalized import reachable_mask_avoiding
from .context import EnumerationContext
from .cut import build_body_mask

#: Environment variable enabling the per-cut debug cross-check: when set (to
#: any non-empty value), the optimized enumerators re-derive every recorded
#: candidate through :func:`check_cut_mask` and assert agreement with their
#: fast acceptance test.  Off by default — the re-derivation is exactly the
#: per-cut cost the hot-path optimisation removed.
DEBUG_VALIDITY_ENV = "REPRO_DEBUG_VALIDITY"


def debug_validation_enabled() -> bool:
    """``True`` when the ``REPRO_DEBUG_VALIDITY`` cross-check is switched on."""
    return bool(os.environ.get(DEBUG_VALIDITY_ENV))


@dataclass
class ValidityReport:
    """Detailed outcome of :func:`check_cut_mask` (useful in tests and debugging)."""

    empty: bool = False
    has_forbidden: bool = False
    convex: bool = True
    num_inputs: int = 0
    num_outputs: int = 0
    too_many_inputs: bool = False
    too_many_outputs: bool = False
    disconnected: bool = False
    too_deep: bool = False

    @property
    def valid(self) -> bool:
        """``True`` if the cut passed every check."""
        return not (
            self.empty
            or self.has_forbidden
            or not self.convex
            or self.too_many_inputs
            or self.too_many_outputs
            or self.disconnected
            or self.too_deep
        )


def check_cut_mask(context: EnumerationContext, node_mask: int) -> ValidityReport:
    """Run every validity check on *node_mask* and return a detailed report."""
    report = ValidityReport()
    if node_mask == 0:
        report.empty = True
        return report
    if node_mask & context.forbidden_mask:
        report.has_forbidden = True
    reach = context.reach
    report.convex = reach.is_convex_mask(node_mask)
    inputs_mask = reach.cut_inputs_mask(node_mask)
    outputs_mask = reach.cut_outputs_mask(node_mask)
    report.num_inputs = popcount(inputs_mask)
    report.num_outputs = popcount(outputs_mask)
    report.too_many_inputs = report.num_inputs > context.max_inputs
    report.too_many_outputs = report.num_outputs > context.max_outputs
    constraints = context.constraints
    if constraints.connected_only and report.convex and not report.has_forbidden:
        report.disconnected = not _is_connected_mask(context, node_mask, outputs_mask)
    if constraints.max_depth is not None:
        report.too_deep = _cut_depth(context, node_mask) > constraints.max_depth
    return report


def is_valid_cut_mask(context: EnumerationContext, node_mask: int) -> bool:
    """``True`` if *node_mask* is a valid cut under the context's constraints."""
    return check_cut_mask(context, node_mask).valid


def _is_connected_mask(context: EnumerationContext, node_mask: int, outputs_mask: int) -> bool:
    """Definition 4 connectivity check at mask level."""
    outputs = ids_from_mask(outputs_mask)
    if len(outputs) <= 1:
        return True
    inputs_mask = context.reach.cut_inputs_mask(node_mask)
    inputs_per_output = {}
    for output in outputs:
        feeding = 0
        for input_vertex in iterate_mask(inputs_mask):
            if _input_reaches_inside(context, node_mask, input_vertex, output):
                feeding |= 1 << input_vertex
        inputs_per_output[output] = feeding
    for i, first in enumerate(outputs):
        for second in outputs[i + 1 :]:
            if not (inputs_per_output[first] & inputs_per_output[second]):
                return False
    return True


def _input_reaches_inside(
    context: EnumerationContext, node_mask: int, input_vertex: int, output: int
) -> bool:
    """``True`` if *input_vertex* reaches *output* through cut vertices only."""
    frontier = [
        succ for succ in context.successor_lists[input_vertex] if (node_mask >> succ) & 1
    ]
    if output in frontier:
        return True
    seen = set(frontier)
    while frontier:
        vertex = frontier.pop()
        for succ in context.successor_lists[vertex]:
            if succ == output:
                return True
            if (node_mask >> succ) & 1 and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def _cut_depth(context: EnumerationContext, node_mask: int) -> int:
    """Longest path through the cut, counted in vertices."""
    order = [
        v for v in context.augmented.graph.topological_order() if (node_mask >> v) & 1
    ]
    longest = {v: 1 for v in order}
    best = 0
    for v in order:
        for succ in context.successor_lists[v]:
            if (node_mask >> succ) & 1 and longest[v] + 1 > longest[succ]:
                longest[succ] = longest[v] + 1
        if longest[v] > best:
            best = longest[v]
    return best


# ---------------------------------------------------------------------- #
# The paper's additional characterisations
# ---------------------------------------------------------------------- #
def satisfies_technical_condition(context: EnumerationContext, node_mask: int) -> bool:
    """The extra validity condition of Section 3.

    For each input ``w`` of the cut there must be a cut vertex ``v`` and a
    path from the (artificial) root to ``v`` that contains ``w`` but no other
    input of the cut.  The few valid cuts that violate it are excluded from
    the paper's enumeration (they can be recovered afterwards, see
    :mod:`repro.core.recovery`).
    """
    reach = context.reach
    inputs_mask = reach.cut_inputs_mask(node_mask)
    if inputs_mask == 0:
        return True
    root = context.source
    successors = context.successor_lists
    for input_vertex in iterate_mask(inputs_mask):
        others = inputs_mask & ~(1 << input_vertex)
        reach_root = reachable_mask_avoiding(successors, root, others)
        if not ((reach_root >> input_vertex) & 1):
            return False
        reach_from_input = reachable_mask_avoiding(successors, input_vertex, others)
        if not (reach_from_input & node_mask):
            return False
    return True


def is_io_identified(context: EnumerationContext, node_mask: int) -> bool:
    """``True`` if the cut equals the Theorem 2/3 reconstruction from its I/O sets.

    The paper's enumeration reaches exactly the cuts for which
    ``S == ∪_{o ∈ O(S)} B(I(S), o) \\ I(S)``; a small number of valid convex
    cuts (those where one input can be reached from another input through
    vertices outside the cut) do not satisfy this equality.  The predicate
    makes that boundary explicit and testable.
    """
    reach = context.reach
    inputs_mask = reach.cut_inputs_mask(node_mask)
    outputs_mask = reach.cut_outputs_mask(node_mask)
    reconstructed = build_body_mask(context, inputs_mask, outputs_mask)
    return reconstructed == node_mask


def enumerable_by_paper_algorithm(context: EnumerationContext, node_mask: int) -> bool:
    """Valid cuts the polynomial algorithms are expected to report.

    Combines :func:`is_valid_cut_mask` with the two restrictions the paper
    introduces: the technical input condition of Section 3 and the
    input/output identification property the construction of Theorem 3 relies
    on.
    """
    return (
        is_valid_cut_mask(context, node_mask)
        and satisfies_technical_condition(context, node_mask)
        and is_io_identified(context, node_mask)
    )
