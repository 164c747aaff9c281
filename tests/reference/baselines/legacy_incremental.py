"""Frozen pre-optimization snapshot of the incremental enumerator.

This module preserves, verbatim in behaviour and in *cost profile*, the
``POLY-ENUM-INCR`` implementation as it stood before the hot-path kernel
optimisation (contribution tables, the per-reachable-region dominator cache
and the closure-based validity fast path).  It exists for exactly one
purpose: to be the bit-identity reference of the tests — every optimisation
of :mod:`repro.core.incremental` must reproduce this enumerator's cut sets
exactly.  The randomized property tests compare the two directly, and the
per-graph cut digests the ``core`` benchmark checks are re-derived from
this snapshot by ``tests/test_perf_core.py``.

Because the optimized code paths replaced the helpers this snapshot relied
on, the old implementations are inlined here:

* shift-based mask iteration and ``bin(mask).count("1")`` popcounts;
* ``B(V, w)`` derived per call from the descendant masks;
* per-cut input/output/convexity re-derivation through the loop-based
  ``check_cut_mask`` equivalents;
* one Lengauer–Tarjan run per *(input set, output)* pair, memoised only for
  the lifetime of a single enumeration, in the old Dubrova reduction step
  (:func:`_dominator_completions`).

Do not "fix" or speed up anything in this file; it is intentionally the old
code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import Constraints
from repro.core.context import EnumerationContext
from repro.core.pruning import FULL_PRUNING, PruningConfig
from repro.core.stats import EnumerationResult, EnumerationStats, Stopwatch
from repro.core.validity import _cut_depth, _is_connected_mask
from repro.dfg.graph import DataFlowGraph
from repro.dominators.generalized import reachable_mask_avoiding
from repro.dominators.iterative import strict_dominators
from repro.dominators.multi_vertex import CompletionResult
from tests.reference.lengauer_tarjan import immediate_dominators

ALGORITHM_NAME = "poly-enum-incremental-legacy"


# --------------------------------------------------------------------------- #
# The pre-optimization mask helpers (shift-based iteration, string popcount)
# --------------------------------------------------------------------------- #
def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _iterate_mask(mask: int):
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


def _ids_from_mask(mask: int) -> List[int]:
    result = []
    index = 0
    while mask:
        if mask & 1:
            result.append(index)
        mask >>= 1
        index += 1
    return result


def _between_mask(reach, sources_mask: int, target: int) -> int:
    """Pre-optimization ``B(V, w)``: per-call union of descendant masks."""
    reach_down = 0
    remaining = sources_mask
    index = 0
    while remaining:
        if remaining & 1:
            reach_down |= reach.descendants_mask(index)
        remaining >>= 1
        index += 1
    return reach_down & (reach.ancestors_mask(target) | (1 << target))


def _cut_inputs_mask(reach, cut_mask: int) -> int:
    inputs = 0
    for v in _iterate_mask(cut_mask):
        inputs |= reach.predecessors_mask(v)
    return inputs & ~cut_mask


def _cut_outputs_mask(reach, cut_mask: int) -> int:
    outputs = 0
    for v in _iterate_mask(cut_mask):
        if reach.successors_mask(v) & ~cut_mask:
            outputs |= 1 << v
    return outputs


def _is_convex_mask(reach, cut_mask: int) -> bool:
    for v in _iterate_mask(cut_mask):
        escaped = reach.successors_mask(v) & ~cut_mask
        for w in _iterate_mask(escaped):
            if reach.descendants_mask(w) & cut_mask:
                return False
    return True


def _dominator_completions(
    num_nodes: int,
    successors: Sequence[Sequence[int]],
    root: int,
    target: int,
    seed_mask: int,
) -> CompletionResult:
    """The pre-optimization Dubrova reduction step: one Lengauer–Tarjan run
    on the graph with the seed removed, the target's strict dominators as
    the completions."""
    if (seed_mask >> root) & 1:
        raise ValueError("the root cannot be part of a seed set")
    if (seed_mask >> target) & 1:
        raise ValueError("the target cannot be part of a seed set")
    idom = immediate_dominators(num_nodes, successors, root, removed_mask=seed_mask)
    if idom[target] is None:
        return CompletionResult(already_dominated=True, completions=[], lt_calls=1)
    completions = strict_dominators(idom, target, root)
    return CompletionResult(already_dominated=False, completions=completions, lt_calls=1)


def _check_cut_valid(context: EnumerationContext, node_mask: int) -> bool:
    """The pre-optimization per-cut validity re-derivation.

    Field-for-field equivalent to the old ``check_cut_mask(...).valid``: the
    inputs, outputs and convexity of the candidate are derived from scratch
    with the loop-based helpers above.
    """
    if node_mask == 0:
        return False
    reach = context.reach
    has_forbidden = bool(node_mask & context.forbidden_mask)
    # The old report object computed every field unconditionally.
    convex = _is_convex_mask(reach, node_mask)
    inputs_mask = _cut_inputs_mask(reach, node_mask)
    outputs_mask = _cut_outputs_mask(reach, node_mask)
    too_many_inputs = _popcount(inputs_mask) > context.max_inputs
    too_many_outputs = _popcount(outputs_mask) > context.max_outputs
    constraints = context.constraints
    disconnected = False
    if constraints.connected_only and convex and not has_forbidden:
        disconnected = not _is_connected_mask(context, node_mask, outputs_mask)
    too_deep = False
    if constraints.max_depth is not None:
        too_deep = _cut_depth(context, node_mask) > constraints.max_depth
    return not (
        has_forbidden
        or not convex
        or too_many_inputs
        or too_many_outputs
        or disconnected
        or too_deep
    )


# --------------------------------------------------------------------------- #
# The enumerator, as it stood before the optimisation PR
# --------------------------------------------------------------------------- #
def enumerate_cuts_legacy(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    pruning: PruningConfig = FULL_PRUNING,
    context: Optional[EnumerationContext] = None,
) -> EnumerationResult:
    """Enumerate all convex cuts with the pre-optimization incremental algorithm."""
    enumerator = LegacyIncrementalEnumerator(graph, constraints, pruning, context)
    return enumerator.run()


class LegacyIncrementalEnumerator:
    """Pre-optimization ``POLY-ENUM-INCR`` (Figure 3), kept as the perf baseline."""

    def __init__(
        self,
        graph: DataFlowGraph,
        constraints: Optional[Constraints] = None,
        pruning: PruningConfig = FULL_PRUNING,
        context: Optional[EnumerationContext] = None,
    ) -> None:
        self.graph = graph
        self.ctx = context or EnumerationContext.build(graph, constraints)
        self.pruning = pruning
        self.stats = EnumerationStats()
        self._found: Dict[int, None] = {}  # accepted masks, discovery order
        # Per-run memoisation only: the old implementation rebuilt these for
        # every enumeration, even on a warm, shared context.
        self._step_cache: Dict[Tuple[int, int], object] = {}
        self._reachable_cache: Dict[int, int] = {}
        self._visited_states: set = set()
        topo_positions = {
            v: i for i, v in enumerate(self.ctx.augmented.graph.topological_order())
        }
        self._output_candidates: List[int] = sorted(
            self.ctx.candidate_nodes, key=lambda v: topo_positions[v]
        )
        self._forbidden_succ_mask = self._nodes_with_forbidden_successor()

    # ------------------------------------------------------------------ #
    def run(self) -> EnumerationResult:
        with Stopwatch(self.stats):
            self._pick_output(
                inputs_mask=0,
                outputs_mask=0,
                body_mask=0,
                chosen=(),
                nin_left=self.ctx.max_inputs,
                nout_left=self.ctx.max_outputs,
            )
        self.stats.cuts_found = len(self._found)
        return EnumerationResult(
            masks=list(self._found),
            stats=self.stats,
            graph_name=self.graph.name,
            algorithm=ALGORITHM_NAME,
            context=self.ctx,
        )

    # ------------------------------------------------------------------ #
    def _pick_output(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
        chosen: Tuple[int, ...],
        nin_left: int,
        nout_left: int,
    ) -> None:
        self.stats.pick_output_calls += 1
        ctx = self.ctx
        reach = ctx.reach
        comparable = ctx.postdom_comparable

        has_internal_outputs = False
        if chosen and (self.pruning.connected_recovery or ctx.constraints.connected_only):
            effective = body_mask & ~inputs_mask & ~ctx.forbidden_mask
            current_outputs = _cut_outputs_mask(reach, effective)
            has_internal_outputs = _popcount(current_outputs) > len(chosen)

        for output in self._output_candidates:
            if (outputs_mask >> output) & 1:
                continue
            if self._inadmissible_output(comparable, chosen, output):
                continue
            if self.pruning.output_output and self._ancestor_of_chosen(output, chosen):
                self.stats.count_pruned("output_output")
                continue
            if chosen and self._requires_connected(has_internal_outputs):
                if inputs_mask == 0 or not reach.reached_by_any(output, inputs_mask):
                    self.stats.count_pruned("connectedness")
                    continue

            new_outputs_mask = outputs_mask | (1 << output)
            if inputs_mask:
                new_body_mask = body_mask | _between_mask(reach, inputs_mask, output)
            else:
                new_body_mask = body_mask

            if inputs_mask and self._dominates(inputs_mask, output):
                self._check_cut(
                    inputs_mask,
                    new_outputs_mask,
                    new_body_mask,
                    chosen + (output,),
                    nin_left,
                    nout_left - 1,
                )
            elif nin_left > 0:
                self._pick_inputs(
                    inputs_mask,
                    output,
                    new_outputs_mask,
                    new_body_mask,
                    chosen + (output,),
                    nin_left,
                    nout_left - 1,
                )

    def _requires_connected(self, has_internal_outputs: bool) -> bool:
        if self.ctx.constraints.connected_only:
            return True
        return self.pruning.connected_recovery and has_internal_outputs

    def _inadmissible_output(
        self, comparable: List[int], chosen: Tuple[int, ...], output: int
    ) -> bool:
        for previous in chosen:
            if (comparable[previous] >> output) & 1:
                return True
        return False

    def _ancestor_of_chosen(self, output: int, chosen: Tuple[int, ...]) -> bool:
        reach = self.ctx.reach
        for previous in chosen:
            if reach.has_path(output, previous):
                return True
        return False

    # ------------------------------------------------------------------ #
    def _pick_inputs(
        self,
        inputs_mask: int,
        output: int,
        outputs_mask: int,
        body_mask: int,
        chosen: Tuple[int, ...],
        nin_left: int,
        nout_left: int,
    ) -> None:
        self.stats.pick_input_calls += 1
        ctx = self.ctx
        reach = ctx.reach

        state = (inputs_mask, outputs_mask, body_mask, output)
        if state in self._visited_states:
            return
        self._visited_states.add(state)

        step = self._completions(inputs_mask, output)

        if step.already_dominated:
            self._check_cut(
                inputs_mask, outputs_mask, body_mask, chosen, nin_left, nout_left
            )
            return

        for completion in step.completions:
            if completion == ctx.source or (inputs_mask >> completion) & 1:
                continue
            if self.pruning.output_input and self._output_input_prune(
                completion, output, inputs_mask
            ):
                continue
            if self.pruning.input_input and self._input_input_prune(
                inputs_mask, completion
            ):
                continue
            new_inputs_mask = inputs_mask | (1 << completion)
            new_body_mask = body_mask | _between_mask(reach, 1 << completion, output)
            if self.pruning.prune_while_building and self._prune_body(
                new_body_mask, new_inputs_mask
            ):
                continue
            self._check_cut(
                new_inputs_mask,
                outputs_mask,
                new_body_mask,
                chosen,
                nin_left - 1,
                nout_left,
            )

        if nin_left > 1:
            for seed in self._seed_candidates(output, inputs_mask):
                if self.pruning.output_input and self._output_input_prune(
                    seed, output, inputs_mask
                ):
                    continue
                if self.pruning.input_input and self._input_input_prune(
                    inputs_mask, seed
                ):
                    continue
                new_inputs_mask = inputs_mask | (1 << seed)
                new_body_mask = body_mask | _between_mask(reach, 1 << seed, output)
                if self.pruning.prune_while_building and self._prune_body(
                    new_body_mask, new_inputs_mask
                ):
                    continue
                self._pick_inputs(
                    new_inputs_mask,
                    output,
                    outputs_mask,
                    new_body_mask,
                    chosen,
                    nin_left - 1,
                    nout_left,
                )

    def _seed_candidates(self, output: int, inputs_mask: int) -> List[int]:
        ctx = self.ctx
        ancestors = ctx.ancestors_mask(output)
        ancestors &= ~(1 << ctx.source)
        ancestors &= ~inputs_mask
        return _ids_from_mask(ancestors)

    # ------------------------------------------------------------------ #
    def _nodes_with_forbidden_successor(self) -> int:
        ctx = self.ctx
        mask = 0
        for vertex in ctx.candidate_nodes:
            if ctx.reach.successors_mask(vertex) & ctx.forbidden_mask:
                mask |= 1 << vertex
        return mask

    def _prune_body(self, body_mask: int, inputs_mask: int) -> bool:
        effective = body_mask & ~inputs_mask & ~self.ctx.forbidden_mask
        unavoidable_outputs = _popcount(effective & self._forbidden_succ_mask)
        if unavoidable_outputs > self.ctx.max_outputs:
            self.stats.count_pruned("too_many_unavoidable_outputs")
            return True
        return False

    def _output_input_prune(self, candidate: int, output: int, inputs_mask: int) -> bool:
        ctx = self.ctx
        reach = ctx.reach
        interior = (
            reach.descendants_mask(candidate)
            & reach.ancestors_mask(output)
            & ctx.forbidden_mask
            & ~inputs_mask
        )
        if interior:
            self.stats.count_pruned("output_input_forbidden_path")
            return True
        return False

    def _input_input_prune(self, inputs_mask: int, candidate: int) -> bool:
        comparable = self.ctx.postdom_comparable[candidate]
        for existing in _iterate_mask(inputs_mask):
            if (comparable >> existing) & 1:
                self.stats.count_pruned("input_input_postdom")
                return True
        return False

    def _reachable_avoiding(self, inputs_mask: int) -> int:
        cached = self._reachable_cache.get(inputs_mask)
        if cached is not None:
            return cached
        reachable = reachable_mask_avoiding(
            self.ctx.successor_lists,
            self.ctx.source,
            inputs_mask,
        )
        self._reachable_cache[inputs_mask] = reachable
        return reachable

    def _completions(self, inputs_mask: int, output: int):
        """One Lengauer–Tarjan run per fresh (input region, output) pair."""
        reachable = self._reachable_avoiding(inputs_mask)
        if not ((reachable >> output) & 1):
            return CompletionResult(already_dominated=True, completions=[], lt_calls=0)
        key = (reachable, output)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        step = _dominator_completions(
            self.ctx.num_nodes,
            self.ctx.successor_lists,
            self.ctx.source,
            output,
            seed_mask=inputs_mask,
        )
        self.stats.lt_calls += step.lt_calls
        self._step_cache[key] = step
        return step

    def _dominates(self, inputs_mask: int, output: int) -> bool:
        if not inputs_mask:
            return False
        reachable = self._reachable_avoiding(inputs_mask)
        return not ((reachable >> output) & 1)

    # ------------------------------------------------------------------ #
    def _check_cut(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
        chosen: Tuple[int, ...],
        nin_left: int,
        nout_left: int,
    ) -> None:
        state = (inputs_mask, outputs_mask, body_mask)
        if state in self._visited_states:
            self.stats.duplicates += 1
            return
        self._visited_states.add(state)
        self.stats.candidates_checked += 1
        self._maybe_record(inputs_mask, outputs_mask, body_mask)
        if nout_left > 0:
            self._pick_output(
                inputs_mask, outputs_mask, body_mask, chosen, nin_left, nout_left
            )

    def _maybe_record(self, inputs_mask: int, outputs_mask: int, body_mask: int) -> None:
        ctx = self.ctx
        effective = body_mask & ~inputs_mask & ~ctx.forbidden_mask
        if effective == 0:
            return
        actual_outputs = _cut_outputs_mask(ctx.reach, effective)
        if self.pruning.output_output:
            if _popcount(actual_outputs) > ctx.max_outputs:
                return
        else:
            if actual_outputs != outputs_mask:
                return
        if effective in self._found:
            self.stats.duplicates += 1
            return
        if not _check_cut_valid(ctx, effective):
            return
        self._found[effective] = None
