"""The incremental enumeration algorithm (Figure 3) with the Section 5.3 prunings.

``POLY-ENUM-INCR`` interleaves the choice of outputs with the Dubrova-style
exploration of their multiple-vertex dominators, and builds the cut body ``S``
incrementally: picking an output ``o`` adds ``B(I, o)``, picking an input
``w`` adds ``B({w}, o)``.  The body is kept as the *raw* union of those
contributions and the chosen inputs are masked out whenever the body is
inspected — this reproduces the ``S = ∪ B(I, o) \\ I`` construction of
Theorem 3 with the final input set, which matters when an input chosen late in
the search lies on a path contributed earlier.  Because the body is a Python
integer bit mask, "saving the old tail of S" (Section 5.4) is free — the
recursion simply keeps the previous mask.

The hot path is organised around precomputation and incrementality:

* the ``B({w}, o)`` contributions come from the context's
  :class:`~repro.core.context.ContributionTables` (one closure intersection
  per (vertex, output) pair, computed once per context and shared across
  pruning configurations through the engine's context cache); ``B(I, o)``
  for a newly picked output is one AND of the inputs' descendant union,
  formed once per PICK-OUTPUT call, with ``o`` and its ancestors;
* the dominator queries go through the context's shared caches — one
  dominator array per distinct *reachable region*, answering the
  completion query of every output of that region, and derived from the
  array of the input set one vertex smaller (the full kernel runs only when
  no such set is cached);
* the postdominator pair-loops of the admissibility and input–input checks
  are single mask intersections against precomputed comparability masks;
* the per-cut acceptance test derives inputs, outputs and convexity in one
  pass over the candidate's set bits
  (:meth:`~repro.dfg.reachability.ReachabilityIndex.cut_profile`); the full
  definitional re-derivation (:func:`~repro.core.validity.check_cut_mask`)
  runs only as a debug assertion when ``REPRO_DEBUG_VALIDITY`` is set.

The pruning techniques of Section 5.3 are individually switchable through
:class:`~repro.core.pruning.PruningConfig`.  The configurations do not all
report the same cuts: the ablation benchmark records 349 cuts with every
rule on and 352 with none (or without the input-input rule alone).  What
the test suite checks, for full pruning, no pruning and each one-rule
ablation, is that the result lies between the brute-force oracle's
paper-enumerable cuts and its valid cuts, and that it is bit-identical to
the frozen pre-optimization snapshot in
:mod:`repro.baselines.legacy_incremental` run under the same configuration.
The ablation benchmark measures how much search each rule removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dfg.graph import DataFlowGraph
from ..dfg.reachability import ids_from_mask
from .constraints import Constraints
from .context import EnumerationContext
from .cut import Cut
from .pruning import FULL_PRUNING, PruningConfig
from .stats import EnumerationResult, EnumerationStats, Stopwatch
from .validity import _cut_depth, _is_connected_mask, check_cut_mask, debug_validation_enabled

ALGORITHM_NAME = "poly-enum-incremental"


def enumerate_cuts(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    pruning: PruningConfig = FULL_PRUNING,
    context: Optional[EnumerationContext] = None,
) -> EnumerationResult:
    """Enumerate all convex cuts of *graph* with the incremental algorithm.

    This is the library's primary entry point; see
    :func:`repro.core.enumeration.enumerate_cuts_basic` for the reference
    (non-incremental) variant.
    """
    enumerator = IncrementalEnumerator(graph, constraints, pruning, context)
    return enumerator.run()


class IncrementalEnumerator:
    """Stateful implementation of ``POLY-ENUM-INCR`` (Figure 3)."""

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
        self._found: Dict[int, Cut] = {}
        # Search-state dedup: the same (inputs, outputs, body) state is
        # reached through many different orderings of the same choices; the
        # set collapses those orderings without changing the reachable
        # states.  (The dominator/contribution memoisation lives on the
        # context and is shared across runs.)
        self._visited_states: set = set()
        self._tables = self.ctx.contribution_tables
        self._debug_validate = debug_validation_enabled()
        # Candidate outputs in topological order: picking outputs
        # ancestors-first guarantees every output set can be selected without
        # tripping the output-output pruning.
        self._output_candidates: List[int] = sorted(
            self.ctx.candidate_nodes, key=self.ctx.topo_position.__getitem__
        )
        reach = self.ctx.reach
        not_source = ~(1 << self.ctx.source)
        # Per output o: o and its ancestors, the window that cuts a union of
        # descendant rows down to B(I, o); and the ancestors other than the
        # source in ascending id order, the seed-set candidates of o.
        self._closed_ancestors: Dict[int, int] = {}
        self._seed_lists: Dict[int, List[int]] = {}
        for output in self._output_candidates:
            ancestors = reach.ancestors_mask(output)
            self._closed_ancestors[output] = ancestors | (1 << output)
            self._seed_lists[output] = ids_from_mask(ancestors & not_source)
        self._forbidden_succ_mask = self._nodes_with_forbidden_successor()
        # Postdominator comparability rows: bit u of row v set iff u
        # (post)dominates v or vice versa.  Replaces the pair-loops of the
        # output-admissibility and input-input checks with one AND each.
        postdom = self.ctx.postdom_tree
        self._postdom_comparable: List[int] = [
            postdom.comparability_mask(v) for v in range(self.ctx.num_nodes)
        ]

    # ------------------------------------------------------------------ #
    def run(self) -> EnumerationResult:
        """Execute the search and return the enumeration result."""
        lt_seconds_before = self.ctx.lt_seconds_performed
        with Stopwatch(self.stats):
            self._pick_output(
                inputs_mask=0,
                outputs_mask=0,
                body_mask=0,
                nin_left=self.ctx.max_inputs,
                nout_left=self.ctx.max_outputs,
            )
        self.stats.cuts_found = len(self._found)
        self.stats.lt_seconds = self.ctx.lt_seconds_performed - lt_seconds_before
        return EnumerationResult(
            cuts=list(self._found.values()),
            stats=self.stats,
            graph_name=self.graph.name,
            algorithm=ALGORITHM_NAME,
        )

    # ------------------------------------------------------------------ #
    # PICK-OUTPUT
    # ------------------------------------------------------------------ #
    def _pick_output(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
        nin_left: int,
        nout_left: int,
    ) -> None:
        self.stats.pick_output_calls += 1
        ctx = self.ctx
        reach = ctx.reach
        comparable = self._postdom_comparable
        closed_ancestors = self._closed_ancestors
        # Invariants of the candidate loop: B(I, o) is the union of the
        # inputs' descendant rows cut down to o and its ancestors, and o is
        # dominated by I (Condition 1 of Definition 5) iff removing I leaves
        # o unreachable from the source.
        if inputs_mask:
            input_descendants = reach.union_descendants(inputs_mask)
            region = ctx.reachable_avoiding(inputs_mask)
        else:
            input_descendants = region = 0

        has_internal_outputs = False
        require_connected = ctx.constraints.connected_only
        if outputs_mask and (self.pruning.connected_recovery or require_connected):
            effective = body_mask & ~inputs_mask & ~ctx.forbidden_mask
            current_outputs = reach.cut_outputs_mask(effective)
            has_internal_outputs = (
                current_outputs.bit_count() > outputs_mask.bit_count()
            )
        if not require_connected:
            require_connected = (
                self.pruning.connected_recovery and has_internal_outputs
            )

        output_output = self.pruning.output_output
        count_pruned = self.stats.count_pruned
        for output in self._output_candidates:
            if (outputs_mask >> output) & 1:
                continue
            # Section 5.1: chosen outputs may not postdominate one another.
            if comparable[output] & outputs_mask:
                continue
            if output_output and (
                reach.descendants_mask(output) & outputs_mask
            ):
                # Output-output pruning: ancestors of a chosen output.
                count_pruned("output_output")
                continue
            if outputs_mask and require_connected:
                if inputs_mask == 0 or not (
                    reach.ancestors_mask(output) & inputs_mask
                ):
                    count_pruned("connectedness")
                    continue

            new_outputs_mask = outputs_mask | (1 << output)
            new_body_mask = body_mask | (input_descendants & closed_ancestors[output])
            if inputs_mask and not (region >> output) & 1:
                self._check_cut(
                    inputs_mask,
                    new_outputs_mask,
                    new_body_mask,
                    nin_left,
                    nout_left - 1,
                )
            elif nin_left > 0:
                self._pick_inputs(
                    inputs_mask,
                    output,
                    new_outputs_mask,
                    new_body_mask,
                    nin_left,
                    nout_left - 1,
                )

    # ------------------------------------------------------------------ #
    # PICK-INPUTS
    # ------------------------------------------------------------------ #
    def _pick_inputs(
        self,
        inputs_mask: int,
        output: int,
        outputs_mask: int,
        body_mask: int,
        nin_left: int,
        nout_left: int,
    ) -> None:
        self.stats.pick_input_calls += 1
        ctx = self.ctx
        tables = self._tables
        comparable = self._postdom_comparable

        state = (inputs_mask, outputs_mask, body_mask, output)
        if state in self._visited_states:
            return
        self._visited_states.add(state)

        step, fresh_lt_calls = ctx.dominator_completions_for(inputs_mask, output)
        self.stats.lt_calls += fresh_lt_calls

        if step.already_dominated:
            self._check_cut(
                inputs_mask, outputs_mask, body_mask, nin_left, nout_left
            )
            return

        output_input = self.pruning.output_input
        input_input = self.pruning.input_input
        prune_while_building = self.pruning.prune_while_building
        count_pruned = self.stats.count_pruned
        source = ctx.source
        # Both candidate loops below test the same two prunings against the
        # fixed *output*, so the per-(vertex, output) table rows are fetched
        # once here and indexed per candidate.
        #
        # Output-input pruning (Section 5.3): a forbidden vertex lying on a
        # path from the candidate input to the output ends up inside the
        # constructed body unless it is itself chosen as an input — so
        # forbidden vertices already promoted to inputs are ignored by the
        # test.  The paper additionally proposes a static bound counting the
        # forbidden predecessors of the vertices between candidate and
        # output ("if these nodes are Nin or more, v will not be a valid
        # input for w"); during this reproduction that bound turned out to
        # exclude a small number of valid cuts — the ones in which the
        # vertex with the forbidden predecessor is itself promoted to a cut
        # input — and it is therefore not applied.
        #
        # Input-input pruning: chosen seed-set members may not postdominate
        # one another (one AND against the comparability row).
        forbidden_interiors = tables.forbidden_interior_table(output)
        between_row = tables.between_table(output)
        for completion in step.completions:
            if completion == source or (inputs_mask >> completion) & 1:
                continue
            if output_input and forbidden_interiors[completion] & ~inputs_mask:
                count_pruned("output_input_forbidden_path")
                continue
            if input_input and comparable[completion] & inputs_mask:
                count_pruned("input_input_postdom")
                continue
            new_inputs_mask = inputs_mask | (1 << completion)
            new_body_mask = body_mask | between_row[completion]
            if prune_while_building and self._prune_body(
                new_body_mask, new_inputs_mask
            ):
                continue
            self._check_cut(
                new_inputs_mask,
                outputs_mask,
                new_body_mask,
                nin_left - 1,
                nout_left,
            )

        if nin_left > 1:
            # Extend the seed set with another ancestor of the output.
            for seed in self._seed_lists[output]:
                if (inputs_mask >> seed) & 1:
                    continue
                if output_input and forbidden_interiors[seed] & ~inputs_mask:
                    count_pruned("output_input_forbidden_path")
                    continue
                if input_input and comparable[seed] & inputs_mask:
                    count_pruned("input_input_postdom")
                    continue
                new_inputs_mask = inputs_mask | (1 << seed)
                new_body_mask = body_mask | between_row[seed]
                if prune_while_building and self._prune_body(
                    new_body_mask, new_inputs_mask
                ):
                    continue
                self._pick_inputs(
                    new_inputs_mask,
                    output,
                    outputs_mask,
                    new_body_mask,
                    nin_left - 1,
                    nout_left,
                )

    # ------------------------------------------------------------------ #
    # Pruning predicates (Section 5.3)
    # ------------------------------------------------------------------ #
    def _nodes_with_forbidden_successor(self) -> int:
        """Mask of vertices that have at least one forbidden successor.

        Such vertices are necessarily outputs of any cut containing them,
        because a forbidden successor can never be absorbed into the cut.
        """
        ctx = self.ctx
        mask = 0
        successors_mask = ctx.reach.successors_mask
        forbidden = ctx.forbidden_mask
        for vertex in ctx.candidate_nodes:
            if successors_mask(vertex) & forbidden:
                mask |= 1 << vertex
        return mask

    def _prune_body(self, body_mask: int, inputs_mask: int) -> bool:
        """Prune-while-building-S (Section 5.3).

        The body is inspected after masking out both the chosen inputs and the
        forbidden vertices it contains — forbidden vertices sitting on a path
        between a chosen input and an output are not really part of the cut
        under construction, they are inputs that have not been chosen
        explicitly yet (the paper's footnote 2: forbidden nodes may still be
        chosen as inputs).  What remains is a lower bound on the final cut,
        and vertices of it that feed a forbidden consumer can never stop being
        outputs, so more than ``Nout`` of them dooms the whole branch.
        """
        effective = body_mask & ~inputs_mask & ~self.ctx.forbidden_mask
        unavoidable = (effective & self._forbidden_succ_mask).bit_count()
        if unavoidable > self.ctx.max_outputs:
            self.stats.count_pruned("too_many_unavoidable_outputs")
            return True
        return False

    # ------------------------------------------------------------------ #
    # CHECK-CUT
    # ------------------------------------------------------------------ #
    def _check_cut(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
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
                inputs_mask, outputs_mask, body_mask, nin_left, nout_left
            )

    def _maybe_record(self, inputs_mask: int, outputs_mask: int, body_mask: int) -> None:
        ctx = self.ctx
        # The recorded cut is the constructed body minus the chosen inputs and
        # minus any forbidden vertex the construction dragged in: a forbidden
        # vertex between an input and an output cannot be part of the cut, so
        # it is one of the cut's (implicitly chosen) inputs instead.
        effective = body_mask & ~inputs_mask & ~ctx.forbidden_mask
        if effective == 0:
            return
        # One pass over the candidate's set bits yields I(S), O(S) and the
        # convexity verdict; the definitional re-derivation runs only under
        # REPRO_DEBUG_VALIDITY (see below).
        cut_inputs, actual_outputs, convex = ctx.reach.cut_profile(effective)
        if self.pruning.output_output:
            # Relaxed acceptance: internal outputs are allowed as long as the
            # total stays within the budget.
            if actual_outputs.bit_count() > ctx.max_outputs:
                return
        else:
            if actual_outputs != outputs_mask:
                return
        if effective in self._found:
            self.stats.duplicates += 1
            return
        valid = (
            convex
            and cut_inputs.bit_count() <= ctx.max_inputs
            and actual_outputs.bit_count() <= ctx.max_outputs
        )
        constraints = ctx.constraints
        if valid and constraints.connected_only:
            valid = _is_connected_mask(ctx, effective, actual_outputs)
        if valid and constraints.max_depth is not None:
            valid = _cut_depth(ctx, effective) <= constraints.max_depth
        if self._debug_validate:
            report = check_cut_mask(ctx, effective)
            assert report.valid == valid, (
                f"fast acceptance disagrees with check_cut_mask on "
                f"{effective:#x}: fast={valid} report={report}"
            )
        if not valid:
            return
        self._found[effective] = Cut.from_mask(ctx, effective)
