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

The hot path is organised around precomputation and incrementality.  The
read-only :class:`~repro.core.context.EnumerationContext` supplies the
closure, the postdominator comparability rows and the topological order;
everything the search memoises lives on the :class:`IncrementalEnumerator`
of one run (every attribute a slot), so a run never depends on what ran
before it on the same context, and its memo is freed when it returns.
``CHANGES.md`` records what each mechanism below measured:

* the ``B({w}, o)`` contributions are closure intersections, materialised as
  one row per vertex the first time the run picks inputs for output ``o``;
  ``B(I, o)`` for a newly picked output is one AND of the inputs' descendant
  union, formed once per PICK-OUTPUT call, with ``o`` and its ancestors;
* the dominator queries go through the run's caches — one dominator array
  per distinct *reachable region*.  The search grows an input set one
  vertex at a time, and the frame that holds a set's region and array
  passes them to the frames that grow it: on a cache miss the grown set's
  region and array are derived from them, so no parent is ever looked up
  and the full kernel runs once per run, for the empty set.  The seed
  loop probes both caches itself and calls out only on a miss.  Each
  PICK-INPUTS state reads its completions off its array by a walk up the
  idom chain, which no cache of its own would repay;
* a PICK-INPUTS seed tree adds its output's seeds in reverse topological
  order: a seed child takes only the seeds before its newest one, a prefix
  mask over the topological order built once per run.  So each seed set is
  built once, descendants first, and the tree keeps no visited keys.  In
  this order output-input pruning and the too-many-unavoidable-outputs
  count, the two rules of Section 5.3 whose verdict depends on the order
  seeds are chosen in, prune exactly what they prune in the best order of
  an all-orders search, unless a seed candidate with a forbidden successor
  is in the body when PICK-OUTPUT enters the tree; such a tree adds seeds
  in every order, as the search did before.  The states still deduplicated
  (the roots of seed trees, the states of unordered trees and the CHECK-CUT
  states) are each one exact integer of fixed-width fields (the output ids,
  then the body and the inputs as masks), so the dedup sets hold one object
  per state;
* each test of PICK-OUTPUT and of the PICK-INPUTS seed loop is one mask per
  search state (postdominator comparability is a union of precomputed rows),
  and only the surviving candidates are expanded, in the same order.  The
  too-many-unavoidable-outputs test and the output budget also drop, with
  one mask each, the seeds the frame's own body already condemns, since a
  seed takes at most itself out of the body's stuck vertices
  (:func:`_output_count_doomed`); the seeds left are tested one by one;
* under the last output, the output budget of prune-while-building drops
  subtrees whose body already holds more vertices that must stay outputs
  (:meth:`IncrementalEnumerator._stuck_outputs`) than ``Nout`` plus the
  inputs still to choose; under the output before it, it drops them only
  when no output still pickable could take in enough of those vertices
  (:meth:`IncrementalEnumerator._next_output_absorbs`; the seed loop runs
  that test inline, off a rescuer table it fetches once per frame).  The
  stuck mask is a per-output table of the cone's vertices with a successor
  outside the cone, built on the output's first use, plus the body's
  vertices outside the cone that leave the body; a PICK-OUTPUT call finds
  the latter once for all its candidates, and re-tests only the table's
  vertices that feed the body;
* the input budget of prune-while-building drops the seeds with which the
  inputs left can no longer cut every source-to-output path, as packed
  disjoint paths show (:meth:`IncrementalEnumerator._input_budget_seeds`);
* the input-hole bound of prune-while-building drops a grown state, before
  its region and dominator array or its CHECK-CUT, when a chosen input
  lies on a path between body vertices and keeping the cut convex would
  take more later inputs than are left
  (:meth:`IncrementalEnumerator._input_holes`); the union of the inputs'
  ancestor rows screens it, as a hole needs a body vertex above an input;
* every frame reads what it shares with its parent off its arguments or
  the run: the inputs' unions of comparability and ancestor rows arrive
  from the parent frame (a seed child ORs in the seed's rows), the
  output-input union of an output's forbidden ancestors is formed on the
  output's first use, the context's source, ``Nout``, forbidden mask and
  neighbour rows are read once per run, and the prune counts are bumped in
  place in one counter per run;
* a frame with one input left whose output only the source strictly
  dominates has no completion and no seed to expand, so its caller, which
  has already counted the call and derived the array, does not enter it;
* the per-cut acceptance test derives inputs, outputs and convexity in one
  pass over the candidate's set bits
  (:meth:`~repro.dfg.reachability.ReachabilityIndex.cut_profile`), and the
  PICK-OUTPUT call that expands the state reuses those outputs; the full
  definitional re-derivation (:func:`~repro.core.validity.check_cut_mask`)
  runs only as a debug assertion when ``REPRO_DEBUG_VALIDITY`` is set.

The pruning techniques of Section 5.3 are individually switchable through
:class:`~repro.core.pruning.PruningConfig`.  The configurations do not all
report the same cuts: the ablation benchmark records 349 cuts with every
rule on and 352 with none (or without the input-input rule alone).  The
bounds of prune-while-building are the exception (the output budget under
the last two outputs, the input budget and the input-hole bound): the
subtrees they drop hold no cut either acceptance mode takes, so the cuts
and their order stay the same.  What the test suite checks, for full
pruning, no pruning and each one-rule ablation, is that the result lies
between the brute-force oracle's paper-enumerable cuts and its valid cuts,
and that it is bit-identical to the frozen pre-optimization snapshot of
this enumerator, kept as a test oracle in
``tests/reference/baselines/legacy_incremental.py``, run under the same
configuration.  The ablation benchmark measures how much search each rule
removes.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from typing import Dict, List, Optional, Tuple, TypeVar

from ..dfg.graph import DataFlowGraph
from ..dominators.iterative import derive_immediate_dominators, immediate_dominators_dag
from .constraints import Constraints
from .context import EnumerationContext
from .pruning import FULL_PRUNING, PruningConfig
from .stats import EnumerationResult, EnumerationStats, Stopwatch, check_deadline
from .validity import _cut_depth, _is_connected_mask, check_cut_mask, debug_validation_enabled

ALGORITHM_NAME = "poly-enum-incremental"

T = TypeVar("T")
K = TypeVar("K")

#: Entry cap of each capped per-run cache.  Only large blocks fill one (no
#: isebench block holds 7.4k entries).  Against 32k, 16k ran ``tree_dfg(8)``
#: 10% faster and ``aes_mix_column_x3`` 14% slower, in 24% / 11% less RSS.
REGION_CACHE_LIMIT = 16384


def _remember(cache: "OrderedDict[K, T]", key: K, value: T) -> None:
    """Store *value* under *key*, first evicting the oldest entry of a full
    cache in O(1) (a dict's first key costs a walk over every slot freed
    since its last resize, so popping it slows with every eviction)."""
    if len(cache) >= REGION_CACHE_LIMIT:
        cache.popitem(last=False)
    cache[key] = value


def _union_rows(rows: List[int], mask: int) -> int:
    """Union of ``rows[v]`` over the set bits ``v`` of *mask*."""
    union = 0
    while mask:
        low = mask & -mask
        union |= rows[low.bit_length() - 1]
        mask ^= low
    return union


def _share_a_row(mask: int, rows: Dict[int, int]) -> bool:
    """Whether ``rows[v]`` over the set bits ``v`` of *mask* share a bit."""
    common = -1
    while mask and common:
        low = mask & -mask
        mask ^= low
        common &= rows[low.bit_length() - 1]
    return common != 0


def _output_count_doomed(
    body_kept: int, forbidden_succ: int, max_outputs: int, slack: int, nout_left: int
) -> Tuple[int, int]:
    """The seeds that the too-many-unavoidable-outputs test and the output
    budget drop, as two masks, for a PICK-INPUTS state whose body, less its
    inputs and forbidden vertices, keeps the stuck vertices *body_kept*.

    A seed child's body holds the state's less at most the seed, so it keeps
    ``body_kept`` less the seed: with one vertex more than a test allows,
    the test drops every seed outside them, and with two more, every seed.
    The output budget applies only without a later output (*nout_left* 0)
    and allows ``Nout`` plus the child's *slack* inputs left.
    """
    unavoidable = body_kept & forbidden_succ
    excess = unavoidable.bit_count() - max_outputs
    too_many = -1 if excess > 1 else ~unavoidable if excess == 1 else 0
    over_budget = 0
    if not nout_left:
        excess = body_kept.bit_count() - slack - max_outputs
        over_budget = -1 if excess > 1 else ~body_kept if excess == 1 else 0
    return too_many, over_budget


def enumerate_cuts(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    pruning: PruningConfig = FULL_PRUNING,
    context: Optional[EnumerationContext] = None,
    deadline: Optional[float] = None,
) -> EnumerationResult:
    """Enumerate all convex cuts of *graph* with the incremental algorithm.

    This is the library's primary entry point; see
    :func:`repro.core.enumeration.enumerate_cuts_basic` for the reference
    (non-incremental) variant.  With a *deadline* (a ``time.perf_counter()``
    value) the search raises :class:`~repro.core.stats.BlockTimeout` at the
    first fresh PICK-INPUTS frame or CHECK-CUT past it.
    """
    enumerator = IncrementalEnumerator(graph, constraints, pruning, context, deadline)
    return enumerator.run()


class IncrementalEnumerator:
    """Stateful implementation of ``POLY-ENUM-INCR`` (Figure 3).

    One instance is one run.  It reads the shared, read-only context and
    keeps the search's memo to itself, so its counters never depend on
    earlier runs over the same context.
    """

    __slots__ = (
        "graph", "ctx", "pruning", "stats", "_deadline", "_found", "_debug_validate",
        "_num_nodes", "_id_width", "_key_body_shift", "_key_inputs_shift",
        "_visited_states", "_checked_states",
        "_reachable_cache", "_idom_cache", "_rescuer_cache",
        "_descendant_lists", "_contribution_rows", "_cone_stuck", "_output_input_unions",
        "_output_candidates", "_closed_ancestors", "_seed_masks", "_forbidden_ancestors",
        "_forbidden_succ_mask", "_earlier", "_source", "_max_outputs", "_forbidden",
        "_ancestor_rows", "_descendant_rows", "_predecessor_rows", "_successor_rows",
        "_pruned",
    )

    def __init__(
        self,
        graph: DataFlowGraph,
        constraints: Optional[Constraints] = None,
        pruning: PruningConfig = FULL_PRUNING,
        context: Optional[EnumerationContext] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.ctx = context or EnumerationContext.build(graph, constraints)
        self.pruning = pruning
        self._deadline = deadline  # a time.perf_counter() value, or None
        self.stats = EnumerationStats()
        self._found: Dict[int, None] = {}  # accepted cut masks, discovery order
        # Search-state dedup: the same state is reached through different
        # orderings of the same choices (seed sets in an unordered seed tree,
        # inputs and outputs across PICK-OUTPUT calls); the sets collapse
        # those orderings without changing the reachable states.  An ordered
        # seed tree builds each seed set once, so only the PICK-INPUTS states
        # of tree roots and of unordered trees enter the set.  Each state is
        # one exact integer of fixed-width fields: the outputs lowest, then
        # the body and the inputs as n-bit masks.  Ids that follow a
        # topological order put the inputs' highest bit lowest, so the key
        # is shortest with them on top.  A PICK-INPUTS state (inputs,
        # outputs, body, output) writes its outputs as ids, the output's and
        # then the earlier outputs' (see _output_ids): Nout fields of
        # _id_width bits.  A CHECK-CUT state (inputs, outputs, body) writes
        # them as a mask, so the order they were picked in is not part of
        # its key.  The two layouts live in separate sets.
        num_nodes = self._num_nodes = self.ctx.num_nodes
        self._id_width = num_nodes.bit_length()
        self._key_body_shift = self.ctx.max_outputs * self._id_width
        self._key_inputs_shift = self._key_body_shift + num_nodes
        self._visited_states: set = set()  # PICK-INPUTS states
        self._checked_states: set = set()  # CHECK-CUT states
        # The run's memo, filled on demand: the reachable region per input
        # mask, one dominator array per region and the rescuer rows of the
        # output before the last, keyed by search state and capped; each
        # vertex's descendants in topological order; and per output, on its
        # first use, the B({w}, o) rows, the stuck mask with no body outside
        # its cone and the output-input union of its forbidden ancestors.
        self._reachable_cache: "OrderedDict[int, int]" = OrderedDict()
        self._idom_cache: "OrderedDict[int, List[Optional[int]]]" = OrderedDict()
        self._rescuer_cache: "OrderedDict[Tuple[int, int, int], Tuple[int, Dict[int, int]]]" = (
            OrderedDict()
        )
        self._descendant_lists: Dict[int, List[int]] = {}
        self._contribution_rows: Dict[int, List[int]] = {}
        self._cone_stuck: Dict[int, int] = {}
        self._output_input_unions: Dict[int, int] = {}
        self._debug_validate = debug_validation_enabled()
        # Candidate outputs in topological order: picking outputs
        # ancestors-first guarantees every output set can be selected without
        # tripping the output-output pruning.
        self._output_candidates: List[int] = sorted(
            self.ctx.candidate_nodes, key=self.ctx.topo_position.__getitem__
        )
        reach = self.ctx.reach
        not_source = ~(1 << self.ctx.source)
        # Forbidden vertices with a predecessor other than the source: the
        # only ones a candidate input can reach (the output-input test).
        reachable_forbidden = self.ctx.forbidden_mask & reach.union_successors(
            ((1 << self.ctx.num_nodes) - 1) & not_source
        )
        # Per output o: o and its ancestors (its cone), the window that cuts
        # a union of descendant rows down to B(I, o); the ancestors other
        # than the source, the seed-set candidates of o; and the reachable
        # forbidden ones among them.
        self._closed_ancestors: Dict[int, int] = {}
        self._seed_masks: Dict[int, int] = {}
        self._forbidden_ancestors: Dict[int, int] = {}
        for output in self._output_candidates:
            ancestors = reach.ancestors_mask(output)
            self._closed_ancestors[output] = ancestors | (1 << output)
            self._seed_masks[output] = ancestors & not_source
            self._forbidden_ancestors[output] = ancestors & reachable_forbidden
        # Vertices with a forbidden successor: outputs of every cut holding
        # them, since that successor never joins a cut.
        self._forbidden_succ_mask = self.ctx.candidate_mask & reach.union_predecessors(
            self.ctx.forbidden_mask
        )
        # Per vertex, the vertices before it in topological order: the seeds
        # an ordered seed tree may still add after it (see _pick_inputs).
        earlier = self._earlier = [0] * num_nodes
        prefix = 0
        for vertex in self.ctx.topo_order:
            earlier[vertex] = prefix
            prefix |= 1 << vertex
        # What every frame reads, fetched once per run: the context's
        # properties, the closure rows of the input-hole bound, the packed
        # neighbour rows, and the per-rule prune counts, bumped in place and
        # handed to the stats when the run returns.
        self._source = self.ctx.source
        self._max_outputs = self.ctx.max_outputs
        self._forbidden = self.ctx.forbidden_mask
        self._ancestor_rows = [reach.ancestors_mask(v) for v in range(num_nodes)]
        self._descendant_rows = [reach.descendants_mask(v) for v in range(num_nodes)]
        self._predecessor_rows = reach.predecessor_rows()
        self._successor_rows = reach.successor_rows()
        self._pruned: "Counter[str]" = Counter()

    # ------------------------------------------------------------------ #
    def run(self) -> EnumerationResult:
        """Execute the search and return the enumeration result."""
        with Stopwatch(self.stats):
            self._pick_output(
                inputs_mask=0,
                outputs_mask=0,
                body_mask=0,
                cut_outputs=0,
                nin_left=self.ctx.max_inputs,
                nout_left=self.ctx.max_outputs,
                region=self.reachable_avoiding(0),
                idom=None,
                parent=None,
            )
        self.stats.pruned.update(self._pruned)
        self.stats.cuts_found = len(self._found)
        return EnumerationResult(
            masks=list(self._found),
            stats=self.stats,
            graph_name=self.graph.name,
            algorithm=ALGORITHM_NAME,
            context=self.ctx,
        )

    # ------------------------------------------------------------------ #
    # PICK-OUTPUT
    # ------------------------------------------------------------------ #
    def _pick_output(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
        cut_outputs: int,
        nin_left: int,
        nout_left: int,
        region: int,
        idom: Optional[List[Optional[int]]],
        parent: Optional[Tuple[int, List[Optional[int]]]],
    ) -> None:
        """Expand a checked state whose outputs may still grow.

        *cut_outputs* is O(S) of the state's cut, as CHECK-CUT profiled it
        (:meth:`_check_cut`).  *region* is the vertices the input set leaves
        reachable and *idom* its dominator array, or ``None`` until a
        PICK-INPUTS frame first needs it; it is then solved once, from
        *parent* ``(v, array of inputs ∖ {v})`` (``None`` for the empty
        input set), and handed to every later frame of this call.
        """
        self.stats.pick_output_calls += 1
        ctx = self.ctx
        reach = ctx.reach
        pruning = self.pruning
        closed_ancestors = self._closed_ancestors
        # Invariants of the candidate loop: B(I, o) is the union of the
        # inputs' descendant rows cut down to o and its ancestors, and o is
        # dominated by I (Condition 1 of Definition 5) iff o lies outside
        # the region I leaves reachable.
        input_descendants = reach.union_descendants(inputs_mask) if inputs_mask else 0

        require_connected = ctx.constraints.connected_only or (
            pruning.connected_recovery
            and cut_outputs.bit_count() > outputs_mask.bit_count()
        )

        # Each admissibility test is one mask over all candidates; a counted
        # rule counts the candidates it removes that no earlier test removed.
        pruned = self._pruned
        candidates = ctx.candidate_mask & ~outputs_mask
        if outputs_mask:
            # Section 5.1: chosen outputs may not postdominate one another.
            candidates &= ~_union_rows(ctx.postdom_comparable, outputs_mask)
            if pruning.output_output:
                # Output-output pruning: ancestors of a chosen output.
                doomed = candidates & reach.union_ancestors(outputs_mask)
                if doomed:
                    pruned["output_output"] += doomed.bit_count()
                    candidates ^= doomed
            if require_connected:
                doomed = candidates & ~input_descendants
                if doomed:
                    pruned["connectedness"] += doomed.bit_count()
                    candidates ^= doomed
        if not nin_left:
            # With no input left, only outputs I already dominates lead on.
            candidates &= ~region if inputs_mask else 0
        if not candidates:
            return

        prune_while_building = pruning.prune_while_building
        # Under the last output and the one before it, the frames read the
        # output's stuck mask instead of the forbidden-successor mask.
        stuck_bound = nout_left <= 2 and prune_while_building
        # The PICK-INPUTS frames of this call start from the inputs' union
        # of comparability rows (input-input pruning) and of ancestor rows
        # (the input-hole screen); a seed child ORs in its seed's rows.
        input_input_blocked = (
            _union_rows(ctx.postdom_comparable, inputs_mask) if pruning.input_input else 0
        )
        inputs_above = reach.union_ancestors(inputs_mask) if prune_while_building else 0
        stuck = forbidden_succ = self._forbidden_succ_mask
        seed_masks = self._seed_masks
        cone_stuck = self._cone_stuck
        # The body's side of every candidate's stuck mask (see _stuck_outputs).
        boundary = self._body_boundary(body_mask) if stuck_bound and body_mask else None
        excluded = inputs_mask | self._forbidden  # never in the cut
        max_outputs = self._max_outputs
        source = self._source
        visited = self._visited_states
        # The PICK-INPUTS keys of this call share the inputs and the earlier
        # outputs; only the body and the new output vary.
        body_shift = self._key_body_shift
        inputs_key = inputs_mask << self._key_inputs_shift
        earlier_outputs = self._output_ids(outputs_mask) << self._id_width
        pick_input_calls = 0
        for output in self._output_candidates:
            if not (candidates >> output) & 1:
                continue
            cone = closed_ancestors[output]
            new_outputs_mask = outputs_mask | (1 << output)
            new_body_mask = body_mask | (input_descendants & cone)
            dominated = inputs_mask and not (region >> output) & 1
            if stuck_bound:
                outside_cone = body_mask & ~cone
                if outside_cone or output not in cone_stuck:
                    stuck = self._stuck_outputs(output, outside_cone, boundary)
                else:
                    stuck = cone_stuck[output]
                if nout_left == 1:
                    # The last output: bound the outputs every completion keeps.
                    excess = (new_body_mask & ~excluded & stuck).bit_count() - max_outputs
                    if excess > (0 if dominated else nin_left):
                        pruned["output_budget"] += 1
                        continue
            if dominated:
                new_cut_outputs = self._check_cut(inputs_mask, new_outputs_mask, new_body_mask)
                if new_cut_outputs is not None and nout_left > 1:
                    self._pick_output(
                        inputs_mask, new_outputs_mask, new_body_mask, new_cut_outputs,
                        nin_left, nout_left - 1, region, idom, parent,
                    )
                continue
            pick_input_calls += 1
            output_key = earlier_outputs | (output + 1)
            key = output_key | (new_body_mask << body_shift) | inputs_key
            if key not in visited:
                visited.add(key)
                if idom is None:
                    idom = self._dominator_array(inputs_mask, region, parent)
                if nin_left == 1 and idom[output] == source:
                    continue  # no completion, and no input left for a seed
                # The seed tree is ordered unless a seed candidate already in
                # the body has a forbidden successor, which the too-many count
                # of prune-while-building may need chosen first (see the
                # seed loop of _pick_inputs).
                unordered = (
                    prune_while_building
                    and new_body_mask & ~excluded & forbidden_succ & seed_masks[output]
                )
                self._pick_inputs(
                    inputs_mask, new_outputs_mask, new_body_mask, output, output_key,
                    nin_left, nout_left - 1, stuck, region, idom,
                    input_input_blocked, inputs_above, None if unordered else -1,
                )
        self.stats.pick_input_calls += pick_input_calls

    # ------------------------------------------------------------------ #
    # PICK-INPUTS
    # ------------------------------------------------------------------ #
    def _pick_inputs(
        self,
        inputs_mask: int,
        outputs_mask: int,
        body_mask: int,
        output: int,
        output_key: int,
        nin_left: int,
        nout_left: int,
        stuck: int,
        region: int,
        idom: List[Optional[int]],
        input_input_blocked: int,
        inputs_above: int,
        seed_window: Optional[int],
    ) -> None:
        """Expand an unvisited state in which *output* picks inputs.

        The caller counts the call.  PICK-OUTPUT enters the root of a seed
        tree once its key is in the visited set.  In an *ordered* tree the
        state may add only the seeds in *seed_window*: every seed (-1) at
        the root, and below it the vertices topologically before the newest
        seed.  So each seed set is built once, descendants first, and no
        seed child forms a key.  In an unordered tree (*seed_window*
        ``None``) seeds are added in every order, and a seed child is
        entered only once its key is in the visited set; *output_key* is
        the key's output fields, which every seed child shares.

        *region* and *idom* are the input set's region and dominator array,
        held by this frame: a grown input set's region and array are derived
        from them on a cache miss.  *stuck* is the vertices with a forbidden
        successor, or, under the last output and the one before it, the
        output's :meth:`_stuck_outputs`.  *input_input_blocked* is the union
        of the inputs' comparability rows (0 without input-input pruning)
        and *inputs_above* the union of their ancestor rows, which only
        prune-while-building reads.
        """
        if self._deadline is not None:
            check_deadline(self._deadline)
        pruning = self.pruning
        prune_while_building = pruning.prune_while_building
        pruned = self._pruned
        source = self._source
        forbidden = self._forbidden
        forbidden_succ = self._forbidden_succ_mask
        max_outputs = self._max_outputs
        ancestor_rows = self._ancestor_rows
        slack = nin_left - 1  # the inputs left under a completion or a seed
        between_row = self._contributions(output)
        # The completions are the output's strict dominators but the source,
        # nearest first, read off the array by a walk up the idom chain.
        # Both candidate loops below test the same two prunings, each one
        # mask for this state.
        #
        # Output-input pruning (Section 5.3): a forbidden vertex lying on a
        # path from the candidate input to the output ends up inside the
        # constructed body unless it is itself chosen as an input, so the
        # blocked candidates are the ancestors of the output's forbidden
        # ancestors that are not inputs yet.  The paper additionally
        # proposes a static bound counting the forbidden predecessors of the
        # vertices between candidate and output ("if these nodes are Nin or
        # more, v will not be a valid input for w"); during this
        # reproduction that bound turned out to exclude a small number of
        # valid cuts — the ones in which the vertex with the forbidden
        # predecessor is itself promoted to a cut input — and it is
        # therefore not applied.
        #
        # Input-input pruning: chosen seed-set members may not postdominate
        # one another (*input_input_blocked*).
        output_input_blocked = 0
        if pruning.output_input:
            forbidden_above = self._forbidden_ancestors[output]
            if forbidden_above & inputs_mask:
                output_input_blocked = _union_rows(ancestor_rows, forbidden_above & ~inputs_mask)
            else:
                union = self._output_input_unions.get(output)
                if union is None:
                    union = _union_rows(ancestor_rows, forbidden_above)
                    self._output_input_unions[output] = union
                output_input_blocked = union
        # Prune-while-building (Section 5.3): the body minus the inputs and
        # the forbidden vertices it contains is a lower bound on the final
        # cut.  More than Nout of its vertices with a forbidden successor
        # dooms the branch; so does more than Nout stuck vertices beyond the
        # inputs still to choose (the output budget: none after a
        # completion, nin_left - 1 after a seed), unless one output is
        # still to pick and could take in enough of them
        # (:meth:`_next_output_absorbs`).  *stuck* holds every vertex with a
        # forbidden successor, so neither test fires unless more than Nout
        # body vertices are stuck.  Last, the input-hole bound
        # (:meth:`_input_holes`) drops the grown state when its holes need
        # more later inputs than are left; a hole needs a body vertex above
        # an input, so the inputs' ancestor union screens it.
        dominator = idom[output]
        while dominator is not None and dominator != source:
            completion, dominator = dominator, idom[dominator]
            if (inputs_mask >> completion) & 1:
                continue
            if (output_input_blocked >> completion) & 1:
                pruned["output_input_forbidden_path"] += 1
                continue
            if (input_input_blocked >> completion) & 1:
                pruned["input_input_postdom"] += 1
                continue
            new_inputs_mask = inputs_mask | (1 << completion)
            new_body_mask = body_mask | between_row[completion]
            if prune_while_building:
                effective = new_body_mask & ~(new_inputs_mask | forbidden)
                kept = effective & stuck
                if kept.bit_count() > max_outputs:
                    if (effective & forbidden_succ).bit_count() > max_outputs:
                        pruned["too_many_unavoidable_outputs"] += 1
                        continue
                    if not nout_left:
                        pruned["output_budget"] += 1
                        continue
                    if not self._next_output_absorbs(
                        output, outputs_mask, body_mask, kept, slack
                    ):
                        pruned["next_output_budget"] += 1
                        continue
                if effective & (
                    inputs_above | ancestor_rows[completion]
                ) and not self._input_holes(new_inputs_mask, effective, slack):
                    pruned["input_hole"] += 1
                    continue
            cut_outputs = self._check_cut(new_inputs_mask, outputs_mask, new_body_mask)
            if cut_outputs is not None and nout_left:
                self._pick_output(
                    new_inputs_mask, outputs_mask, new_body_mask, cut_outputs,
                    slack, nout_left,
                    self.reachable_avoiding(new_inputs_mask, (completion, region)),
                    None, (completion, idom),
                )

        if nin_left > 1:
            # Extend the seed set with another ancestor of the output, in
            # ascending id order.  An ordered tree takes only seeds before
            # its newest one in topological order, which prunes exactly what
            # the best order of an all-orders search prunes: a forbidden
            # vertex between a seed and the output, which output-input
            # pruning wants chosen first, is a descendant of the seed; and a
            # seed's B({s}, o) holds only its descendants, so no vertex a
            # seed brought into the body is chosen later and taken back out
            # of the too-many-unavoidable-outputs count.  A vertex that was
            # in the body before the first seed could be; a tree whose root
            # holds such a seed candidate with a forbidden successor is not
            # ordered (see _pick_output).
            seed_candidates = self._seed_masks[output]
            seeds = seed_candidates & ~inputs_mask
            if seed_window is not None:
                seeds &= seed_window
            doomed = seeds & output_input_blocked
            if doomed:
                pruned["output_input_forbidden_path"] += doomed.bit_count()
                seeds ^= doomed
            doomed = seeds & input_input_blocked
            if doomed:
                pruned["input_input_postdom"] += doomed.bit_count()
                seeds ^= doomed
            if prune_while_building and seeds:
                # The input budget, unless a completion already cuts every path.
                dominator = idom[output]
                while (
                    dominator is not None
                    and dominator != source
                    and (input_input_blocked >> dominator) & 1
                ):
                    dominator = idom[dominator]
                if dominator == source:
                    doomed = seeds & ~self._input_budget_seeds(
                        region, output, nin_left, input_input_blocked
                    )
                    if doomed:
                        pruned["input_budget"] += doomed.bit_count()
                        seeds ^= doomed
                # The output counts, once for every seed: a seed takes at
                # most itself out of the body's stuck vertices.
                body_kept = body_mask & ~(inputs_mask | forbidden) & stuck
                if body_kept.bit_count() > max_outputs:
                    too_many, over_budget = _output_count_doomed(
                        body_kept, forbidden_succ, max_outputs, slack, nout_left
                    )
                    doomed = seeds & too_many
                    if doomed:
                        pruned["too_many_unavoidable_outputs"] += doomed.bit_count()
                        seeds ^= doomed
                    doomed = seeds & over_budget
                    if doomed:
                        pruned["output_budget"] += doomed.bit_count()
                        seeds ^= doomed
            # The last-input refinement of the input-hole bound: a seed
            # child with one input left expands no seed of its own, so its
            # one later input is a completion of this output.  With a hole,
            # that completion must close every hole alone, lie in the grown
            # region, be a seed candidate of the output and not be blocked
            # by input-input pruning; a child without one is dropped before
            # its dominator array is derived.  A child whose output only the
            # source strictly dominates has no completion at all, so it is
            # not entered once its array is derived.
            last_input = slack == 1
            hole_closing = prune_while_building and last_input
            comparable = self.ctx.postdom_comparable if pruning.input_input else None
            visited = self._visited_states
            earlier = self._earlier
            reachable_cache = self._reachable_cache
            idom_cache = self._idom_cache
            body_shift = self._key_body_shift
            inputs_shift = self._key_inputs_shift
            next_output_need = pruning.output_output - max_outputs - slack
            rescuers: Optional[Tuple[int, Dict[int, int]]] = None  # on first need
            pick_input_calls = 0
            while seeds:
                low = seeds & -seeds
                seeds ^= low
                seed = low.bit_length() - 1
                new_inputs_mask = inputs_mask | low
                new_body_mask = body_mask | between_row[seed]
                if seed_window is None:
                    # Every test below is a function of the child's key (the
                    # stuck mask depends only on the output and the body
                    # outside its cone), so an expanded key is skipped
                    # before them.
                    key = (
                        output_key
                        | (new_body_mask << body_shift)
                        | (new_inputs_mask << inputs_shift)
                    )
                    if key in visited:
                        pick_input_calls += 1
                        continue
                new_above = inputs_above | ancestor_rows[seed]
                closers = -1
                if prune_while_building:
                    effective = new_body_mask & ~(new_inputs_mask | forbidden)
                    kept = effective & stuck
                    unavoidable = kept.bit_count()
                    if unavoidable > max_outputs:
                        if (effective & forbidden_succ).bit_count() > max_outputs:
                            pruned["too_many_unavoidable_outputs"] += 1
                            continue
                        if unavoidable - slack > max_outputs:
                            if not nout_left:
                                pruned["output_budget"] += 1
                                continue
                            # _next_output_absorbs, off the frame's table.
                            if rescuers is None:
                                rescuers = self._rescuer_table(output, outputs_mask, body_mask)
                            rescuable, rescuer_rows = rescuers
                            kept &= rescuable
                            rescued = kept.bit_count()
                            need = next_output_need + unavoidable
                            if rescued < need or (
                                rescued == need and not _share_a_row(kept, rescuer_rows)
                            ):
                                pruned["next_output_budget"] += 1
                                continue
                    if effective & new_above:
                        closers = self._input_holes(new_inputs_mask, effective, slack)
                        if not closers:
                            pruned["input_hole"] += 1
                            continue
                pick_input_calls += 1
                if seed_window is None:
                    visited.add(key)
                new_region = reachable_cache.get(new_inputs_mask)
                if new_region is None:
                    new_region = self.reachable_avoiding(new_inputs_mask, (seed, region))
                if (new_region >> output) & 1:
                    new_blocked = (
                        input_input_blocked | comparable[seed] if comparable is not None else 0
                    )
                    if (
                        hole_closing
                        and closers != -1
                        and not closers & new_region & seed_candidates & ~new_blocked
                    ):
                        pruned["input_hole"] += 1
                        continue
                    new_idom = idom_cache.get(new_region)
                    if new_idom is None:
                        new_idom = self._dominator_array(new_inputs_mask, new_region, (seed, idom))
                    if last_input and new_idom[output] == source:
                        continue
                    self._pick_inputs(
                        new_inputs_mask, outputs_mask, new_body_mask, output, output_key,
                        slack, nout_left, stuck, new_region, new_idom, new_blocked, new_above,
                        None if seed_window is None else earlier[seed],
                    )
                else:
                    # The seed set alone already cuts every path to the output.
                    cut_outputs = self._check_cut(new_inputs_mask, outputs_mask, new_body_mask)
                    if cut_outputs is not None and nout_left:
                        self._pick_output(
                            new_inputs_mask, outputs_mask, new_body_mask, cut_outputs,
                            slack, nout_left, new_region, None, (seed, idom),
                        )
            self.stats.pick_input_calls += pick_input_calls

    def _input_holes(self, inputs_mask: int, effective: int, slack: int) -> int:
        """The input-hole bound of a state with inputs *inputs_mask*, body
        *effective* less the inputs and the forbidden vertices, and *slack*
        inputs left to choose.

        An input with an ancestor and a descendant in *effective* is a
        *hole*: it lies on a path between them and joins no cut, so a convex
        cut below the state holds none of the vertices of one side, and as
        the body only grows, later inputs take that whole side.  Returns 0
        when no convex cut lies below the state: a hole's smaller side
        outnumbers *slack*, or with one input left, no vertex closes every
        hole alone (is the one vertex of a side of each).  Otherwise, with
        one input left, returns the vertices that close every hole alone,
        and else -1 (as it does without a hole).
        """
        ancestor_rows = self._ancestor_rows
        descendant_rows = self._descendant_rows
        closers = -1
        while inputs_mask:
            low = inputs_mask & -inputs_mask
            inputs_mask ^= low
            vertex = low.bit_length() - 1
            above = effective & ancestor_rows[vertex]
            if not above:
                continue
            below = effective & descendant_rows[vertex]
            if not below:
                continue
            if slack > 1:
                if above.bit_count() > slack and below.bit_count() > slack:
                    return 0
            elif slack:
                # A side of one vertex is closed by that vertex alone.
                closers &= (0 if above & (above - 1) else above) | (
                    0 if below & (below - 1) else below
                )
                if not closers:
                    return 0
            else:
                return 0
        return closers

    # ------------------------------------------------------------------ #
    # The run's memo: contribution rows, stuck masks, dominator queries
    # ------------------------------------------------------------------ #
    def _contributions(self, output: int) -> List[int]:
        """Per-vertex ``B({w}, output)`` rows.

        Row ``w`` holds the vertices on some path from ``w`` to *output*, a
        closure intersection; the rows of every vertex are built on the
        first query.
        """
        rows = self._contribution_rows.get(output)
        if rows is None:
            descendants_mask = self.ctx.reach.descendants_mask
            window = self._closed_ancestors[output]
            rows = [descendants_mask(v) & window for v in range(self.ctx.num_nodes)]
            self._contribution_rows[output] = rows
        return rows

    def _stuck_outputs(
        self, output: int, outside_cone: int, boundary: Optional[Tuple[int, int]] = None
    ) -> int:
        """Body vertices that stay outputs of every cut recorded under
        *output* before another output is picked.

        Every later contribution ``B({w}, output)`` lies in the output's cone
        (*output* and its ancestors), so the body stays inside the cone plus
        *outside_cone*.  A vertex with a forbidden successor or a successor
        outside that room stays an output unless it is chosen as an input.
        The answer with nothing outside the cone is built on the output's
        first query.  A vertex outside the cone has no successor in it, so
        one of *outside_cone* leaves the room iff it leaves the body
        (:meth:`_body_boundary`, of *outside_cone* or, as *boundary*, of any
        body whose part outside the cone it is); of the cone's stuck
        vertices, only those feeding the body are tested again.
        """
        stuck = self._cone_stuck.get(output)
        cone = self._closed_ancestors[output]
        successor_rows = self._successor_rows
        if stuck is None:
            stuck = self._forbidden_succ_mask
            rest = cone & ~(stuck | self._forbidden)
            while rest:
                low = rest & -rest
                rest ^= low
                if successor_rows[low.bit_length() - 1] & ~cone:
                    stuck |= low
            self._cone_stuck[output] = stuck
        if outside_cone:
            leaving, feeding = boundary or self._body_boundary(outside_cone)
            room = cone | outside_cone
            feeding &= stuck & ~self._forbidden_succ_mask
            stuck |= leaving & outside_cone
            while feeding:
                low = feeding & -feeding
                feeding ^= low
                if not successor_rows[low.bit_length() - 1] & ~room:
                    stuck ^= low
        return stuck

    def _body_boundary(self, body_mask: int) -> Tuple[int, int]:
        """The vertices of *body_mask* with a successor outside it (less those
        with a forbidden successor and the forbidden ones), and the union of
        its vertices' predecessor rows."""
        successor_rows = self._successor_rows
        predecessor_rows = self._predecessor_rows
        skipped = self._forbidden_succ_mask | self._forbidden
        leaving = feeding = 0
        rest = body_mask
        while rest:
            low = rest & -rest
            rest ^= low
            vertex = low.bit_length() - 1
            feeding |= predecessor_rows[vertex]
            if successor_rows[vertex] & ~body_mask and not low & skipped:
                leaving |= low
        return leaving, feeding

    def _rescuer_table(
        self, output: int, outputs_mask: int, body_mask: int
    ) -> Tuple[int, Dict[int, int]]:
        """:meth:`_rescuers` of a state under *output*, cached per
        ``(output, outputs_mask, body outside the cone)``, which a PICK-INPUTS
        frame and every seed child under it share."""
        key = (output, outputs_mask, body_mask & ~self._closed_ancestors[output])
        table = self._rescuer_cache.get(key)
        if table is None:
            table = self._rescuers(*key)
            _remember(self._rescuer_cache, key, table)
        return table

    def _next_output_absorbs(
        self, output: int, outputs_mask: int, body_mask: int, kept: int, slack: int
    ) -> bool:
        """Whether the one output still to pick after *output* may leave a
        cut with at most ``Nout`` outputs, given the body's stuck vertices
        *kept* (:meth:`_stuck_outputs`) and *slack* later inputs.

        A cut recorded after that output ``o′`` is picked lies in the room
        of :meth:`_stuck_outputs` plus ``o′`` and its ancestors.  A stuck
        vertex ``v`` without a forbidden successor stays an output of it
        unless a later input takes it or ``o′`` is in ``R(v)``, the outputs
        still pickable that descend from (or are) every successor of ``v``
        outside the room (:meth:`_rescuers`).  With output-output pruning
        on, ``o′`` is in no chosen output's cone, so it is an output too.
        Each later input takes at most one stuck vertex, so the cut keeps
        more than ``Nout`` outputs unless some ``o′`` is in ``R(v)`` for at
        least ``need`` = [output-output] + |*kept*| − *slack* − ``Nout`` of
        them.  Tested loosely, which keeps every such state: at least
        ``need`` stuck vertices have a rescuer, and when exactly ``need``
        do, their rows share one.  The PICK-INPUTS seed loop runs the same
        test off the table it fetches once per frame.
        """
        need = self.pruning.output_output + kept.bit_count() - slack - self._max_outputs
        rescuable, rows = self._rescuer_table(output, outputs_mask, body_mask)
        kept &= rescuable
        count = kept.bit_count()
        return count > need or (count == need and _share_a_row(kept, rows))

    def _rescuers(
        self, output: int, outputs_mask: int, outside_cone: int
    ) -> Tuple[int, Dict[int, int]]:
        """The stuck vertices of the room of ``(output, outside_cone)`` that
        one more output may rescue, and each one's row ``R(v)`` of such
        outputs (see :meth:`_next_output_absorbs`).

        The pickable outputs are the candidates not postdominance-comparable
        with *outputs_mask*, less its ancestors under output-output pruning;
        without it they include the room's candidates.  The vertices with a
        successor outside the room are the stuck ones without a forbidden
        successor.
        """
        ctx = self.ctx
        room = outside_cone | self._closed_ancestors[output]
        later = ctx.candidate_mask & ~(
            outputs_mask | _union_rows(ctx.postdom_comparable, outputs_mask)
        )
        if self.pruning.output_output:
            later &= ~_union_rows(self._ancestor_rows, outputs_mask)
        successor_rows = self._successor_rows
        descendant_rows = self._descendant_rows
        rows: Dict[int, int] = {}
        rescuable = 0
        rest = self._stuck_outputs(output, outside_cone) & ~self._forbidden_succ_mask
        while rest:
            low = rest & -rest
            rest ^= low
            vertex = low.bit_length() - 1
            leaving = successor_rows[vertex] & ~room
            row = later
            while leaving and row:
                succ = leaving & -leaving
                leaving ^= succ
                row &= descendant_rows[succ.bit_length() - 1] | succ
            if row:
                rows[vertex] = row
                rescuable |= low
        return rescuable, rows

    def _input_budget_seeds(
        self, region: int, output: int, nin_left: int, shared: int
    ) -> int:
        """The vertices a later input may take under a state with inputs
        ``I`` (which leave *region* reachable) and output *output*.

        A cut below the state needs at most *nin_left* later inputs ``S``,
        not the source, *output* or *shared*, with ``I ∪ S`` dominating
        *output*: ``S`` takes a distinct vertex of each source-to-output path
        of ``G − I`` in a set sharing only such vertices (Menger).
        Packed greedily (depth-first), ``nin_left + 1`` paths leave no ``S``
        (0), exactly *nin_left* hold all of ``S`` (their vertices) and fewer
        bound nothing (-1, every vertex).
        """
        source = self.ctx.source
        pred_rows = self.ctx.reach.predecessor_rows()
        region &= self._closed_ancestors[output]
        ends = pred_rows[output] & region
        if ends.bit_count() < nin_left and not ends & (shared | 1 << source):
            return -1  # each path ends in its own predecessor of the output
        used = 0
        for paths in range(nin_left + 1):
            allowed = region & ~used
            path = [1 << output]
            while path:
                branch = pred_rows[path[-1].bit_length() - 1] & allowed
                if (branch >> source) & 1:
                    break
                if branch:
                    low = branch & -branch
                    allowed ^= low
                    path.append(low)
                else:
                    path.pop()
            else:
                return used if paths == nin_left else -1
            used |= sum(path) & ~shared
        return 0

    def reachable_avoiding(
        self, avoid_mask: int, parent: Optional[Tuple[int, int]] = None
    ) -> int:
        """Vertices reachable from the source once *avoid_mask* is removed.

        Memoised per run: two input sets that leave the same reachable
        region induce the same reduced graph, so this mask doubles as the
        key of the dominator cache.  On a miss with *parent* ``(v, region
        of avoid_mask ∖ {v})``, which the search frame that grows the input
        set holds, the region is derived from it: only descendants of ``v``
        can drop out, and each is re-tested against its packed predecessor
        row in topological order.  Without a parent it is computed as a
        frontier sweep over the packed successor rows — one row union per
        level instead of one Python iteration per edge.
        """
        cached = self._reachable_cache.get(avoid_mask)
        if cached is None:
            ctx = self.ctx
            if parent is not None:
                vertex, cached = parent
                if (cached >> vertex) & 1:
                    cached ^= 1 << vertex
                    pred_rows = ctx.reach.predecessor_rows()
                    for v in self._descendants_in_order(vertex):
                        if (cached >> v) & 1 and not pred_rows[v] & cached:
                            cached ^= 1 << v
            elif (avoid_mask >> ctx.source) & 1:
                cached = 0
            else:
                source = ctx.source
                rows = ctx.reach.successor_rows()
                seen = 1 << source
                frontier = rows[source] & ~avoid_mask
                while frontier:
                    seen |= frontier
                    grown = 0
                    while frontier:
                        low = frontier & -frontier
                        grown |= rows[low.bit_length() - 1]
                        frontier ^= low
                    frontier = grown & ~avoid_mask & ~seen
                cached = seen
            _remember(self._reachable_cache, avoid_mask, cached)
        return cached

    def _dominator_array(
        self,
        inputs_mask: int,
        region: int,
        parent: Optional[Tuple[int, List[Optional[int]]]],
    ) -> List[Optional[int]]:
        """The immediate dominators of the graph *inputs_mask* leaves, whose
        reachable region is *region*.

        Cached per region.  On a miss the array is derived from *parent*
        ``(v, array of inputs_mask ∖ {v})`` by
        :func:`~repro.dominators.iterative.derive_immediate_dominators`;
        the single-pass DAG kernel runs only without a parent, for the empty
        input set.  Each fresh array, derived or full, adds one to the run's
        ``lt_calls`` and its production time to ``lt_seconds``.
        """
        idom = self._idom_cache.get(region)
        if idom is None:
            ctx = self.ctx
            kernel_start = time.perf_counter()
            if parent is None:
                # DFGs are acyclic, so the single-pass DAG kernel replaces
                # the paper's general Lengauer–Tarjan run.
                idom = immediate_dominators_dag(
                    ctx.topo_order,
                    ctx.predecessor_lists,
                    ctx.source,
                    removed_mask=inputs_mask,
                )
            else:
                vertex, parent_idom = parent
                idom = derive_immediate_dominators(
                    parent_idom,
                    vertex,
                    self._descendants_in_order(vertex),
                    ctx.predecessor_lists,
                    ctx.topo_position,
                )
            self.stats.lt_seconds += time.perf_counter() - kernel_start
            self.stats.lt_calls += 1
            _remember(self._idom_cache, region, idom)
        return idom

    def _output_ids(self, outputs_mask: int) -> int:
        """The ids of *outputs_mask*, ascending, one ``_id_width``-bit field
        each, stored plus one so that no field is zero."""
        ids = shift = 0
        while outputs_mask:
            low = outputs_mask & -outputs_mask
            ids |= low.bit_length() << shift
            shift += self._id_width
            outputs_mask ^= low
        return ids

    def _descendants_in_order(self, vertex: int) -> List[int]:
        """Descendants of *vertex* in topological order (built on first use)."""
        listed = self._descendant_lists.get(vertex)
        if listed is None:
            ctx = self.ctx
            descendants = ctx.reach.descendants_mask(vertex)
            listed = [
                v
                for v in ctx.topo_order[ctx.topo_position[vertex] + 1 :]
                if (descendants >> v) & 1
            ]
            self._descendant_lists[vertex] = listed
        return listed

    # ------------------------------------------------------------------ #
    # CHECK-CUT
    # ------------------------------------------------------------------ #
    def _check_cut(self, inputs_mask: int, outputs_mask: int, body_mask: int) -> Optional[int]:
        """Record the state's cut if it is one and return the cut's outputs
        O(S) (0 for an empty cut); ``None`` if the state was checked before,
        so the caller does not expand it again."""
        num_nodes = self._num_nodes
        key = outputs_mask | (body_mask << num_nodes) | (inputs_mask << 2 * num_nodes)
        if key in self._checked_states:
            self.stats.duplicates += 1
            return None
        self._checked_states.add(key)
        self.stats.candidates_checked += 1
        if self._deadline is not None:
            check_deadline(self._deadline)
        return self._maybe_record(inputs_mask, outputs_mask, body_mask)

    def _maybe_record(self, inputs_mask: int, outputs_mask: int, body_mask: int) -> int:
        """Record the state's cut if it is one; return its outputs O(S)."""
        ctx = self.ctx
        # The recorded cut is the constructed body minus the chosen inputs and
        # minus any forbidden vertex the construction dragged in: a forbidden
        # vertex between an input and an output cannot be part of the cut, so
        # it is one of the cut's (implicitly chosen) inputs instead.
        effective = body_mask & ~inputs_mask & ~ctx.forbidden_mask
        if effective == 0:
            return 0
        # One pass over the candidate's set bits yields I(S), O(S) and the
        # convexity verdict; the definitional re-derivation runs only under
        # REPRO_DEBUG_VALIDITY (see below).
        cut_inputs, actual_outputs, convex = ctx.reach.cut_profile(effective)
        if self.pruning.output_output:
            # Relaxed acceptance: internal outputs are allowed as long as the
            # total stays within the budget.
            if actual_outputs.bit_count() > ctx.max_outputs:
                return actual_outputs
        else:
            if actual_outputs != outputs_mask:
                return actual_outputs
        if effective in self._found:
            self.stats.duplicates += 1
            return actual_outputs
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
        if valid:
            self._found[effective] = None
        return actual_outputs
