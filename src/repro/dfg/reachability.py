"""Reachability precomputation on data-flow graphs.

Section 5.4 of the paper keeps, next to the adjacency structure, a
precomputed "presence of paths between two nodes" relation together with
information about forbidden vertices lying on those paths.  This module
provides that precomputation as a **packed transitive-closure matrix**:
every row (the descendant set, the ancestor set, the immediate neighbour
sets of one vertex) is a Python big integer with bit ``v`` meaning "vertex
``v`` belongs to the set", and the whole matrix is built once per graph by
OR-ing successor rows in reverse topological order (and predecessor rows in
topological order for the ancestor matrix).

This representation gives constant-time path queries, lets the incremental
algorithm of Figure 3 snapshot and restore the growing cut ``S`` for free
(integers are immutable), and — new with the hot-path optimisation — lets
the cut-oriented queries operate on the closure rows directly:

* ``I(S)`` is one union of predecessor rows over the set bits of ``S``;
* ``O(S)`` needs one successor-row probe per set bit;
* convexity (Definition 2) collapses to a *single* mask identity, because a
  vertex outside ``S`` lies on a path between two cut vertices exactly when
  it belongs to both the descendant closure and the ancestor closure of
  ``S``:  ``S`` is convex  ⇔  ``D(S) ∧ A(S) ⊆ S``.

Set bits are enumerated with low-bit extraction (``mask & -mask``), which is
O(popcount) big-integer operations instead of the O(num_nodes) shift loop
the first implementation used, and popcounts use :meth:`int.bit_count`.

The central quantity of the paper, ``B(V, w)`` ("the vertices between a set
``V`` and a vertex ``w``", Definition 6), reduces to two mask intersections::

    B(V, w) = (union of descendants(v) for v in V)  &  (ancestors(w) | {w})
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from .graph import DataFlowGraph


def mask_from_ids(ids: Iterable[int]) -> int:
    """Build a bit mask from an iterable of vertex ids."""
    mask = 0
    for node_id in ids:
        mask |= 1 << node_id
    return mask


def ids_from_mask(mask: int) -> List[int]:
    """Expand a bit mask into the sorted list of vertex ids it contains."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


def iterate_mask(mask: int):
    """Iterate over the vertex ids contained in *mask* (ascending order)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Number of vertices in a mask.  Alias of :meth:`int.bit_count` (the 3.10+
#: intrinsic) — kept under the historical name so call sites and tests did
#: not have to churn when the hand-rolled ``bin(mask).count("1")`` went away.
popcount = int.bit_count


class ReachabilityIndex:
    """Packed transitive-closure index of a :class:`DataFlowGraph`.

    Parameters
    ----------
    graph:
        The (augmented or plain) data-flow graph.
    forbidden:
        Optional explicit forbidden set; defaults to ``graph.forbidden_nodes()``.
    """

    def __init__(self, graph: DataFlowGraph, forbidden: Optional[Iterable[int]] = None) -> None:
        self.graph = graph
        self.num_nodes = graph.num_nodes
        if forbidden is None:
            forbidden_set: Set[int] = set(graph.forbidden_nodes())
        else:
            forbidden_set = set(forbidden)
        self.forbidden_mask = mask_from_ids(forbidden_set)

        self._desc: List[int] = [0] * self.num_nodes
        self._anc: List[int] = [0] * self.num_nodes
        self._pred_mask: List[int] = [0] * self.num_nodes
        self._succ_mask: List[int] = [0] * self.num_nodes
        self._compute()

    # ------------------------------------------------------------------ #
    # Precomputation
    # ------------------------------------------------------------------ #
    def _compute(self) -> None:
        """Build the closure matrices by row-OR propagation.

        Descendant rows are accumulated in reverse topological order (every
        successor row is final when it is OR-ed in), ancestor rows in
        topological order.  One pass each — the matrix is never recomputed.
        """
        graph = self.graph
        order = graph.topological_order()
        for v in graph.node_ids():
            self._pred_mask[v] = mask_from_ids(graph.predecessors(v))
            self._succ_mask[v] = mask_from_ids(graph.successors(v))
        desc = self._desc
        anc = self._anc
        for v in reversed(order):
            mask = 0
            for succ in graph.successors(v):
                mask |= (1 << succ) | desc[succ]
            desc[v] = mask
        for v in order:
            mask = 0
            for pred in graph.predecessors(v):
                mask |= (1 << pred) | anc[pred]
            anc[v] = mask

    # ------------------------------------------------------------------ #
    # Mask accessors
    # ------------------------------------------------------------------ #
    def descendants_mask(self, v: int) -> int:
        """Mask of vertices reachable from *v* through at least one edge."""
        return self._desc[v]

    def ancestors_mask(self, v: int) -> int:
        """Mask of vertices that reach *v* through at least one edge."""
        return self._anc[v]

    def predecessors_mask(self, v: int) -> int:
        """Mask of the immediate predecessors of *v*."""
        return self._pred_mask[v]

    def successors_mask(self, v: int) -> int:
        """Mask of the immediate successors of *v*."""
        return self._succ_mask[v]

    def successor_rows(self) -> List[int]:
        """The packed successor rows, indexed by vertex id (do not mutate)."""
        return self._succ_mask

    def predecessor_rows(self) -> List[int]:
        """The packed predecessor rows, indexed by vertex id (do not mutate)."""
        return self._pred_mask

    # ------------------------------------------------------------------ #
    # Row unions over a vertex set
    # ------------------------------------------------------------------ #
    def union_descendants(self, mask: int) -> int:
        """Union of the descendant rows of every vertex in *mask*."""
        union = 0
        desc = self._desc
        while mask:
            low = mask & -mask
            union |= desc[low.bit_length() - 1]
            mask ^= low
        return union

    def union_ancestors(self, mask: int) -> int:
        """Union of the ancestor rows of every vertex in *mask*."""
        union = 0
        anc = self._anc
        while mask:
            low = mask & -mask
            union |= anc[low.bit_length() - 1]
            mask ^= low
        return union

    def union_predecessors(self, mask: int) -> int:
        """Union of the immediate-predecessor rows of every vertex in *mask*."""
        union = 0
        pred = self._pred_mask
        while mask:
            low = mask & -mask
            union |= pred[low.bit_length() - 1]
            mask ^= low
        return union

    def union_successors(self, mask: int) -> int:
        """Union of the immediate-successor rows of every vertex in *mask*."""
        union = 0
        succ = self._succ_mask
        while mask:
            low = mask & -mask
            union |= succ[low.bit_length() - 1]
            mask ^= low
        return union

    # ------------------------------------------------------------------ #
    # Path queries
    # ------------------------------------------------------------------ #
    def has_path(self, u: int, v: int) -> bool:
        """``True`` if there is a directed path (>= 1 edge) from *u* to *v*."""
        return bool((self._desc[u] >> v) & 1)

    def reached_by_any(self, v: int, mask: int) -> bool:
        """``True`` if at least one vertex of *mask* reaches *v*."""
        return bool(self._anc[v] & mask)

    # ------------------------------------------------------------------ #
    # B(V, w) — Definition 6 of the paper
    # ------------------------------------------------------------------ #
    def between_mask(self, sources_mask: int, target: int) -> int:
        """Mask of ``B(V, w)``: vertices on some path from a vertex of *V* to *w*.

        Following Definition 6, the starting vertices are not implicitly
        included but *w* is; a starting vertex that lies on a path from
        another starting vertex does appear in the result.
        """
        return self.union_descendants(sources_mask) & (
            self._anc[target] | (1 << target)
        )

    def between(self, sources: Iterable[int], target: int) -> Set[int]:
        """Set version of :meth:`between_mask`."""
        return set(ids_from_mask(self.between_mask(mask_from_ids(sources), target)))

    # ------------------------------------------------------------------ #
    # Forbidden-node path information (Section 5.3, output-input pruning)
    # ------------------------------------------------------------------ #
    def forbidden_on_path(self, u: int, w: int) -> bool:
        """``True`` if some path from *u* to *w* contains a forbidden vertex.

        The end points themselves are not considered: the query asks about
        *interior* vertices, which is the relevant question when *u* is a
        candidate input (possibly forbidden itself) and *w* a candidate
        output.
        """
        interior = self._desc[u] & self._anc[w]
        return bool(interior & self.forbidden_mask)

    # ------------------------------------------------------------------ #
    # Cut-oriented helpers (closure-backed)
    # ------------------------------------------------------------------ #
    def cut_inputs_mask(self, cut_mask: int) -> int:
        """Inputs ``I(S)`` of the cut *cut_mask*: predecessors outside the cut."""
        return self.union_predecessors(cut_mask) & ~cut_mask

    def cut_outputs_mask(self, cut_mask: int) -> int:
        """Outputs ``O(S)``: cut vertices with at least one successor outside."""
        outputs = 0
        succ = self._succ_mask
        outside = ~cut_mask
        mask = cut_mask
        while mask:
            low = mask & -mask
            if succ[low.bit_length() - 1] & outside:
                outputs |= low
            mask ^= low
        return outputs

    def is_convex_mask(self, cut_mask: int) -> bool:
        """Check Definition 2 (convexity) for the cut given as a mask.

        A vertex ``w`` outside the cut lies on a path between two cut
        vertices exactly when some cut vertex reaches ``w`` **and** ``w``
        reaches some cut vertex — i.e. when ``w`` belongs to both the
        descendant closure and the ancestor closure of the cut.  Convexity is
        therefore the single identity ``D(S) ∧ A(S) ⊆ S`` on the closure
        rows.
        """
        return not (
            self.union_descendants(cut_mask)
            & self.union_ancestors(cut_mask)
            & ~cut_mask
        )

    def cut_profile(self, cut_mask: int) -> Tuple[int, int, bool]:
        """``(I(S), O(S), convex)`` of a cut in one pass over its set bits.

        The single loop accumulates the descendant/ancestor/predecessor row
        unions and probes the successor rows, so the enumerators' acceptance
        test derives everything it needs with one traversal instead of three.
        """
        desc = self._desc
        anc = self._anc
        pred = self._pred_mask
        succ = self._succ_mask
        outside = ~cut_mask
        down = up = preds = outputs = 0
        mask = cut_mask
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            down |= desc[v]
            up |= anc[v]
            preds |= pred[v]
            if succ[v] & outside:
                outputs |= low
        convex = not (down & up & outside)
        return preds & outside, outputs, convex


#: Historical name of :class:`ReachabilityIndex`, kept so existing imports
#: (and pickles of objects that reference the class) keep working.
ReachabilityInfo = ReachabilityIndex
