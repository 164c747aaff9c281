"""The dominator kernel: single-pass immediate dominators of a DAG.

The paper runs Lengauer–Tarjan (Section 5.4) because it handles general
flow graphs.  Data-flow graphs are acyclic, and on a DAG the
Cooper–Harvey–Kennedy iterative data-flow algorithm converges in one
topological sweep, so this module holds the one dominator kernel the
library runs: :func:`immediate_dominators_dag` solves a reduced DAG in one
sweep (also the reverse graph, for the context's postdominator relation,
which :func:`comparability_rows` turns into one mask per vertex), and
:func:`derive_immediate_dominators` updates such a solution when one more
vertex is removed, recomputing only its descendants.
:func:`strict_dominators` reads a vertex's chain of dominators off a
solution.  The tests check the kernel against Lengauer–Tarjan and the
fixpoint iteration, both kept under ``tests/reference/`` as oracles, and
against ``networkx.immediate_dominators``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def immediate_dominators_dag(
    topo_order: Sequence[int],
    predecessor_lists: Sequence[Sequence[int]],
    root: int,
    removed_mask: int = 0,
) -> List[Optional[int]]:
    """Single-pass dominator computation for *acyclic* graphs.

    On a DAG every topological order is a reverse post-order, so the
    Cooper–Harvey–Kennedy data-flow iteration converges in exactly one
    sweep: when a vertex is visited, all of its predecessors already carry
    their final immediate dominator, and ``idom(v)`` is the nearest common
    dominator-tree ancestor of the reachable, non-removed predecessors
    (found by depth-climbing).  Data-flow graphs are acyclic by
    construction, a caller-supplied topological order and predecessor lists
    replace the per-call depth-first searches of the general algorithms, and
    no iteration-to-fixpoint is needed.  The incremental search runs it
    once, for the empty input set, as the base case of
    :func:`derive_immediate_dominators`; ``poly-enum-basic`` runs it once
    per seed set of its Dubrova reduction
    (:func:`~repro.dominators.multi_vertex.dominator_completions`); and the
    context build runs it once over the reversed order for the
    postdominators.

    Returns the ``idom`` list over vertex ids, with ``idom[root] == root``
    and ``None`` for removed or unreachable vertices.  The tests assert
    agreement with Lengauer–Tarjan on random seed-removed DAGs and, for the
    postdominators, on their reverse graphs.
    """
    if (removed_mask >> root) & 1:
        raise ValueError("the root vertex may not be removed")
    num_nodes = len(predecessor_lists)
    idom: List[Optional[int]] = [None] * num_nodes
    depth = [0] * num_nodes
    idom[root] = root
    for v in topo_order:
        if v == root or (removed_mask >> v) & 1:
            continue
        new_idom: Optional[int] = None
        for pred in predecessor_lists[v]:
            if idom[pred] is None:  # removed or unreachable predecessor
                continue
            if new_idom is None:
                new_idom = pred
                continue
            a, b = new_idom, pred
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                a = idom[a]  # type: ignore[assignment]
            new_idom = a
        if new_idom is not None:
            idom[v] = new_idom
            depth[v] = depth[new_idom] + 1
    return idom


def strict_dominators(
    idom: Sequence[Optional[int]],
    node: int,
    root: int,
) -> List[int]:
    """Walk the dominator tree upwards from *node* (excluded) to *root* (included).

    Returns the strict dominators of *node* in root-to-node order reversed
    (i.e. nearest dominator first).  Returns an empty list if *node* is
    unreachable.
    """
    if idom[node] is None:
        return []
    result = []
    current = idom[node]
    while True:
        result.append(current)
        if current == root:
            break
        nxt = idom[current]
        if nxt is None or nxt == current:
            break
        current = nxt
    return result


def comparability_rows(idom: Sequence[Optional[int]], order: Sequence[int]) -> List[int]:
    """One mask per vertex of the dominance relation *idom* describes.

    Bit ``u`` of row ``v`` is set iff ``u`` dominates ``v`` or ``v``
    dominates ``u`` (reflexively, so ``v``'s own bit is set): the union of
    ``v``'s chain of dominators and its dominator subtree.  A vertex whose
    ``idom`` entry is ``None`` (removed or unreachable) is comparable with
    nothing, so its row is 0.  Section 5.4 asks for constant-time ancestor
    queries on the (post)dominator tree; one row answers "does either of
    two vertices dominate the other?" with a shift, and the union of the
    rows of a vertex set with one AND against a candidate mask.

    *order* must list every vertex after its immediate dominator, as a
    topological order of the graph *idom* was solved on does.  The rows
    take two passes over it: going forwards each vertex extends its
    dominator's chain, and going backwards it adds its subtree to its
    dominator's row.
    """
    rows = [0] * len(idom)
    for v in order:
        dom = idom[v]
        if dom is not None:
            rows[v] = rows[dom] | 1 << v
    for v in reversed(order):
        dom = idom[v]
        if dom is not None and dom != v:
            rows[dom] |= rows[v]
    return rows


def derive_immediate_dominators(
    parent_idom: Sequence[Optional[int]],
    vertex: int,
    descendants: Sequence[int],
    predecessor_lists: Sequence[Sequence[int]],
    topo_position: Sequence[int],
) -> List[Optional[int]]:
    """The ``idom`` list of ``G ∖ (I ∪ {vertex})`` from that of ``G ∖ I``.

    *parent_idom* is the result of :func:`immediate_dominators_dag` (or of
    this function) for the removed set ``I``; *descendants* lists every
    descendant of *vertex* in topological order, and *topo_position* maps a
    vertex id to its index in that order.  Removing *vertex* cannot change
    any path to a vertex that is not one of its descendants, so every other
    entry is copied unchanged.  The descendants are re-solved in topological
    order exactly as the full sweep would: each gets the nearest common
    dominator of its surviving predecessors (found by climbing topological
    positions, since an immediate dominator always precedes its vertex), or
    ``None`` if no predecessor survives.  Vertices already ``None`` in the
    parent — removed or unreachable — stay ``None``.

    The result equals ``immediate_dominators_dag(..., removed_mask=I | 1 <<
    vertex)``; the tests assert it on random DAGs.  Removing an already
    unreachable vertex returns a copy of *parent_idom*.
    """
    if parent_idom[vertex] == vertex:
        raise ValueError("the root vertex may not be removed")
    idom = list(parent_idom)
    if idom[vertex] is None:
        return idom
    idom[vertex] = None
    for v in descendants:
        if idom[v] is None:  # removed or unreachable before this removal
            continue
        new_idom: Optional[int] = None
        for pred in predecessor_lists[v]:
            if idom[pred] is None:  # removed or unreachable predecessor
                continue
            if new_idom is None:
                new_idom = pred
                continue
            a, b = new_idom, pred
            while a != b:
                if topo_position[a] < topo_position[b]:
                    a, b = b, a
                a = idom[a]  # type: ignore[assignment]
            new_idom = a
        idom[v] = new_idom
    return idom
