"""Lengauer–Tarjan immediate dominator computation.

This is the ``O(n log n)`` ("simple") variant of the Lengauer–Tarjan
algorithm [14], exactly the one the paper uses as the inner kernel of its
enumeration (Section 5.4): path compression in ``eval`` but no tree
balancing.  Two engineering choices from the paper are preserved:

* the depth-first search and ``eval`` are **iterative**, not recursive — the
  paper reports that the recursive ``eval`` defeated compiler optimisation
  because path compression links all vertices to the same ancestor; in Python
  the iterative form additionally avoids blowing the recursion limit on long
  dependence chains;
* all bookkeeping arrays are indexed by *dfnum* (the pre-order depth-first
  number), which both speeds up the inner loops and mirrors the paper's
  "store the dfnum instead of the node" optimisation.

The entry point :func:`immediate_dominators` works on a *reduced* view of the
graph: a caller-supplied ``removed_mask`` hides vertices without rebuilding
the graph, which is what the Dubrova-style multi-vertex dominator enumeration
(:mod:`repro.dominators.multi_vertex`) needs when it repeatedly removes seed
sets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def immediate_dominators(
    num_nodes: int,
    successors: Sequence[Sequence[int]],
    root: int,
    removed_mask: int = 0,
) -> List[Optional[int]]:
    """Compute immediate dominators of every vertex reachable from *root*.

    Parameters
    ----------
    num_nodes:
        Total number of vertices (ids ``0 .. num_nodes - 1``).
    successors:
        The successor list of every vertex.
    root:
        Root vertex of the (reduced) graph.
    removed_mask:
        Bit mask of vertices to treat as absent.  Edges incident to a removed
        vertex are ignored.  The root must not be removed.

    Returns
    -------
    list
        ``idom`` list where ``idom[root] == root``, ``idom[v]`` is the
        immediate dominator of a reachable vertex ``v``, and ``idom[v] is
        None`` for vertices that are removed or unreachable from the root.
    """
    if (removed_mask >> root) & 1:
        raise ValueError("the root vertex may not be removed")

    # -- Iterative depth-first search ------------------------------------- #
    dfnum = [-1] * num_nodes          # vertex -> dfs number
    vertex: List[int] = []            # dfs number -> vertex
    parent_df: List[int] = []         # dfs number -> dfs number of DFS parent

    stack: List[tuple] = [(root, -1)]
    while stack:
        node, parent_number = stack.pop()
        if dfnum[node] != -1:
            continue
        number = len(vertex)
        dfnum[node] = number
        vertex.append(node)
        parent_df.append(parent_number)
        for succ in successors[node]:
            if (removed_mask >> succ) & 1:
                continue
            if dfnum[succ] == -1:
                stack.append((succ, number))

    count = len(vertex)
    if count == 0:
        return [None] * num_nodes

    # Predecessor lists restricted to visited vertices, in dfnum space.
    preds_df: List[List[int]] = [[] for _ in range(count)]
    for number in range(count):
        node = vertex[number]
        for succ in successors[node]:
            if (removed_mask >> succ) & 1:
                continue
            succ_number = dfnum[succ]
            if succ_number != -1:
                preds_df[succ_number].append(number)

    # -- Semi-dominators and dominator computation ------------------------ #
    semi = list(range(count))          # dfnum -> dfnum of semi-dominator
    ancestor = [-1] * count            # forest for eval/link
    label = list(range(count))         # label[v]: vertex with min semi on path
    idom_df = [-1] * count
    samedom = [-1] * count
    bucket: List[List[int]] = [[] for _ in range(count)]

    def eval_(v: int) -> int:
        """Return the label with minimal semi-dominator on the forest path of *v*."""
        if ancestor[v] == -1:
            return label[v]
        # Collect the path to the forest root, then compress it bottom-up.
        path = []
        u = v
        while ancestor[ancestor[u]] != -1:
            path.append(u)
            u = ancestor[u]
        for node_ in reversed(path):
            anc = ancestor[node_]
            if semi[label[anc]] < semi[label[node_]]:
                label[node_] = label[anc]
            ancestor[node_] = ancestor[anc]
        return label[v]

    for w in range(count - 1, 0, -1):
        p = parent_df[w]
        # Step 2: semi-dominator of w.
        s = semi[w]
        for v in preds_df[w]:
            u = eval_(v)
            if semi[u] < s:
                s = semi[u]
        semi[w] = s
        bucket[s].append(w)
        # link(p, w)
        ancestor[w] = p
        label[w] = w
        # Step 3: implicitly compute idom for vertices whose semi-dominator is p.
        for v in bucket[p]:
            u = eval_(v)
            if semi[u] < semi[v]:
                samedom[v] = u
            else:
                idom_df[v] = p
        bucket[p] = []

    # Step 4: fill in deferred dominators in dfnum order.
    for w in range(1, count):
        if samedom[w] != -1:
            idom_df[w] = idom_df[samedom[w]]

    # -- Translate back to vertex ids ------------------------------------- #
    idom: List[Optional[int]] = [None] * num_nodes
    idom[root] = root
    for w in range(1, count):
        idom[vertex[w]] = vertex[idom_df[w]]
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


def dominates(idom: Sequence[Optional[int]], a: int, b: int) -> bool:
    """``True`` if vertex *a* dominates vertex *b* according to *idom* (a == b counts)."""
    if idom[b] is None:
        return False
    current: Optional[int] = b
    while current is not None:
        if current == a:
            return True
        nxt = idom[current]
        if nxt == current:
            return False
        current = nxt
    return False
