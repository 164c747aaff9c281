"""Reference dominator kernels, the tests' oracles for the shipped DAG kernel.

Data-flow graphs are acyclic, so the library solves every dominator array
with the single topological sweep of
:func:`repro.dominators.iterative.immediate_dominators_dag` (and
:func:`~repro.dominators.iterative.derive_immediate_dominators`).  This
module keeps the general-graph algorithms the tests check it against:

* :func:`immediate_dominators` — the ``O(n log n)`` ("simple") variant of
  the Lengauer–Tarjan algorithm [14], the kernel the paper runs inside its
  enumeration (Section 5.4): path compression in ``eval`` but no tree
  balancing, an iterative depth-first search and ``eval``, and every
  bookkeeping array indexed by *dfnum* (the paper's "store the dfnum
  instead of the node");
* :func:`immediate_dominators_iterative` — the Cooper–Harvey–Kennedy
  iterative data-flow algorithm, iterated to its fixpoint;
* :func:`dominates` — the dominance predicate read off an ``idom`` list;
* :func:`brute_force_generalized_dominators` — every generalized dominator
  of a vertex by checking Definition 5 on every subset.

Both kernels take a caller-supplied ``removed_mask`` that hides vertices
without rebuilding the graph, as the Dubrova-style reduction step
(:mod:`repro.dominators.multi_vertex`) needs.  The frozen snapshot in
:mod:`tests.reference.baselines.legacy_incremental` runs
:func:`immediate_dominators` as its reduction step.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Sequence

from repro.dominators.generalized import is_generalized_dominator


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


def immediate_dominators_iterative(
    num_nodes: int,
    successors: Sequence[Sequence[int]],
    root: int,
    removed_mask: int = 0,
) -> List[Optional[int]]:
    """Cooper–Harvey–Kennedy iterative dominator computation.

    Same contract as :func:`immediate_dominators`: returns the ``idom`` list
    with ``idom[root] == root`` and ``None`` for removed or unreachable
    vertices.
    """
    if (removed_mask >> root) & 1:
        raise ValueError("the root vertex may not be removed")

    # Reverse post-order of the reachable sub-graph (iterative DFS).
    visited = [False] * num_nodes
    postorder: List[int] = []
    stack: List[tuple] = [(root, iter(successors[root]))]
    visited[root] = True
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if (removed_mask >> succ) & 1 or visited[succ]:
                continue
            visited[succ] = True
            stack.append((succ, iter(successors[succ])))
            advanced = True
            break
        if not advanced:
            postorder.append(node)
            stack.pop()

    rpo = list(reversed(postorder))
    rpo_index = {node: i for i, node in enumerate(rpo)}

    preds: List[List[int]] = [[] for _ in range(num_nodes)]
    for node in rpo:
        for succ in successors[node]:
            if (removed_mask >> succ) & 1:
                continue
            if visited[succ]:
                preds[succ].append(node)

    idom: List[Optional[int]] = [None] * num_nodes
    idom[root] = root

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]  # type: ignore[assignment]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == root:
                continue
            new_idom: Optional[int] = None
            for pred in preds[node]:
                if idom[pred] is None:
                    continue
                if new_idom is None:
                    new_idom = pred
                else:
                    new_idom = intersect(new_idom, pred)
            if new_idom is not None and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def brute_force_generalized_dominators(
    successors: Sequence[Sequence[int]],
    root: int,
    target: int,
    max_size: int,
    candidates: Iterable[int],
) -> set:
    """Enumerate generalized dominators of *target* by checking every subset.

    Exponential in the number of candidates — only suitable for the small
    graphs used in tests, where it validates
    :func:`repro.dominators.multi_vertex.enumerate_generalized_dominators`.
    """
    candidate_list = sorted(set(candidates) - {target})
    results = set()
    for size in range(1, max_size + 1):
        for combo in combinations(candidate_list, size):
            if is_generalized_dominator(successors, root, target, combo):
                results.add(frozenset(combo))
    return results
