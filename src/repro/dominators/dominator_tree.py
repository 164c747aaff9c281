"""Dominator tree with constant-time ancestor queries.

Section 5.4 of the paper requires that "ancestor queries (either on dominators
or on postdominators) can be performed in constant time".  The standard trick
is used here: the dominator tree is labelled with entry/exit times of an Euler
(pre/post-order) traversal, after which ``a dominates b`` reduces to an
interval containment test.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence


class DominatorTree:
    """Immutable dominator (or postdominator) tree.

    Parameters
    ----------
    idom:
        Immediate dominator list as produced by
        :func:`repro.dominators.lengauer_tarjan.immediate_dominators` or
        :func:`repro.dominators.iterative.immediate_dominators_dag`
        (``idom[root] == root``, ``None`` for unreachable vertices).
    root:
        The tree root (artificial source for dominators, sink for
        postdominators).
    """

    def __init__(self, idom: Sequence[Optional[int]], root: int) -> None:
        self.root = root
        self._idom = list(idom)
        n = len(idom)
        self._children: List[List[int]] = [[] for _ in range(n)]
        for v, dom in enumerate(self._idom):
            if dom is None or v == root:
                continue
            self._children[dom].append(v)

        self._tin = [-1] * n
        self._tout = [-1] * n
        self._depth = [-1] * n
        self._compute_intervals()
        self._comparability: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    def _compute_intervals(self) -> None:
        clock = 0
        stack: List[tuple] = [(self.root, 0, False)]
        while stack:
            node, depth, closing = stack.pop()
            if closing:
                self._tout[node] = clock
                clock += 1
                continue
            self._tin[node] = clock
            clock += 1
            self._depth[node] = depth
            stack.append((node, depth, True))
            for child in reversed(self._children[node]):
                stack.append((child, depth + 1, False))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def idom(self, node: int) -> Optional[int]:
        """Immediate dominator of *node* (``None`` if unreachable, root maps to itself)."""
        return self._idom[node]

    def is_reachable(self, node: int) -> bool:
        """``True`` if *node* was reachable from the root when the tree was built."""
        return self._idom[node] is not None

    def dominates(self, a: int, b: int) -> bool:
        """``True`` if *a* dominates *b* (reflexive).  O(1)."""
        if self._idom[a] is None or self._idom[b] is None:
            return False
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def depth(self, node: int) -> int:
        """Depth of *node* in the dominator tree (root has depth 0)."""
        return self._depth[node]

    def children(self, node: int) -> Sequence[int]:
        """Vertices immediately dominated by *node*."""
        return tuple(self._children[node])

    def ancestors(self, node: int) -> Iterator[int]:
        """Iterate over the strict dominators of *node*, nearest first."""
        if self._idom[node] is None:
            return
        current = node
        while current != self.root:
            current = self._idom[current]  # type: ignore[assignment]
            yield current

    def comparability_mask(self, node: int) -> int:
        """Mask of the vertices *comparable* with *node* in the tree.  O(1).

        ``u`` is comparable with ``v`` when one dominates the other
        (reflexively): the mask is the union of *node*'s subtree and its
        chain of strict dominators, plus *node* itself.  The enumeration
        hot path uses it to collapse "does any chosen vertex (post)dominate
        this candidate, or vice versa?" loops into a single AND against the
        chosen-set mask.  Unreachable vertices are comparable with nothing.
        """
        if self._comparability is None:
            self._comparability = self._compute_comparability()
        return self._comparability[node]

    def _compute_comparability(self) -> List[int]:
        n = len(self._idom)
        subtree = [0] * n
        ancestors = [0] * n
        # Children before parents: a reversed pre-order works because every
        # child has a strictly larger entry time than its parent.
        pre_order = sorted(
            (v for v in range(n) if self._idom[v] is not None),
            key=lambda v: self._tin[v],
        )
        for v in reversed(pre_order):
            mask = 1 << v
            for child in self._children[v]:
                mask |= subtree[child]
            subtree[v] = mask
        for v in pre_order:
            if v != self.root:
                parent = self._idom[v]
                ancestors[v] = ancestors[parent] | (1 << parent)
        return [
            (subtree[v] | ancestors[v]) if self._idom[v] is not None else 0
            for v in range(n)
        ]

    def as_idom_list(self) -> List[Optional[int]]:
        """Return a copy of the underlying immediate-dominator list."""
        return list(self._idom)
