"""Definition-based generalized (multiple-vertex) dominator checks.

Gupta's generalized dominators [13] are defined purely in terms of paths
(Definition 5 of the paper):

1. every path from the root to the target contains at least one vertex of the
   set, and
2. every vertex of the set lies on at least one root-to-target path that
   avoids the other vertices of the set (irredundancy).

This module implements the two conditions directly with breadth-first
searches that avoid a removal set.  The functions are deliberately simple —
they are the irredundancy filter of
:func:`~repro.dominators.multi_vertex.enumerate_generalized_dominators`, the
ground truth of the tests' subset-by-subset oracle, and the "``I``
dominates ``o``" predicate used by the enumeration algorithms.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def reachable_mask_avoiding(
    successors: Sequence[Sequence[int]],
    start: int,
    avoid_mask: int = 0,
) -> int:
    """Mask of vertices reachable from *start* without entering *avoid_mask*.

    The start vertex is included in the result unless it is itself avoided,
    in which case the result is empty.
    """
    if (avoid_mask >> start) & 1:
        return 0
    seen = 1 << start
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in successors[node]:
            bit = 1 << succ
            if (avoid_mask & bit) or (seen & bit):
                continue
            seen |= bit
            stack.append(succ)
    return seen


def blocks_all_paths(
    successors: Sequence[Sequence[int]],
    root: int,
    target: int,
    blocker_mask: int,
) -> bool:
    """Condition 1 of Definition 5: every root-to-target path meets the blockers.

    Equivalently, *target* is unreachable from *root* once the blocker
    vertices are removed.  A blocker set containing the target itself
    trivially satisfies the condition.
    """
    if (blocker_mask >> target) & 1:
        return True
    reachable = reachable_mask_avoiding(successors, root, blocker_mask)
    return not ((reachable >> target) & 1)


def has_private_path(
    successors: Sequence[Sequence[int]],
    root: int,
    target: int,
    member: int,
    others_mask: int,
) -> bool:
    """Condition 2 of Definition 5 for a single member of the set.

    ``True`` if some root-to-target path goes through *member* while avoiding
    all vertices of *others_mask*.
    """
    reach_from_root = reachable_mask_avoiding(successors, root, others_mask)
    if not ((reach_from_root >> member) & 1):
        return False
    reach_from_member = reachable_mask_avoiding(successors, member, others_mask)
    return bool((reach_from_member >> target) & 1)


def is_generalized_dominator(
    successors: Sequence[Sequence[int]],
    root: int,
    target: int,
    members: Iterable[int],
) -> bool:
    """Check Definition 5 in full for the vertex set *members* and vertex *target*."""
    member_list: List[int] = sorted(set(members))
    if not member_list:
        return False
    if target in member_list:
        return False
    members_mask = 0
    for v in member_list:
        members_mask |= 1 << v
    if not blocks_all_paths(successors, root, target, members_mask):
        return False
    for v in member_list:
        others = members_mask & ~(1 << v)
        if not has_private_path(successors, root, target, v, others):
            return False
    return True
