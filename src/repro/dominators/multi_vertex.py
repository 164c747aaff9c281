"""Multiple-vertex dominator enumeration (Dubrova et al. [12]).

The enumeration algorithm of the paper needs, for every candidate output
``o``, all multiple-vertex dominators of ``o`` with at most ``Nin`` vertices.
Dubrova et al. observe that they can be enumerated in ``O(n^k)`` time by the
following reduction: pick a *seed set* of ``k - 1`` vertices, remove it from
the graph (together with everything that thereby becomes unreachable from the
root), and run a *single-vertex* dominator computation on the reduced graph;
every strict dominator ``u`` of the target in the reduced graph completes the
seed into a ``k``-vertex dominator of the target in the original graph.

The single-vertex computation is the library's DAG kernel
(:func:`~repro.dominators.iterative.immediate_dominators_dag`): the paper
runs Lengauer–Tarjan, which handles general flow graphs, but on a DAG one
topological sweep gives the same ``idom`` list.  This module provides:

* :func:`dominator_completions` — one reduction step;
* :func:`enumerate_generalized_dominators` — full enumeration of the
  generalized dominators of a vertex up to a size bound, used by the basic
  algorithm of Figure 2 and validated in the tests against a
  definition-based brute force over every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from ..dfg.reachability import ids_from_mask
from .generalized import is_generalized_dominator
from .iterative import immediate_dominators_dag, strict_dominators


@dataclass
class DominatorSearchStats:
    """Counters of one :func:`enumerate_generalized_dominators` run.

    Attributes
    ----------
    lt_calls:
        Exact number of dominator-kernel runs performed by the
        seed-plus-completion exploration (one per explored seed set).
    """

    lt_calls: int = 0


@dataclass(frozen=True)
class CompletionResult:
    """Result of one Dubrova reduction step.

    Attributes
    ----------
    already_dominated:
        ``True`` if the seed set alone already blocks every root-to-target
        path (the target is unreachable in the reduced graph).  In that case
        ``completions`` is empty.
    completions:
        Vertices ``u`` such that ``seed ∪ {u}`` blocks every root-to-target
        path: the strict dominators of the target in the reduced graph
        (nearest dominator first).  The root is included when it qualifies;
        callers that cannot use the root as a cut input filter it out.
    lt_calls:
        Number of dominator-kernel runs performed (0 or 1), used by the
        statistics counters of the enumeration algorithms.
    """

    already_dominated: bool
    completions: List[int]
    lt_calls: int = 0


def dominator_completions(
    topo_order: Sequence[int],
    predecessor_lists: Sequence[Sequence[int]],
    root: int,
    target: int,
    seed_mask: int = 0,
) -> CompletionResult:
    """Run one reduction step of the Dubrova et al. technique.

    Parameters
    ----------
    topo_order, predecessor_lists, root:
        The rooted DAG (typically the augmented DFG): a topological order
        of its vertices and the predecessor list of every vertex.
    target:
        The vertex whose dominators are sought (a candidate cut output).
    seed_mask:
        Bit mask of the seed vertices removed from the graph.  The root and
        the target must not be part of the seed.
    """
    if (seed_mask >> root) & 1:
        raise ValueError("the root cannot be part of a seed set")
    if (seed_mask >> target) & 1:
        raise ValueError("the target cannot be part of a seed set")

    idom = immediate_dominators_dag(topo_order, predecessor_lists, root, removed_mask=seed_mask)
    if idom[target] is None:
        # Unreachable once the seed is removed: the seed alone dominates.
        return CompletionResult(already_dominated=True, completions=[], lt_calls=1)
    completions = strict_dominators(idom, target, root)
    return CompletionResult(already_dominated=False, completions=completions, lt_calls=1)


def enumerate_generalized_dominators(
    successors: Sequence[Sequence[int]],
    topo_order: Sequence[int],
    predecessor_lists: Sequence[Sequence[int]],
    root: int,
    target: int,
    max_size: int,
    candidates: Iterable[int],
    search_stats: Optional[DominatorSearchStats] = None,
) -> Set[frozenset]:
    """Enumerate the generalized dominators of *target* with at most *max_size* vertices.

    Only sets satisfying both conditions of Definition 5 are reported.

    Parameters
    ----------
    successors, topo_order, predecessor_lists:
        The rooted DAG: the successor list of every vertex (for the
        Definition 5 checks), a topological order and the predecessor lists
        (for the dominator kernel).
    candidates:
        Vertices allowed to appear in a dominator set, typically the proper
        ancestors of *target* (the only place dominator vertices can live).
        The target itself is never a candidate.
    search_stats:
        Optional :class:`DominatorSearchStats` accumulating the exact number
        of dominator-kernel runs the enumeration performs.
    """
    if max_size < 1:
        return set()

    candidate_list = sorted(set(candidates) - {target})
    candidate_mask = 0
    for v in candidate_list:
        candidate_mask |= 1 << v

    results: Set[frozenset] = set()

    def record(mask: int) -> None:
        members = ids_from_mask(mask)
        if is_generalized_dominator(successors, root, target, members):
            results.add(frozenset(members))

    def explore(seed_mask: int, start_index: int, seed_size: int) -> None:
        step = dominator_completions(topo_order, predecessor_lists, root, target, seed_mask)
        if search_stats is not None:
            search_stats.lt_calls += step.lt_calls
        if step.already_dominated:
            # The seed already blocks every path; any extension is redundant.
            if seed_size:
                record(seed_mask)
            return
        for completion in step.completions:
            if completion == target:
                continue
            if not ((candidate_mask >> completion) & 1):
                continue
            record(seed_mask | (1 << completion))
        if seed_size + 1 >= max_size:
            return
        for index in range(start_index, len(candidate_list)):
            vertex = candidate_list[index]
            if vertex == root or (seed_mask >> vertex) & 1:
                continue
            explore(seed_mask | (1 << vertex), index + 1, seed_size + 1)

    explore(0, 0, 0)
    return results
