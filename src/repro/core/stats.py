"""Enumeration statistics and result containers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set

from ..dfg.reachability import ids_from_mask
from .context import EnumerationContext
from .cut import Cut


@dataclass
class EnumerationStats:
    """Counters collected while enumerating cuts.

    The counters mirror the quantities the paper discusses: the fresh
    immediate-dominator arrays the search produced (the paper runs
    Lengauer–Tarjan for each, which takes "at least 70% of the time"; here
    each array is derived from a one-vertex-smaller input set's array, or
    computed by the single-pass DAG kernel) and the time spent producing
    them, the number of candidate cuts submitted to the validity check, and
    how many branches each pruning rule removed.
    """

    cuts_found: int = 0
    duplicates: int = 0
    candidates_checked: int = 0
    #: Fresh immediate-dominator arrays the search produced, one per newly
    #: met reachable region: derived from a one-vertex-smaller input set's
    #: array or computed by the full kernel (cache hits count nothing).
    lt_calls: int = 0
    pick_output_calls: int = 0
    pick_input_calls: int = 0
    pruned: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Wall time spent producing the ``lt_calls`` fresh arrays, derived or
    #: full (region-cache hits cost no kernel time).
    lt_seconds: float = 0.0
    #: Always 0 (the search has no memo); isebench/passes.py reads them under --trace 1.
    insearch_hits: int = 0
    insearch_misses: int = 0
    insearch_evictions: int = 0

    def count_pruned(self, rule: str, amount: int = 1) -> None:
        """Record that *rule* pruned *amount* branches."""
        self.pruned[rule] = self.pruned.get(rule, 0) + amount

    def merge(self, other: "EnumerationStats") -> None:
        """Accumulate the counters of *other* into this object."""
        self.cuts_found += other.cuts_found
        self.duplicates += other.duplicates
        self.candidates_checked += other.candidates_checked
        self.lt_calls += other.lt_calls
        self.pick_output_calls += other.pick_output_calls
        self.pick_input_calls += other.pick_input_calls
        self.elapsed_seconds += other.elapsed_seconds
        self.lt_seconds += other.lt_seconds
        self.insearch_hits += other.insearch_hits
        self.insearch_misses += other.insearch_misses
        self.insearch_evictions += other.insearch_evictions
        for rule, amount in other.pruned.items():
            self.count_pruned(rule, amount)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"cuts found          : {self.cuts_found}",
            f"duplicates          : {self.duplicates}",
            f"candidates checked  : {self.candidates_checked}",
            f"dominator arrays    : {self.lt_calls}",
            f"output expansions   : {self.pick_output_calls}",
            f"input expansions    : {self.pick_input_calls}",
            f"elapsed             : {self.elapsed_seconds:.4f} s",
        ]
        if self.lt_seconds:
            lines.append(f"dominator time      : {self.lt_seconds:.4f} s")
        for rule in sorted(self.pruned):
            lines.append(f"pruned[{rule}]: {self.pruned[rule]}")
        return "\n".join(lines)


@dataclass
class EnumerationResult:
    """Outcome of a cut enumeration run.

    The result holds the cuts as vertex bit masks, which the batch engine,
    the store and the ISE scorer read; :attr:`cuts` builds ``Cut`` objects.

    Attributes
    ----------
    masks:
        The distinct valid cuts as vertex bit masks, in discovery order.
    stats:
        Search statistics.
    graph_name:
        Name of the graph that was enumerated (for reports).
    algorithm:
        Identifier of the algorithm that produced the result.
    context:
        The context whose vertex ids the masks use; :attr:`cuts` needs it.
    """

    masks: List[int] = field(default_factory=list)
    stats: EnumerationStats = field(default_factory=EnumerationStats)
    graph_name: str = ""
    algorithm: str = ""
    context: Optional[EnumerationContext] = field(default=None, compare=False, repr=False)

    @cached_property
    def cuts(self) -> List[Cut]:
        """The cuts, in discovery order, built from :attr:`masks` on first access."""
        if not self.masks:
            return []
        if self.context is None:
            raise ValueError("building Cut objects requires the result's context")
        return [Cut.from_mask(self.context, mask) for mask in self.masks]

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Cut]:
        return iter(self.cuts)

    def node_sets(self) -> Set[FrozenSet[int]]:
        """The cuts as a set of frozen vertex-id sets (order-independent)."""
        return {frozenset(ids_from_mask(mask)) for mask in self.masks}

    def largest(self, count: int = 1) -> List[Cut]:
        """The *count* largest cuts by number of vertices."""
        return sorted(self.cuts, key=lambda cut: len(cut.nodes), reverse=True)[:count]

    def filter(self, predicate: Callable[[Cut], bool]) -> List[Cut]:
        """Cuts satisfying *predicate*."""
        return [cut for cut in self.cuts if predicate(cut)]


class BlockTimeout(Exception):
    """A search passed its deadline (:func:`check_deadline`).

    The batch engine records the block as timed out, never as an error.
    """


def check_deadline(deadline: float) -> None:
    """Raise :class:`BlockTimeout` once ``time.perf_counter()`` passes *deadline*.

    The searches call it where they count work, behind a ``deadline is not
    None`` test, so a run without a budget pays that one test per state.
    """
    if time.perf_counter() > deadline:
        raise BlockTimeout


class Stopwatch:
    """Tiny context manager storing the elapsed wall-clock time into stats."""

    def __init__(self, stats: EnumerationStats) -> None:
        self._stats = stats
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self._stats.elapsed_seconds += time.perf_counter() - self._start
