"""Selection of a non-overlapping subset of the enumerated cuts.

Enumerating all valid cuts is the paper's contribution; turning them into an
instruction set extension additionally requires choosing which cuts to
implement.  Exact selection is NP-hard once more than one instruction is
allowed (the paper cites [15] on this), so the standard approaches are:

* **greedy selection** — repeatedly pick the cut with the highest weighted
  gain that does not overlap the already selected ones (and, optionally, still
  fits in the remaining area budget);
* **iterative / knapsack-aware selection** — the same greedy loop driven by
  gain density (gain per unit area) when an area budget is the binding
  constraint, which corresponds to the classic fractional-knapsack heuristic.

Both take scored cut masks (:class:`~repro.ise.latency.MaskScore`) or
:class:`~repro.ise.speedup.ScoredCut` objects, test overlap with one AND of
vertex masks, and return the selected subset in selection order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, TypeVar

from ..dfg.reachability import ids_from_mask
from .latency import MaskScore
from .speedup import ScoredCut, gain_density


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of the selection pass.

    Attributes
    ----------
    max_instructions:
        Upper bound on the number of custom instructions (``None`` = no bound).
        Commercial flows typically restrict this to a handful per application.
    area_budget:
        Total area available for custom functional units, in the same relative
        units as :func:`repro.ise.latency.cut_area` (``None`` = unlimited).
    by_density:
        When ``True`` cuts are ranked by gain density (gain / area) instead of
        raw gain, which is the better heuristic under a tight area budget.
    """

    max_instructions: Optional[int] = None
    area_budget: Optional[float] = None
    by_density: bool = False


Scored = TypeVar("Scored", MaskScore, ScoredCut)


def select_cuts(
    scored_cuts: Iterable[Scored],
    config: SelectionConfig = SelectionConfig(),
) -> List[Scored]:
    """Greedy non-overlapping selection of custom instructions.

    The input does not need to be sorted; cuts with non-positive gain are
    never selected.
    """
    candidates = [entry for entry in scored_cuts if entry.weighted_gain > 0]
    # Ties are broken by the cut's ascending vertex ids, not by list position,
    # so the selection is independent of discovery order — a result served
    # from the memoization store (whose cuts may arrive in an isomorphic
    # writer's order) selects the same instructions as a direct enumeration.
    if config.by_density:
        density = lambda entry: gain_density(entry.weighted_gain, entry.area)
        candidates.sort(key=lambda entry: (-density(entry), ids_from_mask(entry.mask)))
    else:
        candidates.sort(key=lambda entry: (-entry.weighted_gain, ids_from_mask(entry.mask)))

    selected: List[Scored] = []
    used_mask = 0
    remaining_area = config.area_budget

    for entry in candidates:
        if config.max_instructions is not None and len(selected) >= config.max_instructions:
            break
        mask = entry.mask
        if mask & used_mask:
            continue
        if remaining_area is not None and entry.area > remaining_area:
            continue
        selected.append(entry)
        used_mask |= mask
        if remaining_area is not None:
            remaining_area -= entry.area
    return selected


def selection_covers(selected: Iterable[ScoredCut]) -> set:
    """Union of the vertices covered by the selected cuts (for reporting/tests)."""
    covered: set = set()
    for entry in selected:
        covered |= entry.cut.nodes
    return covered


def is_disjoint_selection(selected: List[ScoredCut]) -> bool:
    """``True`` if no two selected cuts share a vertex (selection invariant)."""
    seen: set = set()
    for entry in selected:
        if entry.cut.nodes & seen:
            return False
        seen |= entry.cut.nodes
    return True
