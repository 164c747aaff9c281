"""Merit (speedup) estimation for enumerated cuts.

Combines the latency model with an execution-frequency profile to rank the
candidate custom instructions, following the merit function used in the
optimal ISE identification literature the paper builds on: the gain of a cut
is the number of cycles it saves per execution of its basic block, weighted by
how often the block executes.

Scoring runs on cut bit masks (:func:`score_masks`); :func:`score_cut` and
:func:`score_cuts` wrap it for :class:`~repro.core.cut.Cut` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..core.context import EnumerationContext
from ..core.cut import Cut
from .latency import DEFAULT_LATENCY_MODEL, CutCosts, LatencyModel, MaskScore, total_software_cycles


def gain_density(weighted_gain: float, area: float) -> float:
    """Weighted gain per unit of area (infinite for a free, profitable cut)."""
    if area <= 0:
        return float("inf") if weighted_gain > 0 else 0.0
    return weighted_gain / area


@dataclass(frozen=True)
class ScoredCut:
    """A cut together with its estimated merit.

    Attributes
    ----------
    cut:
        The candidate custom instruction.
    saved_cycles_per_execution:
        Cycles saved each time the surrounding basic block executes.
    weighted_gain:
        Saved cycles multiplied by the basic-block execution count.
    hardware_cycles / software_cycles:
        The two sides of the comparison, for reporting.
    area:
        Relative area of the custom functional unit datapath.
    """

    cut: Cut
    saved_cycles_per_execution: float
    weighted_gain: float
    hardware_cycles: float
    software_cycles: float
    area: float

    @classmethod
    def from_score(cls, cut: Cut, score: MaskScore) -> "ScoredCut":
        """Attach the merit *score* of *cut*'s mask to *cut*."""
        return cls(cut, *score[1:6])

    @property
    def mask(self) -> int:
        """The cut as a vertex bit mask."""
        return self.cut.node_mask()

    @property
    def gain_per_area(self) -> float:
        """Merit density used by the area-constrained selection heuristics."""
        return gain_density(self.weighted_gain, self.area)


def score_masks(
    masks: Iterable[int],
    context: EnumerationContext,
    execution_count: float = 1.0,
    model: LatencyModel = DEFAULT_LATENCY_MODEL,
) -> List[MaskScore]:
    """Merit of the profitable cuts among *masks* (vertex bit masks), in input order."""
    score = CutCosts(context, model).score
    scores = (score(mask, execution_count) for mask in masks)
    return [entry for entry in scores if entry.saved_cycles_per_execution > 0]


def score_cut(
    cut: Cut,
    context: EnumerationContext,
    execution_count: float = 1.0,
    model: LatencyModel = DEFAULT_LATENCY_MODEL,
) -> ScoredCut:
    """Estimate the merit of a single cut."""
    return score_cuts([cut], context, execution_count, model, keep_only_profitable=False)[0]


def score_cuts(
    cuts: Iterable[Cut],
    context: EnumerationContext,
    execution_count: float = 1.0,
    model: LatencyModel = DEFAULT_LATENCY_MODEL,
    keep_only_profitable: bool = True,
) -> List[ScoredCut]:
    """Score a collection of cuts and sort them by decreasing weighted gain."""
    score = CutCosts(context, model).score
    scored = [ScoredCut.from_score(cut, score(cut.node_mask(), execution_count)) for cut in cuts]
    if keep_only_profitable:
        scored = [entry for entry in scored if entry.saved_cycles_per_execution > 0]
    scored.sort(key=lambda entry: entry.weighted_gain, reverse=True)
    return scored


def estimate_block_speedup(
    selected: Iterable[ScoredCut],
    context: EnumerationContext,
    model: LatencyModel = DEFAULT_LATENCY_MODEL,
) -> float:
    """Speedup of the basic block when the selected custom instructions are used.

    ``speedup = T_sw / (T_sw - sum(saved))`` where ``T_sw`` is the software
    execution time of the whole block.  The selected cuts are assumed to be
    vertex-disjoint (as produced by :mod:`repro.ise.selection`).
    """
    baseline = total_software_cycles(context, model)
    if baseline <= 0:
        return 1.0
    saved = sum(entry.saved_cycles_per_execution for entry in selected)
    remaining = max(baseline - saved, 1e-9)
    return baseline / remaining
