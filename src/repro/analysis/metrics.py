"""Cut-population statistics.

Summaries of an enumeration result: how many cuts of each size/shape exist,
how the input/output budget is used, how many cuts are connected, and the
polynomial-growth counters used by the scaling experiment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.context import EnumerationContext
from ..core.cut import Cut
from ..core.stats import EnumerationResult


@dataclass
class CutPopulationStats:
    """Aggregate statistics over a collection of cuts."""

    total: int = 0
    by_size: Dict[int, int] = field(default_factory=dict)
    by_num_inputs: Dict[int, int] = field(default_factory=dict)
    by_num_outputs: Dict[int, int] = field(default_factory=dict)
    max_size: int = 0
    mean_size: float = 0.0
    connected: int = 0
    multi_output: int = 0

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"cuts               : {self.total}",
            f"largest cut        : {self.max_size} operations",
            f"mean cut size      : {self.mean_size:.2f}",
            f"connected cuts     : {self.connected}",
            f"multi-output cuts  : {self.multi_output}",
        ]
        lines.append(
            "size histogram     : "
            + ", ".join(f"{k}:{v}" for k, v in sorted(self.by_size.items()))
        )
        lines.append(
            "inputs histogram   : "
            + ", ".join(f"{k}:{v}" for k, v in sorted(self.by_num_inputs.items()))
        )
        lines.append(
            "outputs histogram  : "
            + ", ".join(f"{k}:{v}" for k, v in sorted(self.by_num_outputs.items()))
        )
        return "\n".join(lines)


def population_stats(
    cuts: Iterable[Cut], context: Optional[EnumerationContext] = None
) -> CutPopulationStats:
    """Compute :class:`CutPopulationStats` for *cuts*."""
    sizes: Counter = Counter()
    inputs: Counter = Counter()
    outputs: Counter = Counter()
    connected = 0
    multi_output = 0
    total = 0
    size_sum = 0

    for cut in cuts:
        total += 1
        size_sum += cut.num_nodes
        sizes[cut.num_nodes] += 1
        inputs[cut.num_inputs] += 1
        outputs[cut.num_outputs] += 1
        if cut.num_outputs > 1:
            multi_output += 1
        ctx = context or cut.context
        if ctx is not None and cut.is_connected(ctx):
            connected += 1

    return CutPopulationStats(
        total=total,
        by_size=dict(sizes),
        by_num_inputs=dict(inputs),
        by_num_outputs=dict(outputs),
        max_size=max(sizes) if sizes else 0,
        mean_size=(size_sum / total) if total else 0.0,
        connected=connected,
        multi_output=multi_output,
    )


def result_summary(result: EnumerationResult) -> str:
    """One-paragraph summary of an enumeration result (cuts + search stats)."""
    stats = population_stats(result.cuts)
    return (
        f"{result.algorithm} on {result.graph_name}: {stats.total} cuts "
        f"(max size {stats.max_size}, {stats.multi_output} multi-output) in "
        f"{result.stats.elapsed_seconds:.3f}s with {result.stats.lt_calls} "
        f"dominator computations"
    )


def count_cuts_by_constraint(
    results: Dict[str, EnumerationResult]
) -> List[Dict[str, object]]:
    """Tabulate cut counts for a dictionary ``{constraint_label: result}``."""
    rows = []
    for label, result in sorted(results.items()):
        rows.append(
            {
                "constraints": label,
                "cuts": len(result),
                "elapsed_seconds": result.stats.elapsed_seconds,
                "lt_calls": result.stats.lt_calls,
                "candidates": result.stats.candidates_checked,
            }
        )
    return rows
