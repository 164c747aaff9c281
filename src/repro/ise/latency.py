"""Latency models for custom-instruction merit estimation.

The paper defers speedup evaluation to prior work ([4], [7], [10]); this module
implements the standard model those papers use so that the enumerated cuts can
be turned into an actual instruction-set extension:

* **software cost** of a cut: the sum of the software latencies of its
  operations — the cycles the baseline processor spends executing them one by
  one;
* **hardware latency** of a cut: the length, in normalised operator delays, of
  the critical path through the cut when it is implemented as a single
  combinational datapath inside a custom functional unit, rounded up to an
  integer number of processor cycles;
* **transfer cost**: extra cycles needed when the cut needs more operands or
  results than the register file ports of the base ISA can provide in one
  instruction (Atasu et al. model each extra pair of reads or extra write as
  one additional cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ..core.context import EnumerationContext
from ..core.cut import Cut
from ..dfg.opcodes import area_cost, hardware_latency, software_latency
from ..dfg.reachability import ids_from_mask


@dataclass(frozen=True)
class LatencyModel:
    """Parameters of the software/hardware timing model.

    Attributes
    ----------
    base_isa_read_ports:
        Register-file read ports a standard instruction can use (2 in a
        classic RISC ISA).
    base_isa_write_ports:
        Register-file write ports a standard instruction can use (1).
    cycles_per_extra_transfer:
        Cycles charged for every operand read beyond the base read ports and
        every result write beyond the base write ports.
    hw_cycle_granularity:
        The hardware critical path is rounded up to a multiple of this
        fraction of a cycle (1.0 reproduces the whole-cycle rounding used by
        Atasu et al.).
    """

    base_isa_read_ports: int = 2
    base_isa_write_ports: int = 1
    cycles_per_extra_transfer: float = 1.0
    hw_cycle_granularity: float = 1.0

    # ------------------------------------------------------------------ #
    def software_cost(self, cut: Cut, context: EnumerationContext) -> float:
        """Cycles spent by the baseline processor executing the cut's operations."""
        return CutCosts(context, self).score(cut.node_mask()).software_cycles

    def hardware_critical_path(self, cut: Cut, context: EnumerationContext) -> float:
        """Normalised delay of the longest path through the cut's datapath."""
        return CutCosts(context, self).score(cut.node_mask()).critical_path

    def hardware_cost(self, cut: Cut, context: EnumerationContext) -> float:
        """Cycles the custom instruction takes, including I/O transfer overhead."""
        return CutCosts(context, self).score(cut.node_mask()).hardware_cycles

    def saved_cycles(self, cut: Cut, context: EnumerationContext) -> float:
        """Cycles saved each time the custom instruction replaces the cut."""
        return CutCosts(context, self).score(cut.node_mask()).saved_cycles_per_execution


DEFAULT_LATENCY_MODEL = LatencyModel()


class MaskScore(NamedTuple):
    """Merit of a cut given as a bit mask: ``ScoredCut``'s fields, plus the critical path."""

    mask: int
    saved_cycles_per_execution: float
    weighted_gain: float
    hardware_cycles: float
    software_cycles: float
    area: float
    critical_path: float


class CutCosts:
    """Per-vertex cost tables of one block, built once, that price cuts from their masks.

    The library's one cost implementation: the :class:`LatencyModel` methods,
    :func:`cut_area` and :mod:`repro.ise.speedup` all go through it.
    """

    def __init__(self, context: EnumerationContext, model: LatencyModel = DEFAULT_LATENCY_MODEL):
        opcodes = [context.augmented.graph.node(v).opcode for v in range(context.num_nodes)]
        self._software = [software_latency(op) for op in opcodes]
        self._delay = [hardware_latency(op) for op in opcodes]
        self._area = [area_cost(op) for op in opcodes]
        self._pred_rows = context.reach.predecessor_rows()
        self._succ_rows = context.reach.successor_rows()
        self._topo_position = context.topo_position
        self._model = model
        self._finish = [0.0] * context.num_nodes  # scratch: a cut writes before it reads

    def score(self, mask: int, execution_count: float = 1.0) -> MaskScore:
        """Cost and merit of the cut *mask*, in one topological pass over its vertices.

        A vertex's datapath result is ready its delay after the latest of its
        predecessors in the cut; ``|I(S)|`` and ``|O(S)|`` come from the
        packed predecessor and successor rows.
        """
        software, delay, area_of = self._software, self._delay, self._area
        pred_rows, succ_rows, finish = self._pred_rows, self._succ_rows, self._finish
        order = ids_from_mask(mask)
        order.sort(key=self._topo_position.__getitem__)
        outside = ~mask
        software_cycles = critical = area = 0.0
        preds = outputs = 0
        for vertex in order:
            software_cycles += software[vertex]
            area += area_of[vertex]
            row = pred_rows[vertex]
            preds |= row
            start = 0.0
            inner = row & mask
            while inner:
                low = inner & -inner
                ready = finish[low.bit_length() - 1]
                if ready > start:
                    start = ready
                inner ^= low
            end = finish[vertex] = start + delay[vertex]
            if end > critical:
                critical = end
            if succ_rows[vertex] & outside:
                outputs += 1
        model = self._model
        granularity = model.hw_cycle_granularity
        transfers = max(0, (preds & outside).bit_count() - model.base_isa_read_ports)
        transfers += max(0, outputs - model.base_isa_write_ports)
        hardware = max(granularity, math.ceil(critical / granularity) * granularity)
        hardware += model.cycles_per_extra_transfer * transfers
        saved = software_cycles - hardware
        gain = saved * execution_count
        return MaskScore(mask, saved, gain, hardware, software_cycles, area, critical)


def total_software_cycles(context: EnumerationContext, model: LatencyModel = DEFAULT_LATENCY_MODEL) -> float:
    """Software cycles of the whole basic block (all operation vertices)."""
    graph = context.original_graph
    return sum(
        software_latency(node.opcode) for node in graph.nodes() if node.is_operation
    )


def cut_area(cut: Cut, context: EnumerationContext) -> float:
    """Relative silicon area of the cut's datapath (sum of operator areas)."""
    return CutCosts(context).score(cut.node_mask()).area
