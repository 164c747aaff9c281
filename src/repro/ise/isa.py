"""Description of the extended instruction set produced by the ISE pipeline.

Once cuts have been enumerated, scored and selected, each selected cut becomes
a :class:`CustomInstruction`: a named opcode with an operand/result signature
(bounded by the register-file port constraints) and a latency.  The collection
of custom instructions generated for an application is an
:class:`InstructionSetExtension`, which can be rendered as a human-readable
datasheet — the artefact a designer would hand to the RTL implementation team
of a Tensilica/ARC-style customizable core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.context import EnumerationContext
from ..core.cut import Cut
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .speedup import ScoredCut


@dataclass(frozen=True)
class CustomInstruction:
    """One custom instruction of the extension.

    Attributes
    ----------
    name:
        Mnemonic assigned to the instruction (e.g. ``cust0``).
    cut:
        The data-flow subgraph the instruction implements.
    num_operands / num_results:
        Register-file reads and writes of the instruction.
    latency_cycles:
        Latency of the instruction on the extended processor.
    saved_cycles:
        Cycles saved per execution compared with the software sequence.
    opcodes:
        Multiset (sorted list) of the operation opcodes fused into the
        instruction, for documentation.
    """

    name: str
    cut: Cut
    num_operands: int
    num_results: int
    latency_cycles: int
    saved_cycles: float
    opcodes: Sequence[str]

    def describe(self) -> str:
        """One-line datasheet entry."""
        ops = ", ".join(self.opcodes)
        return (
            f"{self.name}: {self.num_operands} in / {self.num_results} out, "
            f"{self.latency_cycles} cycle(s), saves {self.saved_cycles:.1f} "
            f"cycles/exec [{ops}]"
        )


@dataclass
class InstructionSetExtension:
    """A set of custom instructions generated for one application."""

    application: str
    instructions: List[CustomInstruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def datasheet(self) -> str:
        """Multi-line human-readable description of the extension."""
        lines = [f"Instruction set extension for {self.application!r} "
                 f"({len(self.instructions)} instructions)"]
        for instr in self.instructions:
            lines.append("  " + instr.describe())
        return "\n".join(lines)


def make_instruction(
    name: str,
    scored: ScoredCut,
    context: EnumerationContext,
    model: LatencyModel = DEFAULT_LATENCY_MODEL,
) -> CustomInstruction:
    """Turn a scored cut into a :class:`CustomInstruction` record."""
    cut = scored.cut
    graph = context.augmented.graph
    opcodes = sorted(graph.node(v).opcode.value for v in cut.nodes)
    return CustomInstruction(
        name=name,
        cut=cut,
        num_operands=cut.num_inputs,
        num_results=cut.num_outputs,
        latency_cycles=max(1, int(math.ceil(scored.hardware_cycles))),
        saved_cycles=scored.saved_cycles_per_execution,
        opcodes=opcodes,
    )
