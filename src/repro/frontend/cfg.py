"""Control-flow graph recovery from CPython bytecode.

The paper's toolchain starts from compiled application code, not from
hand-drawn graphs: basic blocks are carved out of a function's instruction
stream, and each block's data-flow graph is then handed to the enumerator.
This module reproduces the first half of that frontend for CPython: it decodes
a function (or code object) with :mod:`dis` and partitions the instruction
stream into *basic blocks* using the classic leader analysis:

* the first instruction of the function is a leader;
* every jump target is a leader;
* every instruction following a terminator (jump, return, raise) is a leader.

The result is a :class:`ControlFlowGraph` whose blocks carry their
instructions, source-line coverage and successor edges — enough for the
data-flow translation (:mod:`repro.frontend.dfg_from_bytecode`), for the
line-event profiler (:mod:`repro.frontend.profile`) to attribute execution
counts, and for liveness analysis to decide which stored locals are
``live_out``.

Everything here is dependency-free and works on the CPython 3.10 – 3.12
bytecode dialects (specialised/quickened instructions are never seen because
:func:`dis.get_instructions` de-specialises, and inline ``CACHE`` entries are
hidden by default from 3.11 on).
"""

from __future__ import annotations

import dis
import types
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

#: Instructions that end a basic block and never fall through.
_NO_FALLTHROUGH = frozenset(
    {
        "RETURN_VALUE",
        "RETURN_CONST",  # 3.12
        "RETURN_GENERATOR",
        "RAISE_VARARGS",
        "RERAISE",
        "JUMP_FORWARD",
        "JUMP_BACKWARD",  # 3.11+
        "JUMP_BACKWARD_NO_INTERRUPT",  # 3.11+
        "JUMP_ABSOLUTE",  # 3.10
    }
)

#: Unconditional jumps (subset of the above that have a target).
_UNCONDITIONAL_JUMPS = frozenset(
    {
        "JUMP_FORWARD",
        "JUMP_BACKWARD",
        "JUMP_BACKWARD_NO_INTERRUPT",
        "JUMP_ABSOLUTE",
    }
)

#: Opcode numbers that carry a jump target (version-dependent sets from dis).
_JUMP_OPCODES = frozenset(dis.hasjrel) | frozenset(getattr(dis, "hasjabs", ()))


def _is_jump(instr: dis.Instruction) -> bool:
    """``True`` if *instr* transfers control to ``instr.argval``."""
    if instr.opcode in _JUMP_OPCODES:
        return True
    # Fabricated instruction streams (used to test foreign-version dialects)
    # may carry opcode numbers of another CPython; fall back to the opname.
    name = instr.opname
    return name in _UNCONDITIONAL_JUMPS or name.startswith(
        ("POP_JUMP", "JUMP_IF", "FOR_ITER", "SETUP_")
    )


def instruction_line(instr: dis.Instruction) -> Optional[int]:
    """Source line of *instr*, across the 3.10 – 3.13 ``dis`` APIs."""
    line = getattr(instr, "line_number", None)  # 3.13+
    if line is None:
        starts = getattr(instr, "starts_line", None)
        if isinstance(starts, int):  # <= 3.12: line number or None
            line = starts
    return line


@dataclass
class BasicBlock:
    """A maximal straight-line run of bytecode instructions.

    Attributes
    ----------
    index:
        Position of the block in offset order (entry block is 0).
    offset:
        Bytecode offset of the first instruction.
    instructions:
        The instructions of the block, in order.
    successors:
        Indices of the blocks control may transfer to.
    lines:
        Sorted source lines covered by the block's instructions.
    """

    index: int
    offset: int
    instructions: List[dis.Instruction] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    lines: Tuple[int, ...] = ()

    @property
    def terminator(self) -> Optional[dis.Instruction]:
        """The last instruction, if any."""
        return self.instructions[-1] if self.instructions else None

    @property
    def leader_line(self) -> Optional[int]:
        """Source line of the first instruction carrying line info."""
        for instr in self.instructions:
            line = instruction_line(instr)
            if line is not None:
                return line
        return None

    def opnames(self) -> List[str]:
        """Instruction opnames, in order (debug/reporting helper)."""
        return [instr.opname for instr in self.instructions]

    def describe(self) -> str:
        """One-line human summary of the block."""
        lines = f"lines {self.lines[0]}-{self.lines[-1]}" if self.lines else "no lines"
        return (
            f"block {self.index} @ offset {self.offset}: "
            f"{len(self.instructions)} instr(s), {lines}, "
            f"successors {self.successors}"
        )


class ControlFlowGraph:
    """Basic blocks of one code object plus the edges between them."""

    def __init__(
        self,
        name: str,
        blocks: List[BasicBlock],
        code: Optional[types.CodeType] = None,
    ) -> None:
        self.name = name
        self.blocks = blocks
        self.code = code

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_function(cls, fn: Callable) -> "ControlFlowGraph":
        """Build the CFG of a plain Python function."""
        code = getattr(fn, "__code__", None)
        if code is None:
            raise TypeError(f"{fn!r} has no __code__; pass a plain Python function")
        return cls.from_code(code, name=fn.__qualname__)

    @classmethod
    def from_code(
        cls, code: types.CodeType, name: Optional[str] = None
    ) -> "ControlFlowGraph":
        """Build the CFG of a code object."""
        instructions = list(dis.get_instructions(code))
        return cls.from_instructions(
            instructions, name=name or code.co_name, code=code
        )

    @classmethod
    def from_instructions(
        cls,
        instructions: Sequence[dis.Instruction],
        name: str = "code",
        code: Optional[types.CodeType] = None,
    ) -> "ControlFlowGraph":
        """Build a CFG from an explicit instruction stream.

        Exposed separately so the tests can feed fabricated 3.10-/3.12-style
        instruction sequences through the exact production path regardless of
        the interpreter running the test-suite.
        """
        if not instructions:
            return cls(name, [], code)

        # -- leader analysis ------------------------------------------- #
        leaders: Set[int] = {instructions[0].offset}
        for position, instr in enumerate(instructions):
            if _is_jump(instr) and isinstance(instr.argval, int):
                leaders.add(instr.argval)
            ends_block = instr.opname in _NO_FALLTHROUGH or _is_jump(instr)
            if ends_block and position + 1 < len(instructions):
                leaders.add(instructions[position + 1].offset)

        # -- carve the blocks ------------------------------------------ #
        blocks: List[BasicBlock] = []
        current: Optional[BasicBlock] = None
        for instr in instructions:
            if instr.offset in leaders or current is None:
                current = BasicBlock(index=len(blocks), offset=instr.offset)
                blocks.append(current)
            current.instructions.append(instr)

        offset_to_index = {block.offset: block.index for block in blocks}

        # -- successor edges and line coverage ------------------------- #
        for block in blocks:
            term = block.terminator
            succs: List[int] = []
            if term is not None:
                jumps = _is_jump(term)
                if jumps and isinstance(term.argval, int):
                    target = offset_to_index.get(term.argval)
                    if target is not None:
                        succs.append(target)
                falls_through = term.opname not in _NO_FALLTHROUGH
                if falls_through and block.index + 1 < len(blocks):
                    nxt = blocks[block.index + 1].index
                    if nxt not in succs:
                        succs.append(nxt)
            block.successors = succs

            lines = {
                line
                for line in (instruction_line(i) for i in block.instructions)
                if line is not None
            }
            block.lines = tuple(sorted(lines))

        return cls(name, blocks, code)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def entry(self) -> BasicBlock:
        """The entry block (first in offset order)."""
        if not self.blocks:
            raise ValueError(f"CFG {self.name!r} is empty")
        return self.blocks[0]

    def predecessors(self) -> List[List[int]]:
        """Predecessor lists, derived from the successor edges."""
        preds: List[List[int]] = [[] for _ in self.blocks]
        for block in self.blocks:
            for succ in block.successors:
                preds[succ].append(block.index)
        return preds

    def describe(self) -> str:
        """Multi-line human summary of the whole CFG."""
        header = f"cfg {self.name}: {len(self.blocks)} block(s)"
        return "\n".join([header] + [f"  {b.describe()}" for b in self.blocks])


FunctionLike = Union[Callable, types.CodeType]


def build_cfg(target: FunctionLike) -> ControlFlowGraph:
    """Build a :class:`ControlFlowGraph` from a function or code object."""
    if isinstance(target, types.CodeType):
        return ControlFlowGraph.from_code(target)
    return ControlFlowGraph.from_function(target)
