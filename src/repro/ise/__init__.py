"""Instruction-set-extension layer built on top of the enumeration core.

Latency models, cut merit (speedup) estimation, greedy/density-based selection
of non-overlapping custom instructions, and the end-to-end identification
pipeline that the paper's compiler toolchain uses the enumeration for.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".isa": ("CustomInstruction", "InstructionSetExtension", "make_instruction"),
        ".latency": (
            "DEFAULT_LATENCY_MODEL",
            "LatencyModel",
            "cut_area",
            "total_software_cycles",
        ),
        ".pipeline": (
            "BlockProfile",
            "BlockResult",
            "PipelineResult",
            "identify_instruction_set_extension",
        ),
        ".selection": (
            "SelectionConfig",
            "is_disjoint_selection",
            "select_cuts",
            "selection_covers",
        ),
        ".speedup": ("ScoredCut", "estimate_block_speedup", "score_cut", "score_cuts"),
    },
)
