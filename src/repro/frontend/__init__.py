"""Compiler frontend: Python bytecode → CFG → DFG ingestion with profiling.

Turns plain Python functions into ISE-ready workloads, reproducing the
"compiler toolchain" half of the paper's story on programs users actually
write:

``repro.frontend.cfg``
    Bytecode decode (:mod:`dis`) and basic-block recovery (leader analysis,
    successor edges, source-line coverage).
``repro.frontend.dfg_from_bytecode``
    Abstract operand-stack interpretation of each block, emitting
    :class:`~repro.dfg.graph.DataFlowGraph` objects on the existing opcode
    vocabulary; unsupported operations become opaque barriers, never errors.
``repro.frontend.profile``
    ``sys.monitoring`` / ``sys.settrace`` line-event profiling, attributing
    execution counts to basic blocks.
``repro.frontend.corpus``
    ~10 bundled pure-Python reference kernels compiled into a persistable
    :class:`~repro.workloads.suite.WorkloadSuite`.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".cfg": ("BasicBlock", "ControlFlowGraph", "build_cfg"),
        ".corpus": (
            "CORPUS",
            "STRAIGHT_LINE_KERNELS",
            "CorpusKernel",
            "build_corpus_suite",
            "corpus_block_profiles",
            "corpus_names",
            "profile_kernel",
        ),
        ".dfg_from_bytecode": (
            "BlockTranslator",
            "FunctionDFGs",
            "TranslatedBlock",
            "function_to_dfgs",
            "graph_for_function",
            "translate_block",
        ),
        ".loader": (
            "SourceResolutionError",
            "functions_in_module",
            "load_module",
            "resolve_functions",
            "split_target",
        ),
        ".profile": (
            "LineCounts",
            "ProfiledFunction",
            "attribute_to_blocks",
            "collect_line_counts",
            "profile_function",
            "static_profile",
        ),
    },
)
