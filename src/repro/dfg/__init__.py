"""Data-flow graph substrate.

This package provides everything needed to model a basic block as the paper
does: the vertex/opcode model, the :class:`DataFlowGraph` container, the
rooted augmentation with artificial source/sink, reachability precomputation
(including the ``B(V, w)`` primitive of Definition 6), construction helpers,
validation, and DOT/JSON interchange.
"""

from .. import _lazy_exports
# ``augment`` is also the name of its submodule: bind the function now, or
# the first import of ``repro.dfg.augment`` binds the module in its place.
from .augment import augment

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".augment": ("AugmentedDFG", "augment"),
        ".builder": ("DFGBuilder", "diamond", "linear_chain"),
        ".dot": ("from_dot", "to_dot"),
        ".graph": ("DataFlowGraph", "GraphStructureError"),
        ".node": ("DFGNode",),
        ".opcodes": (
            "ALWAYS_FORBIDDEN_OPCODES",
            "DEFAULT_FORBIDDEN_OPCODES",
            "Opcode",
            "OpcodeClass",
            "OpcodeInfo",
            "all_operation_opcodes",
            "area_cost",
            "hardware_latency",
            "is_forbidden_by_default",
            "is_memory",
            "opcode_info",
            "software_latency",
        ),
        ".reachability": (
            "ReachabilityIndex",
            "ReachabilityInfo",
            "ids_from_mask",
            "iterate_mask",
            "mask_from_ids",
            "popcount",
        ),
        ".serialization": ("dumps", "graph_from_dict", "graph_to_dict", "load", "loads", "save"),
        ".validate": ("ValidationError", "ValidationReport", "validate_graph"),
    },
)
