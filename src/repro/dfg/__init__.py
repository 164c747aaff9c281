"""Data-flow graph substrate.

This package provides everything needed to model a basic block as the paper
does: the vertex/opcode model, the :class:`DataFlowGraph` container, the
rooted augmentation with artificial source/sink, reachability precomputation
(including the ``B(V, w)`` primitive of Definition 6), construction helpers,
validation, and DOT/JSON interchange.
"""

from .augment import AugmentedDFG, augment
from .builder import DFGBuilder, diamond, linear_chain
from .dot import from_dot, to_dot
from .graph import DataFlowGraph, GraphStructureError
from .node import DFGNode
from .opcodes import (
    ALWAYS_FORBIDDEN_OPCODES,
    DEFAULT_FORBIDDEN_OPCODES,
    Opcode,
    OpcodeClass,
    OpcodeInfo,
    all_operation_opcodes,
    area_cost,
    hardware_latency,
    is_forbidden_by_default,
    is_memory,
    opcode_info,
    software_latency,
)
from .reachability import (
    ReachabilityIndex,
    ReachabilityInfo,
    ids_from_mask,
    iterate_mask,
    mask_from_ids,
    popcount,
)
from .serialization import (
    dumps,
    graph_from_dict,
    graph_to_dict,
    load,
    loads,
    save,
)
from .validate import ValidationError, ValidationReport, validate_graph

__all__ = [
    "AugmentedDFG",
    "augment",
    "DFGBuilder",
    "diamond",
    "linear_chain",
    "from_dot",
    "to_dot",
    "DataFlowGraph",
    "GraphStructureError",
    "DFGNode",
    "Opcode",
    "OpcodeClass",
    "OpcodeInfo",
    "ALWAYS_FORBIDDEN_OPCODES",
    "DEFAULT_FORBIDDEN_OPCODES",
    "all_operation_opcodes",
    "area_cost",
    "hardware_latency",
    "is_forbidden_by_default",
    "is_memory",
    "opcode_info",
    "software_latency",
    "ReachabilityIndex",
    "ReachabilityInfo",
    "ids_from_mask",
    "iterate_mask",
    "mask_from_ids",
    "popcount",
    "dumps",
    "loads",
    "save",
    "load",
    "graph_to_dict",
    "graph_from_dict",
    "ValidationError",
    "ValidationReport",
    "validate_graph",
]
