"""Reproduction of "Polynomial-Time Subgraph Enumeration for Automated
Instruction Set Extension" (Bonzini & Pozzi, DATE 2007).

Top-level convenience API::

    from repro import DFGBuilder, Constraints, enumerate_cuts

    builder = DFGBuilder("example")
    a, b = builder.inputs("a", "b")
    t = builder.add(a, b)
    out = builder.xor(t, b, live_out=True)
    graph = builder.build()

    result = enumerate_cuts(graph, Constraints(max_inputs=4, max_outputs=2))
    for cut in result:
        print(cut.describe())

Sub-packages
------------
``repro.dfg``
    Data-flow graph substrate (graphs, opcodes, augmentation, reachability).
``repro.dominators``
    The single-pass DAG dominator kernel, comparability rows,
    multiple-vertex dominators.
``repro.core``
    The paper's contribution: polynomial-time convex-cut enumeration.
``repro.baselines``
    Pruned exhaustive search [15], brute-force oracle, connected-only search.
``repro.engine``
    Unified engine: pluggable algorithm registry + parallel batch runner.
``repro.ise``
    Custom-instruction merit estimation and selection.
``repro.workloads``
    Synthetic MiBench-like basic blocks, hand-written kernels, tree worst cases.
``repro.analysis``
    Runtime comparison harness and report generation.
``repro.memo``
    Canonical-form memoization: DFG canonicalization and a persistent
    content-addressed result store that serves every isomorph of a block.
``repro.frontend``
    Compiler frontend: Python bytecode → CFG → DFG ingestion with
    line-event profiling and a bundled pure-Python kernel corpus.
"""

from .baselines import (
    enumerate_connected_cuts,
    enumerate_cuts_brute_force,
    enumerate_cuts_exhaustive,
)
from .core import (
    FULL_PRUNING,
    NO_PRUNING,
    PAPER_DEFAULT_CONSTRAINTS,
    Constraints,
    Cut,
    EnumerationContext,
    EnumerationResult,
    EnumerationStats,
    PruningConfig,
    enumerate_cuts,
    enumerate_cuts_basic,
    enumerate_with_recovery,
)
from .dfg import DataFlowGraph, DFGBuilder, Opcode
from .engine import (
    BatchReport,
    BatchRunner,
    EnumerationRequest,
    available_algorithms,
    enumerate_batch,
    get_algorithm,
    register_algorithm,
)
from .memo import (
    CanonicalForm,
    ResultStore,
    canonical_form,
    canonical_hash,
)

__version__ = "1.0.0"

__all__ = [
    "Constraints",
    "Cut",
    "EnumerationContext",
    "EnumerationResult",
    "EnumerationStats",
    "FULL_PRUNING",
    "NO_PRUNING",
    "PAPER_DEFAULT_CONSTRAINTS",
    "PruningConfig",
    "enumerate_cuts",
    "enumerate_cuts_basic",
    "enumerate_with_recovery",
    "enumerate_connected_cuts",
    "enumerate_cuts_brute_force",
    "enumerate_cuts_exhaustive",
    "BatchReport",
    "BatchRunner",
    "EnumerationRequest",
    "available_algorithms",
    "enumerate_batch",
    "get_algorithm",
    "register_algorithm",
    "CanonicalForm",
    "ResultStore",
    "canonical_form",
    "canonical_hash",
    "DataFlowGraph",
    "DFGBuilder",
    "Opcode",
    "__version__",
]
