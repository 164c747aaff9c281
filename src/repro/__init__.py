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

Every exported name loads with its defining module on first use, so
``import repro`` loads no submodule (see :func:`_lazy_exports`).

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

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Tuple


def _lazy_exports(
    namespace: Dict[str, Any], modules: Mapping[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package whose
    public names load with their defining module on first use (PEP 562).

    *namespace* is the package's ``globals()``; *modules* maps each
    defining module, relative to the package, to the names it exports.
    The first lookup of a name imports its module and binds the name in
    *namespace*, so later lookups are plain attribute reads.  A name that
    is also a submodule's name must be bound eagerly instead: importing the
    submodule anywhere binds the package attribute to the module.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin})

    return list(origin), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".core.constraints": ("Constraints", "PAPER_DEFAULT_CONSTRAINTS"),
        ".core.cut": ("Cut",),
        ".core.context": ("EnumerationContext",),
        ".core.stats": ("EnumerationResult", "EnumerationStats"),
        ".core.pruning": ("FULL_PRUNING", "NO_PRUNING", "PruningConfig"),
        ".core.incremental": ("enumerate_cuts",),
        ".core.enumeration": ("enumerate_cuts_basic",),
        ".core.recovery": ("enumerate_with_recovery",),
        ".baselines.connected_only": ("enumerate_connected_cuts",),
        ".baselines.brute_force": ("enumerate_cuts_brute_force",),
        ".baselines.exhaustive": ("enumerate_cuts_exhaustive",),
        ".engine.batch": ("BatchReport", "BatchRunner", "enumerate_batch"),
        ".engine.registry": (
            "EnumerationRequest",
            "available_algorithms",
            "get_algorithm",
            "register_algorithm",
        ),
        ".memo.canon": ("CanonicalForm", "canonical_form", "canonical_hash"),
        ".memo.store": ("ResultStore",),
        ".dfg.graph": ("DataFlowGraph",),
        ".dfg.builder": ("DFGBuilder",),
        ".dfg.opcodes": ("Opcode",),
    },
)
__all__.append("__version__")
