"""Pluggable enumeration-algorithm registry.

Every enumerator in the library — the two polynomial algorithms of the paper,
the pruned exhaustive baseline, the brute-force oracle and the connected-only
search — answers the same question ("which convex cuts of this basic block
satisfy the constraints?") behind a different function signature.  This module
puts them behind one interface:

* :class:`EnumerationRequest` — everything an enumeration run needs (graph,
  constraints, optional pruning configuration, optional pre-built context);
* :class:`RegisteredAlgorithm` — a named algorithm with
  :class:`AlgorithmCapabilities` describing what it supports;
* :func:`register_algorithm` / :func:`get_algorithm` /
  :func:`available_algorithms` — the registry proper.

The five built-in algorithms are registered at import time; downstream code
(CLI ``--algorithm`` flags, the batch runner, the comparison harness) resolves
algorithms exclusively through this registry, so a new enumerator becomes
visible everywhere by registering it once.

Note that worker processes of the batch runner re-import this module, so only
algorithms registered at module import time (such as the built-ins) are
available for parallel batch runs; dynamically registered algorithms work in
in-process runs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.brute_force import MAX_CANDIDATES, enumerate_cuts_brute_force
from ..baselines.connected_only import enumerate_connected_cuts
from ..baselines.exhaustive import enumerate_cuts_exhaustive
from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.enumeration import enumerate_cuts_basic
from ..core.incremental import enumerate_cuts
from ..core.pruning import FULL_PRUNING, PruningConfig
from ..core.stats import EnumerationResult
from ..dfg.graph import DataFlowGraph

#: The algorithm used when callers do not ask for a specific one: the
#: incremental polynomial algorithm the paper benchmarks.
DEFAULT_ALGORITHM = "poly-enum-incremental"

#: Semantics labels describing which cut population an algorithm targets.
#: ``all-valid`` algorithms return the identical, complete cut set on every
#: graph (the equivalence test-suite asserts this).  ``paper-enumerable``
#: algorithms report every input/output-identified cut the paper's
#: construction reaches and may report further valid cuts: the tests assert
#: ``paper-enumerable ⊆ result ⊆ all-valid`` (``tests/test_core_oracle.py``),
#: not equality, and the two polynomial variants may differ on a few
#: borderline cuts (``tests/test_perf_core.py``).  ``connected`` restricts to
#: connected bodies.  Every algorithm's result is a subset of ``all-valid``.
SEMANTICS_PAPER = "paper-enumerable"
SEMANTICS_ALL_VALID = "all-valid"
SEMANTICS_CONNECTED = "connected"


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """What a registered algorithm supports.

    Attributes
    ----------
    supports_pruning:
        The algorithm honours a :class:`PruningConfig`; passing one to an
        algorithm without this flag is an error.
    supports_context:
        The algorithm accepts a pre-built :class:`EnumerationContext` (built
        with the same graph and constraints).  Algorithms that internally
        rewrite the constraints (the connected-only search) do not.
    oracle_only:
        Exponential-time ground truth, usable only on small graphs; skipped
        by harnesses that run "every practical algorithm".
    max_candidate_nodes:
        Hard limit on the number of candidate vertices, or ``None``.
    semantics:
        Which cut set the algorithm enumerates (see the ``SEMANTICS_*``
        constants).  A ``paper-enumerable`` result holds every
        paper-enumerable cut and is a subset of ``all-valid``;
        ``connected`` is the subset of ``all-valid`` with connected bodies.
    """

    supports_pruning: bool = False
    supports_context: bool = True
    oracle_only: bool = False
    max_candidate_nodes: Optional[int] = None
    semantics: str = SEMANTICS_PAPER


@dataclass(frozen=True)
class EnumerationRequest:
    """One enumeration job: a basic block plus how to enumerate it."""

    graph: DataFlowGraph
    constraints: Optional[Constraints] = None
    pruning: Optional[PruningConfig] = None
    context: Optional[EnumerationContext] = None


#: Adapter signature every registered algorithm is wrapped into.
RunCallable = Callable[[EnumerationRequest], EnumerationResult]


@dataclass(frozen=True)
class RegisteredAlgorithm:
    """A named enumeration algorithm with capability metadata.

    Instances satisfy the informal ``Enumerator`` protocol: a ``name``,
    ``capabilities``, and an ``enumerate(request)`` method returning an
    :class:`EnumerationResult`.
    """

    name: str
    run: RunCallable
    capabilities: AlgorithmCapabilities = field(default_factory=AlgorithmCapabilities)
    description: str = ""
    aliases: Tuple[str, ...] = ()

    def enumerate(self, request: EnumerationRequest) -> EnumerationResult:
        """Run the algorithm on *request*, enforcing the capability flags."""
        if request.pruning is not None and not self.capabilities.supports_pruning:
            raise ValueError(
                f"algorithm {self.name!r} does not support a pruning configuration"
            )
        if not self.capabilities.supports_context and request.context is not None:
            request = EnumerationRequest(
                graph=request.graph,
                constraints=request.constraints,
                pruning=request.pruning,
            )
        return self.run(request)

    def __call__(
        self,
        graph: DataFlowGraph,
        constraints: Optional[Constraints] = None,
        pruning: Optional[PruningConfig] = None,
        context: Optional[EnumerationContext] = None,
    ) -> EnumerationResult:
        """Convenience: build the request from keyword arguments and run it."""
        return self.enumerate(
            EnumerationRequest(
                graph=graph,
                constraints=constraints,
                pruning=pruning,
                context=context,
            )
        )


_REGISTRY: Dict[str, RegisteredAlgorithm] = {}
_ALIASES: Dict[str, str] = {}


def register_algorithm(
    name: str,
    run: RunCallable,
    capabilities: Optional[AlgorithmCapabilities] = None,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> RegisteredAlgorithm:
    """Register an enumeration algorithm under *name* (and optional aliases).

    Raises ``ValueError`` if the name or an alias is already taken, unless
    *replace* is set.
    """
    algorithm = RegisteredAlgorithm(
        name=name,
        run=run,
        capabilities=capabilities or AlgorithmCapabilities(),
        description=description,
        aliases=tuple(aliases),
    )
    taken = [
        label
        for label in (name, *algorithm.aliases)
        if label in _REGISTRY or label in _ALIASES
    ]
    if taken and not replace:
        raise ValueError(f"algorithm name(s) already registered: {', '.join(taken)}")
    if replace:
        for label in taken:
            canonical = _ALIASES.pop(label, label)
            _REGISTRY.pop(canonical, None)
            for alias, target in list(_ALIASES.items()):
                if target == canonical:
                    del _ALIASES[alias]
    _REGISTRY[name] = algorithm
    for alias in algorithm.aliases:
        _ALIASES[alias] = name
    return algorithm


def unregister_algorithm(name: str) -> None:
    """Remove an algorithm (and its aliases) from the registry."""
    canonical = resolve_algorithm_name(name)
    del _REGISTRY[canonical]
    for alias, target in list(_ALIASES.items()):
        if target == canonical:
            del _ALIASES[alias]


def resolve_algorithm_name(name: str) -> str:
    """Canonical registry name for *name* (which may be an alias)."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise KeyError(
        f"unknown enumeration algorithm {name!r}; "
        f"available: {', '.join(available_algorithms())}"
    )


def get_algorithm(name: str) -> RegisteredAlgorithm:
    """Look up an algorithm by canonical name or alias."""
    return _REGISTRY[resolve_algorithm_name(name)]


def available_algorithms(include_oracles: bool = True) -> List[str]:
    """Sorted canonical names of the registered algorithms."""
    return sorted(
        name
        for name, algorithm in _REGISTRY.items()
        if include_oracles or not algorithm.capabilities.oracle_only
    )


def algorithm_aliases() -> Dict[str, str]:
    """Mapping of every registered alias to its canonical name."""
    return dict(_ALIASES)


# --------------------------------------------------------------------------- #
# Built-in algorithms
# --------------------------------------------------------------------------- #
def _run_incremental(request: EnumerationRequest) -> EnumerationResult:
    return enumerate_cuts(
        request.graph,
        request.constraints,
        pruning=request.pruning or FULL_PRUNING,
        context=request.context,
    )


def _run_basic(request: EnumerationRequest) -> EnumerationResult:
    return enumerate_cuts_basic(request.graph, request.constraints, context=request.context)


def _run_exhaustive(request: EnumerationRequest) -> EnumerationResult:
    return enumerate_cuts_exhaustive(
        request.graph, request.constraints, context=request.context
    )


def _run_brute_force(request: EnumerationRequest) -> EnumerationResult:
    return enumerate_cuts_brute_force(
        request.graph, request.constraints, context=request.context
    )


def _run_connected(request: EnumerationRequest) -> EnumerationResult:
    return enumerate_connected_cuts(request.graph, request.constraints)


register_algorithm(
    DEFAULT_ALGORITHM,
    _run_incremental,
    AlgorithmCapabilities(supports_pruning=True, semantics=SEMANTICS_PAPER),
    description="Incremental polynomial algorithm (Figure 3) with Section 5.3 prunings",
    aliases=("poly", "incremental"),
)
register_algorithm(
    "poly-enum-basic",
    _run_basic,
    AlgorithmCapabilities(semantics=SEMANTICS_PAPER),
    description="Reference polynomial algorithm (Figure 2)",
    aliases=("basic",),
)
register_algorithm(
    "exhaustive",
    _run_exhaustive,
    AlgorithmCapabilities(semantics=SEMANTICS_ALL_VALID),
    description="Pruned exhaustive search in the style of Atasu/Pozzi/Ienne [4][15]",
    aliases=("exhaustive-pruned", "exhaustive-[15]"),
)
register_algorithm(
    "brute-force",
    _run_brute_force,
    AlgorithmCapabilities(
        oracle_only=True,
        max_candidate_nodes=MAX_CANDIDATES,
        semantics=SEMANTICS_ALL_VALID,
    ),
    description="Exponential subset oracle (ground truth for small graphs)",
    aliases=("oracle",),
)
register_algorithm(
    "connected-only",
    _run_connected,
    AlgorithmCapabilities(supports_context=False, semantics=SEMANTICS_CONNECTED),
    description="Connected-cut enumeration (Yu & Mitra [17] style restriction)",
    aliases=("connected",),
)
