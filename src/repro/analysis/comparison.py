"""Algorithm comparison harness (the machinery behind Figure 5).

Runs a set of enumeration algorithms over a workload suite, collecting wall
clock time, machine-independent work counters (dominator-kernel runs for
the polynomial algorithm, explored search-tree nodes for the exhaustive one)
and the number of cuts found, and produces the per-block records that the
Figure 5 scatter plot and the scaling tables are generated from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..baselines.exhaustive import enumerate_cuts_exhaustive
from ..core.constraints import Constraints
from ..core.incremental import enumerate_cuts
from ..core.stats import EnumerationResult
from ..dfg.graph import DataFlowGraph
from ..engine.batch import BatchItem, BatchRunner, resolve_jobs
from ..engine.registry import (
    EnumerationRequest,
    available_algorithms,
    get_algorithm,
)
from ..memo.store import ResultStore

#: Signature of an algorithm entry: (graph, constraints) -> EnumerationResult.
AlgorithmCallable = Callable[[DataFlowGraph, Constraints], EnumerationResult]


@dataclass
class AlgorithmEntry:
    """One algorithm participating in a comparison.

    ``registry_name`` is set when the entry wraps a registered algorithm;
    only such entries can run in worker processes (``jobs >= 2``), because an
    arbitrary ``run`` callable cannot be shipped to another process.
    """

    name: str
    run: AlgorithmCallable
    registry_name: Optional[str] = None


@dataclass
class BlockMeasurement:
    """Measurements of one algorithm on one basic block."""

    graph_name: str
    algorithm: str
    num_operations: int
    num_edges: int
    cuts_found: int
    elapsed_seconds: float
    work_units: int
    cluster: str = ""


@dataclass
class ComparisonReport:
    """All measurements of a comparison run."""

    constraints: Constraints
    measurements: List[BlockMeasurement] = field(default_factory=list)

    def algorithms(self) -> List[str]:
        """Names of the algorithms that were measured."""
        return sorted({m.algorithm for m in self.measurements})

    def for_algorithm(self, name: str) -> List[BlockMeasurement]:
        """Measurements of one algorithm, in workload order."""
        return [m for m in self.measurements if m.algorithm == name]

    def paired(self, first: str, second: str) -> List[Dict[str, object]]:
        """Per-block pairing of two algorithms (the Figure 5 scatter points)."""
        by_graph_first = {m.graph_name: m for m in self.for_algorithm(first)}
        rows = []
        for measurement in self.for_algorithm(second):
            partner = by_graph_first.get(measurement.graph_name)
            if partner is None:
                continue
            rows.append(
                {
                    "graph": measurement.graph_name,
                    "cluster": measurement.cluster,
                    "num_operations": measurement.num_operations,
                    f"{first}_seconds": partner.elapsed_seconds,
                    f"{second}_seconds": measurement.elapsed_seconds,
                    f"{first}_cuts": partner.cuts_found,
                    f"{second}_cuts": measurement.cuts_found,
                    "speed_ratio": (
                        measurement.elapsed_seconds / partner.elapsed_seconds
                        if partner.elapsed_seconds > 0
                        else float("inf")
                    ),
                }
            )
        return rows


def algorithms_from_registry(
    names: Optional[Sequence[str]] = None,
    include_oracles: bool = False,
) -> List[AlgorithmEntry]:
    """Build comparison entries from the engine's algorithm registry.

    Parameters
    ----------
    names:
        Registry names (or aliases) to include, in order.  ``None`` selects
        every registered algorithm, skipping exponential oracles unless
        *include_oracles* is set.
    """
    selected = (
        list(names)
        if names is not None
        else available_algorithms(include_oracles=include_oracles)
    )
    entries = []
    for name in selected:
        algorithm = get_algorithm(name)
        entries.append(
            AlgorithmEntry(
                name=algorithm.name,
                run=lambda g, c, _algo=algorithm: _algo.enumerate(
                    EnumerationRequest(graph=g, constraints=c)
                ),
                registry_name=algorithm.name,
            )
        )
    return entries


def default_algorithms() -> List[AlgorithmEntry]:
    """The two algorithms Figure 5 compares: this paper's vs. the [15]-style baseline."""
    return algorithms_from_registry(("poly-enum-incremental", "exhaustive"))


def _work_units(result: EnumerationResult) -> int:
    """Machine-independent work counter of a result.

    For the polynomial algorithm this is dominated by the dominator-kernel
    runs (``lt_calls``) plus the candidate checks; for the exhaustive search
    it is the number of explored search-tree nodes (stored in
    ``pick_output_calls``).
    Both counters grow proportionally to the run time of their algorithm, so
    they allow a platform-independent comparison of the growth *shape*.
    """
    stats = result.stats
    return stats.lt_calls + stats.candidates_checked + stats.pick_output_calls


def compare_on_suite(
    graphs: Iterable[DataFlowGraph],
    constraints: Optional[Constraints] = None,
    algorithms: Optional[Sequence[AlgorithmEntry]] = None,
    cluster_of: Optional[Callable[[DataFlowGraph], str]] = None,
    repeat: int = 1,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
    store: Optional[ResultStore] = None,
    progress=None,
) -> ComparisonReport:
    """Run every algorithm on every graph of the suite and collect measurements.

    Parameters
    ----------
    graphs:
        The workload suite.
    constraints:
        I/O constraints (defaults to the paper's Nin=4, Nout=2).
    algorithms:
        Algorithms to compare; defaults to :func:`default_algorithms`.
    cluster_of:
        Optional function labelling each graph with a size cluster.
    repeat:
        Number of timed repetitions per (graph, algorithm); the minimum time
        is reported, as is customary for micro-benchmarks.  Only honoured by
        the direct path (``jobs == 1``, no store, no timeout); the
        batch-runner path measures each block once.
    jobs:
        Number of worker processes per algorithm (an integer, or ``"auto"``
        for the machine's CPU count).  Parallel runs require
        every entry to come from the registry
        (:func:`algorithms_from_registry`), and report the wall-clock time
        measured inside the worker.
    timeout:
        Optional per-block budget in seconds, charged from the block's start
        (queue wait is excluded).  Routes the comparison through the batch
        runner, at any ``jobs``; a block that passes it, like one whose
        enumeration raised, raises ``RuntimeError`` (a comparison with
        missing points is meaningless).
    store:
        Optional persistent memoization store.  Routes the comparison through
        the batch runner (registry-backed entries only, like ``jobs > 1``);
        cache hits report their lookup time, so a warm comparison measures
        the memoized path.
    progress:
        Optional per-block callback ``progress(item, completed, total)``,
        invoked as each block's enumeration finishes.  Batch-runner
        comparisons (``jobs > 1``, a store or a timeout) report per
        algorithm with ``total = len(graphs)``; the direct sequential path
        reports each (graph, algorithm) measurement with ``total =
        len(graphs) * len(algorithms)``.
    """
    graphs = list(graphs)
    constraints = constraints or Constraints(max_inputs=4, max_outputs=2)
    algorithms = list(algorithms or default_algorithms())
    report = ComparisonReport(constraints=constraints)
    jobs = resolve_jobs(jobs)

    if jobs > 1 or store is not None or timeout is not None:
        unsupported = [e.name for e in algorithms if e.registry_name is None]
        if unsupported:
            raise ValueError(
                "parallel, store-backed or timed comparison requires registry-backed "
                f"algorithm entries; not in the registry: {', '.join(unsupported)}"
            )
        for entry in algorithms:
            with BatchRunner(
                algorithm=entry.registry_name,
                constraints=constraints,
                jobs=jobs,
                timeout=timeout,
                store=store,
            ) as runner:
                report_items = runner.run(graphs, progress=progress).items
            for item in report_items:
                if not item.ok:
                    raise RuntimeError(
                        f"algorithm {entry.name!r} failed on block "
                        f"{item.graph_name!r}: {item.error or 'timed out'}"
                    )
                report.measurements.append(
                    BlockMeasurement(
                        graph_name=item.graph_name,
                        algorithm=entry.name,
                        num_operations=len(item.graph.operation_nodes()),
                        num_edges=item.graph.num_edges,
                        cuts_found=len(item.result),
                        elapsed_seconds=item.elapsed_seconds,
                        work_units=_work_units(item.result),
                        cluster=cluster_of(item.graph) if cluster_of else "",
                    )
                )
        return report

    completed = 0
    total = len(graphs) * len(algorithms)
    for graph_index, graph in enumerate(graphs):
        cluster = cluster_of(graph) if cluster_of else ""
        for entry in algorithms:
            best_elapsed = None
            last_result: Optional[EnumerationResult] = None
            for _ in range(max(1, repeat)):
                start = time.perf_counter()
                last_result = entry.run(graph, constraints)
                elapsed = time.perf_counter() - start
                if best_elapsed is None or elapsed < best_elapsed:
                    best_elapsed = elapsed
            assert last_result is not None and best_elapsed is not None
            completed += 1
            if progress is not None:
                progress(
                    BatchItem(
                        index=graph_index,
                        graph=graph,
                        graph_name=graph.name,
                        result=last_result,
                        elapsed_seconds=best_elapsed,
                    ),
                    completed,
                    total,
                )
            report.measurements.append(
                BlockMeasurement(
                    graph_name=graph.name,
                    algorithm=entry.name,
                    num_operations=len(graph.operation_nodes()),
                    num_edges=graph.num_edges,
                    cuts_found=len(last_result),
                    elapsed_seconds=best_elapsed,
                    work_units=_work_units(last_result),
                    cluster=cluster,
                )
            )
    return report


def agreement_check(
    graphs: Iterable[DataFlowGraph],
    constraints: Optional[Constraints] = None,
) -> List[str]:
    """Verify that the polynomial and exhaustive enumerators agree on a suite.

    Returns the names of graphs where the polynomial algorithm's cut set is
    not a subset of the exhaustive one (which would indicate a soundness bug);
    the empty list means full agreement.  Used by integration tests and by the
    benchmark harness as a self-check.
    """
    constraints = constraints or Constraints(max_inputs=4, max_outputs=2)
    mismatches = []
    for graph in graphs:
        poly = enumerate_cuts(graph, constraints).node_sets()
        exhaustive = enumerate_cuts_exhaustive(graph, constraints).node_sets()
        if not poly <= exhaustive:
            mismatches.append(graph.name)
    return mismatches
