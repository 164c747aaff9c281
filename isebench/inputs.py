"""Workload inputs and the correctness oracle of the ISE benchmark.

A workload is a list of profiled basic blocks sent through the library's
public ISE pipeline.  Set-up builds the blocks from the run's seed and, on
the warm-store workload, fills the store; the oracle every pass is checked
against is computed apart from it.  None of it is timed as part of a pass.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

from repro import (
    Constraints,
    DataFlowGraph,
    EnumerationContext,
    ResultStore,
    enumerate_cuts,
    enumerate_cuts_exhaustive,
)
from repro.core.validity import check_cut_mask
from repro.engine.batch import BatchItem
from repro.frontend import corpus_block_profiles
from repro.ise import (
    BlockProfile,
    PipelineResult,
    SelectionConfig,
    identify_instruction_set_extension,
    is_disjoint_selection,
)
from repro.workloads.kernels import KERNEL_FACTORIES
from repro.workloads.mibench_like import SuiteConfig, build_suite
from repro.workloads.synthetic import generate_suite
from repro.workloads.trees import tree_dfg

#: The paper's constraints (Nin=4, Nout=2); the algorithm is the registry default.
CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)

#: `repro ise` defaults: at most four instructions, 1000 executions per block.
SELECTION = SelectionConfig(max_instructions=4)
EXECUTION_COUNT = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Worker processes of the pipeline's BatchRunner (1 = in-process).
    jobs: int
    #: Blocks come from the Python frontend inside every pass.
    frontend: bool = False
    #: A ResultStore filled in set-up serves every block of every pass.
    warm_store: bool = False


def _synthetic_large(rng: random.Random) -> List[DataFlowGraph]:
    """Synthetic blocks of 30, 40 and 50 ops (seeded) plus the depth-5 tree."""
    return [relabel(g, rng) for g in generate_suite((30, 40, 50))] + [tree_dfg(5)]


def _mibench_pool(rng: random.Random) -> List[DataFlowGraph]:
    """The 11 hand-written kernels plus 16 synthetic blocks of 10-32 ops (seeded)."""
    kernels = [KERNEL_FACTORIES[name]() for name in sorted(KERNEL_FACTORIES)]
    synthetic = build_suite(
        SuiteConfig(
            num_blocks=16,
            min_operations=10,
            max_operations=32,
            include_kernels=False,
            include_trees=False,
        )
    )
    return kernels + [relabel(g, rng) for g in synthetic]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("corpus_ise", jobs=1, frontend=True),
        Workload("synthetic_large", jobs=1),
        Workload("mibench_pool", jobs=2),
        Workload("corpus_warm_store", jobs=1, frontend=True, warm_store=True),
    )
}

_SEEDED: Dict[str, Callable[[random.Random], List[DataFlowGraph]]] = {
    "synthetic_large": _synthetic_large,
    "mibench_pool": _mibench_pool,
}


def relabel(graph: DataFlowGraph, rng: random.Random) -> DataFlowGraph:
    """An isomorphic copy of *graph* whose vertices are numbered in a random
    topological order drawn from *rng*.

    The block shape stays fixed while the vertex numbering, and with it every
    id-ordered choice the search makes, depends on the seed.
    """
    pending = {v: len(graph.predecessors(v)) for v in graph.node_ids()}
    ready = [v for v, count in pending.items() if count == 0]
    clone = DataFlowGraph(name=graph.name)
    new_id: Dict[int, int] = {}
    while ready:
        vertex = ready.pop(rng.randrange(len(ready)))
        node = graph.node(vertex)
        new_id[vertex] = clone.add_node(
            node.opcode,
            name=node.name,
            forbidden=node.forbidden,
            live_out=node.live_out,
            **node.attributes,
        )
        for pred in graph.predecessors(vertex):
            clone.add_edge(new_id[pred], new_id[vertex])
        for succ in graph.successors(vertex):
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.append(succ)
    return clone


def build_blocks(workload: Workload, seed: int) -> List[BlockProfile]:
    """The workload's blocks for *seed*, as `repro ise` would receive them."""
    if workload.frontend:
        return corpus_block_profiles()
    rng = random.Random(f"{workload.name}:{seed}")
    return [BlockProfile(graph, EXECUTION_COUNT) for graph in _SEEDED[workload.name](rng)]


@dataclass
class BlockOracle:
    """What one block's pass output must satisfy."""

    name: str
    structural_hash: str
    context: EnumerationContext
    #: Node masks of every valid cut (the exhaustive baseline, proven equal
    #: to brute force).
    exhaustive: Set[int]
    #: Warm-store workload: the node masks of a fresh enumeration, which the
    #: stored results must equal.
    fresh: Optional[Set[int]] = None


@dataclass
class Prepared:
    """One set-up: the blocks, the filled store, if any, and the oracle."""

    workload: Workload
    blocks: List[BlockProfile]
    store_dir: Optional[Path] = None
    oracle: List[BlockOracle] = field(default_factory=list)
    #: Time of the exhaustive enumerations the oracle is built from.
    exhaustive_s: float = 0.0

    def pass_blocks(self) -> Optional[List[BlockProfile]]:
        """Cold copies of the blocks for one pass (no cached hashes or
        topological orders), or ``None`` when the pass runs the frontend."""
        if self.workload.frontend:
            return None
        return [BlockProfile(b.graph.copy(), b.execution_count) for b in self.blocks]

    def discard(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def fill_store(blocks: List[BlockProfile], out_dir: Path) -> Path:
    """A fresh store directory holding the pipeline's results for *blocks*."""
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
    identify_instruction_set_extension(
        [BlockProfile(b.graph.copy(), b.execution_count) for b in blocks],
        CONSTRAINTS,
        selection=SELECTION,
        store=ResultStore(store_dir),
    )
    return store_dir


def prepare(workload: Workload, seed: int, out_dir: Path) -> Prepared:
    """The set-up `setup_s` times: build the inputs and fill the store."""
    blocks = build_blocks(workload, seed)
    store_dir = fill_store(blocks, out_dir) if workload.warm_store else None
    return Prepared(workload, blocks, store_dir)


def build_oracle(prepared: Prepared) -> None:
    """Compute the oracle of *prepared*'s blocks; none of it is in `setup_s`."""
    for block in prepared.blocks:
        graph = block.graph
        start = time.perf_counter()
        exhaustive = enumerate_cuts_exhaustive(graph, CONSTRAINTS)
        prepared.exhaustive_s += time.perf_counter() - start
        fresh = None
        if prepared.workload.warm_store:
            fresh = {cut.node_mask() for cut in enumerate_cuts(graph.copy(), CONSTRAINTS)}
        prepared.oracle.append(
            BlockOracle(
                name=graph.name,
                structural_hash=graph.structural_hash(),
                context=EnumerationContext.build(graph, CONSTRAINTS),
                exhaustive={cut.node_mask() for cut in exhaustive.cuts},
                fresh=fresh,
            )
        )


def check_pass(
    prepared: Prepared, items: List[BatchItem], result: PipelineResult
) -> Dict[str, str]:
    """Oracle check of one pass; maps each failing block to the reason."""
    failures: Dict[str, str] = {}
    oracle = prepared.oracle
    items = sorted(items, key=lambda item: item.index)
    if len(items) != len(oracle):
        return {"<pass>": f"{len(items)} blocks reported, {len(oracle)} expected"}
    for item, expect in zip(items, oracle):
        where = f"{item.index}:{expect.name}"
        if item.result is None or item.error is not None or item.timed_out:
            failures[where] = item.error or "no result (timed out)"
            continue
        if item.graph.structural_hash() != expect.structural_hash:
            failures[where] = "pass input differs from the set-up input"
            continue
        masks = {cut.node_mask() for cut in item.result.cuts}
        if len(masks) != len(item.result.cuts):
            failures[where] = "the same cut reported twice"
        elif any(not check_cut_mask(expect.context, mask).valid for mask in masks):
            failures[where] = "an invalid cut reported"
        elif expect.fresh is not None and masks != expect.fresh:
            failures[where] = "stored result differs from a fresh enumeration"
        elif not masks <= expect.exhaustive:
            failures[where] = "a cut outside the exhaustive set reported"
    for block in result.blocks:
        if not is_disjoint_selection(block.selected):
            failures.setdefault(block.graph_name, "selected instructions overlap")
    return failures
