"""Seeded random basic-block generator.

The paper evaluates on 250 basic blocks extracted from compiled MiBench
programs (10 to 1196 vertices).  Those data-flow graphs are not distributed
with the paper, so this generator synthesises basic blocks with the structural
statistics that matter to the enumeration algorithms:

* a DAG whose operation vertices have fan-in 1–3 (mostly 2) drawn from a
  realistic embedded opcode mix (arithmetic/logic dominated, a configurable
  fraction of multiplies);
* a configurable density of memory operations, which become forbidden
  vertices exactly like in the paper's experiments;
* operand locality: an operation mostly consumes recently produced values,
  which yields the long dependence chains typical of compiler-generated
  straight-line code;
* a handful of external inputs (live-in registers / constants) and a few
  live-out values.

Every graph is produced from an explicit seed so workload suites are fully
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dfg.graph import DataFlowGraph
from ..dfg.opcodes import Opcode

#: Default opcode mix: (opcode, relative weight, arity).
DEFAULT_OPCODE_MIX: Sequence = (
    (Opcode.ADD, 20, 2),
    (Opcode.SUB, 10, 2),
    (Opcode.AND, 8, 2),
    (Opcode.OR, 6, 2),
    (Opcode.XOR, 8, 2),
    (Opcode.SHL, 7, 2),
    (Opcode.SHR, 7, 2),
    (Opcode.MUL, 6, 2),
    (Opcode.EQ, 3, 2),
    (Opcode.LT, 3, 2),
    (Opcode.SELECT, 3, 3),
    (Opcode.NOT, 3, 1),
    (Opcode.SEXT, 3, 1),
    (Opcode.ZEXT, 3, 1),
)


@dataclass(frozen=True)
class SyntheticBlockSpec:
    """Parameters of one synthetic basic block.

    Attributes
    ----------
    num_operations:
        Number of operation vertices (excluding external inputs).
    num_external_inputs:
        Number of live-in values feeding the block.
    memory_fraction:
        Fraction of operations that are loads/stores (forbidden vertices).
    store_fraction:
        Among memory operations, the fraction that are stores.
    locality:
        Number of most recent values an operation prefers as operands;
        smaller values produce deeper, narrower graphs.
    live_out_fraction:
        Fraction of non-sink operations additionally marked live-out.
    seed:
        Random seed (every block is deterministic given its spec).
    name:
        Optional block name.
    """

    num_operations: int
    num_external_inputs: int = 4
    memory_fraction: float = 0.15
    store_fraction: float = 0.3
    locality: int = 12
    live_out_fraction: float = 0.1
    seed: int = 0
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_operations < 1:
            raise ValueError("num_operations must be >= 1")
        if self.num_external_inputs < 1:
            raise ValueError("num_external_inputs must be >= 1")
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be in [0, 1]")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        if self.locality < 1:
            raise ValueError("locality must be >= 1")


def generate_basic_block(spec: SyntheticBlockSpec) -> DataFlowGraph:
    """Generate one synthetic basic block from *spec*."""
    rng = random.Random(spec.seed)
    name = spec.name or f"synthetic_n{spec.num_operations}_s{spec.seed}"
    graph = DataFlowGraph(name=name)

    producers: List[int] = []
    for index in range(spec.num_external_inputs):
        producers.append(graph.add_node(Opcode.INPUT, name=f"in{index}"))

    opcodes = [entry[0] for entry in DEFAULT_OPCODE_MIX]
    weights = [entry[1] for entry in DEFAULT_OPCODE_MIX]
    arities = {entry[0]: entry[2] for entry in DEFAULT_OPCODE_MIX}

    for index in range(spec.num_operations):
        if rng.random() < spec.memory_fraction:
            if rng.random() < spec.store_fraction and len(producers) >= 2:
                opcode, arity = Opcode.STORE, 2
            else:
                opcode, arity = Opcode.LOAD, 1
        else:
            opcode = rng.choices(opcodes, weights=weights, k=1)[0]
            arity = arities[opcode]
        node_id = graph.add_node(opcode, name=f"op{index}")
        pool = producers[-spec.locality :] if len(producers) > spec.locality else producers
        arity = min(arity, len(pool))
        for operand in rng.sample(pool, arity):
            graph.add_edge(operand, node_id)
        if opcode is not Opcode.STORE:
            producers.append(node_id)

    for vertex in graph.operation_nodes():
        node = graph.node(vertex)
        if node.opcode is Opcode.STORE:
            continue
        if graph.out_degree(vertex) and rng.random() < spec.live_out_fraction:
            graph.set_live_out(vertex, True)

    return graph


def generate_suite(
    sizes: Sequence[int],
    blocks_per_size: int = 1,
    base_seed: int = 2007,
    memory_fraction: float = 0.15,
) -> List[DataFlowGraph]:
    """Generate a list of synthetic blocks covering the requested sizes."""
    suite: List[DataFlowGraph] = []
    seed = base_seed
    for size in sizes:
        for _ in range(blocks_per_size):
            spec = SyntheticBlockSpec(
                num_operations=size,
                num_external_inputs=max(2, min(8, size // 6 + 2)),
                memory_fraction=memory_fraction,
                seed=seed,
            )
            suite.append(generate_basic_block(spec))
            seed += 1
    return suite


def random_small_dag(seed: int, num_operations: int = 8, memory_fraction: float = 0.2) -> DataFlowGraph:
    """Small random DAG helper used by the test-suite and hypothesis strategies."""
    spec = SyntheticBlockSpec(
        num_operations=num_operations,
        num_external_inputs=3,
        memory_fraction=memory_fraction,
        locality=6,
        live_out_fraction=0.15,
        seed=seed,
        name=f"small_{seed}",
    )
    return generate_basic_block(spec)
