"""A MiBench-like workload suite.

The paper's experimental section evaluates the enumeration algorithms on 250
basic blocks collected from MiBench, with sizes from 10 to 1196 vertices,
grouped in Figure 5 into three size clusters (10–79, 80–799, 800–1196) plus
the synthetic tree-shaped graphs.  MiBench itself (and the authors' GCC-based
DFG extractor) is not available offline, so this module builds a stand-in
suite with the same structure:

* the hand-written kernels of :mod:`repro.workloads.kernels` (each appearing
  once, exactly as written, and once "unrolled" by stitching several copies
  together, the way compilers create large basic blocks);
* seeded synthetic blocks from :mod:`repro.workloads.synthetic` covering a
  configurable size range.

Sizes are scaled down relative to the paper (pure-Python enumeration of a
1000-vertex block at Nin=4/Nout=2 is not practical), but the cluster structure
and the relative ordering are preserved so that the Figure 5 benchmark can be
reproduced shape-for-shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dfg.graph import DataFlowGraph
from ..dfg.opcodes import Opcode
from .kernels import KERNEL_FACTORIES
from .synthetic import SyntheticBlockSpec, generate_basic_block
from .trees import tree_dfg


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of the MiBench-like suite.

    Attributes
    ----------
    num_blocks:
        Total number of basic blocks (the paper uses 250; the default here is
        sized for Python-speed experiments).
    min_operations / max_operations:
        Size range of the synthetic blocks.
    include_kernels:
        Include the hand-written kernels (and their unrolled variants).
    include_trees:
        Append the four tree-shaped worst-case graphs of Figure 4.
    tree_depths:
        Depths of the appended trees.
    base_seed:
        Seed from which all synthetic blocks are derived.
    """

    num_blocks: int = 60
    min_operations: int = 10
    max_operations: int = 80
    include_kernels: bool = True
    include_trees: bool = True
    tree_depths: Sequence[int] = (4, 5)
    base_seed: int = 2007

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.min_operations < 1 or self.max_operations < self.min_operations:
            raise ValueError("invalid operation-count range")


#: Size clusters used by Figure 5 of the paper, scaled to the Python suite.
SIZE_CLUSTERS: Tuple[Tuple[str, int, int], ...] = (
    ("small", 0, 29),
    ("medium", 30, 59),
    ("large", 60, 10 ** 9),
)


def size_cluster(graph: DataFlowGraph) -> str:
    """Cluster label ("small"/"medium"/"large"/"tree") for a suite graph."""
    if graph.name.startswith("tree"):
        return "tree"
    operations = len(graph.operation_nodes())
    for label, low, high in SIZE_CLUSTERS:
        if low <= operations <= high:
            return label
    return "large"


def _unrolled_kernel(name: str, factory, copies: int) -> DataFlowGraph:
    """Stitch *copies* instances of a kernel into one larger basic block.

    The live-out values of copy ``i`` are wired into the external inputs of
    copy ``i+1`` (as far as arities allow), which mimics loop unrolling /
    inlining creating large blocks out of small bodies.
    """
    combined = DataFlowGraph(name=f"{name}_x{copies}")
    previous_outputs: List[int] = []
    for copy_index in range(copies):
        kernel = factory()
        mapping: Dict[int, int] = {}
        feed_index = 0
        for node in kernel.nodes():
            if node.opcode is Opcode.INPUT and feed_index < len(previous_outputs):
                # Reuse a value produced by the previous copy instead of a
                # fresh external input.
                mapping[node.node_id] = previous_outputs[feed_index]
                feed_index += 1
                continue
            mapping[node.node_id] = combined.add_node(
                node.opcode,
                name=f"{node.name or node.opcode.value}_{copy_index}",
                forbidden=node.forbidden if node.is_operation else None,
                live_out=False,
            )
        for src, dst in kernel.edges():
            combined.add_edge(mapping[src], mapping[dst])
        previous_outputs = [
            mapping[v]
            for v in kernel.node_ids()
            if kernel.node(v).live_out and kernel.node(v).is_operation
        ]
    for vertex in previous_outputs:
        combined.set_live_out(vertex, True)
    return combined


def build_suite(config: Optional[SuiteConfig] = None) -> List[DataFlowGraph]:
    """Build the MiBench-like suite described by *config*."""
    config = config or SuiteConfig()
    suite: List[DataFlowGraph] = []

    if config.include_kernels:
        for name, factory in sorted(KERNEL_FACTORIES.items()):
            suite.append(factory())
            suite.append(_unrolled_kernel(name, factory, copies=3))

    remaining = max(0, config.num_blocks - len(suite))
    seed = config.base_seed
    for index in range(remaining):
        span = config.max_operations - config.min_operations
        size = config.min_operations + (index * max(1, span) // max(1, remaining - 1 or 1))
        size = min(size, config.max_operations)
        spec = SyntheticBlockSpec(
            num_operations=size,
            num_external_inputs=max(2, min(8, size // 6 + 2)),
            memory_fraction=0.15,
            seed=seed,
            name=f"mibench_like_{index:03d}_n{size}",
        )
        suite.append(generate_basic_block(spec))
        seed += 1

    if config.include_trees:
        for depth in config.tree_depths:
            suite.append(tree_dfg(depth))

    return suite
