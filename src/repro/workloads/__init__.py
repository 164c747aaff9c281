"""Workload substrate: the basic blocks the experiments run on.

MiBench itself is not redistributable here, so the suite is synthesised from
(a) hand-written DFGs of the kernels MiBench is built around, (b) a seeded
random basic-block generator with embedded-code statistics, and (c) the
tree-shaped worst-case graphs of Figure 4.  See :mod:`repro.workloads.mibench_like`
for the substitution rationale.
"""

from .kernels import KERNEL_FACTORIES, all_kernels, build_kernel, kernel_names
from .mibench_like import (
    SIZE_CLUSTERS,
    SuiteConfig,
    build_suite,
    size_cluster,
)
from .suite import WorkloadSuite
from .synthetic import (
    DEFAULT_OPCODE_MIX,
    SyntheticBlockSpec,
    generate_basic_block,
    generate_suite,
    random_small_dag,
)
from .trees import inverted_tree_dfg, paper_tree_suite, tree_dfg

__all__ = [
    "KERNEL_FACTORIES",
    "all_kernels",
    "build_kernel",
    "kernel_names",
    "SIZE_CLUSTERS",
    "SuiteConfig",
    "build_suite",
    "size_cluster",
    "WorkloadSuite",
    "DEFAULT_OPCODE_MIX",
    "SyntheticBlockSpec",
    "generate_basic_block",
    "generate_suite",
    "random_small_dag",
    "inverted_tree_dfg",
    "paper_tree_suite",
    "tree_dfg",
]
