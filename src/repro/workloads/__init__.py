"""Workload substrate: the basic blocks the experiments run on.

MiBench itself is not redistributable here, so the suite is synthesised from
(a) hand-written DFGs of the kernels MiBench is built around, (b) a seeded
random basic-block generator with embedded-code statistics, and (c) the
tree-shaped worst-case graphs of Figure 4.  See :mod:`repro.workloads.mibench_like`
for the substitution rationale.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".kernels": ("KERNEL_FACTORIES", "all_kernels", "build_kernel", "kernel_names"),
        ".mibench_like": ("SIZE_CLUSTERS", "SuiteConfig", "build_suite", "size_cluster"),
        ".suite": ("WorkloadSuite",),
        ".synthetic": (
            "DEFAULT_OPCODE_MIX",
            "SyntheticBlockSpec",
            "generate_basic_block",
            "generate_suite",
            "random_small_dag",
        ),
        ".trees": ("inverted_tree_dfg", "paper_tree_suite", "tree_dfg"),
    },
)
