"""TAB-DOM — The dominator kernel.

Section 5.4 reports that "at least 70% of the time is spent in" the
Lengauer–Tarjan dominator computation, which motivated the paper's low-level
engineering of that kernel.  Data-flow graphs are acyclic, so this
reproduction runs a single-pass DAG kernel instead, and derives most arrays
from a one-vertex-smaller input set's.  This benchmark measures (a) the cost
of one full sweep and of one derivation as the graph grows and (b) the
share of the full enumeration spent producing dominator arrays, the
quantity the paper reports.
"""

from __future__ import annotations

import pytest

from repro.core import Constraints, EnumerationContext
from repro.dominators import derive_immediate_dominators, immediate_dominators_dag
from repro.perf.suites.paper import costliest_derivation
from repro.workloads import SyntheticBlockSpec, generate_basic_block

SIZES = (50, 150, 400)


def _context(size: int) -> EnumerationContext:
    graph = generate_basic_block(
        SyntheticBlockSpec(num_operations=size, num_external_inputs=8, seed=3)
    )
    return EnumerationContext.build(graph, Constraints(max_inputs=4, max_outputs=2))


@pytest.mark.parametrize("size", SIZES)
def test_dag_kernel(benchmark, size):
    ctx = _context(size)
    idom = benchmark(
        lambda: immediate_dominators_dag(ctx.topo_order, ctx.predecessor_lists, ctx.source)
    )
    assert idom[ctx.source] == ctx.source


@pytest.mark.parametrize("size", SIZES)
def test_derivation(benchmark, size):
    ctx = _context(size)
    idom = immediate_dominators_dag(ctx.topo_order, ctx.predecessor_lists, ctx.source)
    vertex, descendants = costliest_derivation(ctx)
    derived = benchmark(
        lambda: derive_immediate_dominators(
            idom, vertex, descendants, ctx.predecessor_lists, ctx.topo_position
        )
    )
    assert derived[vertex] is None


def test_dominator_kernel_costs_and_fraction(bench_harness):
    """DAG-kernel sweep and derivation cost + the share of enumeration time
    spent producing dominator arrays (the paper reports >= 70% for
    Lengauer–Tarjan in C; the harness gates a floor that catches a kernel
    whose time stops being measured).

    The measurement body lives in ``repro.perf.suites.paper`` (benchmark
    name ``dominators``); the micro-kernels above remain pytest-benchmark
    tests for per-call statistics.
    """
    bench_harness("dominators")
