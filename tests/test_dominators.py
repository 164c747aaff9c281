"""Tests for the dominator infrastructure.

The single-pass DAG kernel is the only dominator kernel the library runs.
It shares its hand-computable cases and its ``networkx.immediate_dominators``
comparison with the reference Lengauer–Tarjan kernel the paper runs
(``tests/reference/``): each of those tests runs every kernel, with the
fixpoint iteration of Cooper–Harvey–Kennedy as a third opinion on random
DAGs.
"""

import random

import networkx as nx
import pytest
from hypothesis import given

from repro.core import EnumerationContext
from repro.dfg import augment
from repro.dfg.reachability import mask_from_ids
from repro.dominators import comparability_rows, immediate_dominators_dag, strict_dominators
from tests.conftest import dag_seeds, make_random_dag
from tests.reference.lengauer_tarjan import (
    dominates,
    immediate_dominators,
    immediate_dominators_iterative,
)


def _augmented_successors(graph):
    return [list(graph.successors(v)) for v in graph.node_ids()]


def _rows_by_walk(idom):
    """Comparability rows read off *idom* by the idom-chain walk."""
    n = len(idom)
    return [
        sum(1 << b for b in range(n) if dominates(idom, a, b) or dominates(idom, b, a))
        for a in range(n)
    ]


def _dag_kernel(num_nodes, successors, root, removed_mask=0):
    """:func:`immediate_dominators_dag` behind the reference kernels'
    signature: the topological order and predecessor lists it takes are
    derived from *successors* (Kahn's algorithm)."""
    preds = [[] for _ in range(num_nodes)]
    for vertex, succs in enumerate(successors):
        for succ in succs:
            preds[succ].append(vertex)
    waiting = [len(p) for p in preds]
    order = [v for v in range(num_nodes) if not waiting[v]]
    for vertex in order:
        for succ in successors[vertex]:
            waiting[succ] -= 1
            if not waiting[succ]:
                order.append(succ)
    assert len(order) == num_nodes, "not a DAG"
    return immediate_dominators_dag(order, preds, root, removed_mask=removed_mask)


#: Every kernel the hand-computable cases and the networkx comparison run on:
#: the reference Lengauer–Tarjan kernel and the shipped DAG kernel.
KERNELS = {"lengauer_tarjan": immediate_dominators, "dag": _dag_kernel}


class TestLengauerTarjan:
    """The cases every kernel must pass, each run on every one of
    :data:`KERNELS` (a loop in the test, so one test id covers both)."""

    def test_chain(self):
        # 0 -> 1 -> 2 -> 3
        succs = [[1], [2], [3], []]
        for name, kernel in KERNELS.items():
            idom = kernel(4, succs, root=0)
            assert idom == [0, 0, 1, 2], name

    def test_diamond_cfg(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: idom(3) == 0
        succs = [[1, 2], [3], [3], []]
        for name, kernel in KERNELS.items():
            idom = kernel(4, succs, root=0)
            assert idom[3] == 0, name
            assert idom[1] == 0 and idom[2] == 0, name

    def test_unreachable_nodes_have_none(self):
        succs = [[1], [], [1]]  # vertex 2 unreachable from 0
        for name, kernel in KERNELS.items():
            idom = kernel(3, succs, root=0)
            assert idom[2] is None, name
            assert idom[1] == 0, name

    def test_removed_mask_hides_vertices(self):
        # 0 -> 1 -> 3 and 0 -> 2 -> 3; removing 1 makes 2 a dominator of 3.
        succs = [[1, 2], [3], [3], []]
        for name, kernel in KERNELS.items():
            idom = kernel(4, succs, root=0, removed_mask=1 << 1)
            assert idom[1] is None, name
            assert idom[3] == 2, name

    def test_removed_root_rejected(self):
        for kernel in KERNELS.values():
            with pytest.raises(ValueError):
                kernel(2, [[1], []], root=0, removed_mask=1)

    def test_strict_dominators_order(self):
        succs = [[1], [2], [3], []]
        for name, kernel in KERNELS.items():
            idom = kernel(4, succs, root=0)
            assert strict_dominators(idom, 3, root=0) == [2, 1, 0], name
            assert strict_dominators(idom, 0, root=0) == [0], name

    def test_dominates_predicate(self):
        succs = [[1, 2], [3], [3], []]
        idom = immediate_dominators(4, succs, root=0)
        assert dominates(idom, 0, 3)
        assert dominates(idom, 3, 3)
        assert not dominates(idom, 1, 3)

    @given(dag_seeds)
    def test_matches_networkx_and_iterative(self, seed):
        graph = make_random_dag(seed, num_operations=12)
        augmented = augment(graph)
        succs = _augmented_successors(augmented.graph)
        n = augmented.graph.num_nodes
        root = augmented.source

        iterative = immediate_dominators_iterative(n, succs, root)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(n))
        nx_graph.add_edges_from(augmented.graph.edges())
        expected = nx.immediate_dominators(nx_graph, root)
        for name, kernel in KERNELS.items():
            idom = kernel(n, succs, root)
            assert idom == iterative, name
            for vertex in range(n):
                if vertex == root:
                    assert idom[vertex] == root, name
                elif vertex in expected:
                    assert idom[vertex] == expected[vertex], name
                else:
                    assert idom[vertex] is None, name

    @given(dag_seeds)
    def test_reduced_graph_matches_networkx(self, seed):
        graph = make_random_dag(seed, num_operations=10)
        augmented = augment(graph)
        succs = _augmented_successors(augmented.graph)
        n = augmented.graph.num_nodes
        root = augmented.source
        # Remove two arbitrary operation vertices and compare with networkx on
        # the explicitly reduced graph.
        operations = graph.operation_nodes()
        removed = operations[: min(2, len(operations))]
        removed_mask = mask_from_ids(removed)

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(v for v in range(n) if v not in removed)
        nx_graph.add_edges_from(
            (s, d) for s, d in augmented.graph.edges() if s not in removed and d not in removed
        )
        expected = nx.immediate_dominators(nx_graph, root)
        for name, kernel in KERNELS.items():
            idom = kernel(n, succs, root, removed_mask=removed_mask)
            for vertex in range(n):
                if vertex == root:
                    assert idom[vertex] == root, name
                elif vertex in removed:
                    assert idom[vertex] is None, name
                elif vertex in expected:
                    assert idom[vertex] == expected[vertex], name
                else:
                    assert idom[vertex] is None, name


class TestComparabilityRows:
    """The two-pass rows against the idom-chain walk of ``dominates``."""

    def test_rows_match_idom_walk_on_diamond(self, diamond_graph):
        augmented = augment(diamond_graph)
        graph = augmented.graph
        idom = immediate_dominators(
            graph.num_nodes, _augmented_successors(graph), augmented.source
        )
        rows = comparability_rows(idom, list(graph.topological_order()))
        assert rows == _rows_by_walk(idom)

    @given(dag_seeds)
    def test_rows_match_idom_walk_on_seed_removed_dags(self, seed):
        graph = make_random_dag(seed, num_operations=10)
        augmented = augment(graph)
        reduced = augmented.graph
        operations = graph.operation_nodes()
        removed = random.Random(seed).sample(operations, min(2, len(operations)))
        idom = immediate_dominators(
            reduced.num_nodes,
            _augmented_successors(reduced),
            augmented.source,
            removed_mask=mask_from_ids(removed),
        )
        rows = comparability_rows(idom, list(reduced.topological_order()))
        assert rows == _rows_by_walk(idom)

    def test_unreachable_vertex_row_is_zero(self):
        succs = [[1], [], []]  # vertex 2 unreachable from 0
        idom = immediate_dominators(3, succs, 0)
        assert comparability_rows(idom, [0, 1, 2]) == [0b011, 0b011, 0]


class TestPostdominators:
    """The context's postdominator comparability rows, solved by the
    single-pass DAG kernel over the reversed topological order.  A vertex
    postdominates only its descendants, so the descendants in a vertex's row
    are its strict postdominators."""

    def test_postdominators_of_chain(self, chain_graph):
        ctx = EnumerationContext.build(chain_graph)
        ops = chain_graph.operation_nodes()
        # In a chain, each operation is postdominated by every later one
        # and by the sink.
        for index, op in enumerate(ops):
            later = mask_from_ids(ops[index + 1 :]) | 1 << ctx.sink
            assert ctx.postdom_comparable[op] & ctx.reach.descendants_mask(op) == later

    def test_live_out_only_postdominated_by_sink(self, paper_figure1_graph):
        # The paper: "a vertex in Oext will not be postdominated by any vertex
        # but the artificial sink, because it is connected by an edge to the sink".
        ctx = EnumerationContext.build(paper_figure1_graph)
        for vertex in paper_figure1_graph.live_out_nodes():
            reached = ctx.reach.descendants_mask(vertex) | 1 << vertex
            assert ctx.postdom_comparable[vertex] & reached == 1 << vertex | 1 << ctx.sink

    @given(dag_seeds)
    def test_postdominators_are_dominators_of_reverse(self, seed):
        """The rows equal those of Lengauer–Tarjan on the reverse graph."""
        ctx = EnumerationContext.build(make_random_dag(seed, num_operations=10))
        graph = ctx.augmented.graph
        preds = [list(graph.predecessors(v)) for v in range(graph.num_nodes)]
        via_reverse = immediate_dominators(graph.num_nodes, preds, ctx.sink)
        assert ctx.postdom_comparable == _rows_by_walk(via_reverse)
