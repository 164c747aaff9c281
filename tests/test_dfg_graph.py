"""Unit tests for the DataFlowGraph container."""

import pytest

from repro.dfg import DataFlowGraph, GraphStructureError, Opcode
from repro.dfg.builder import linear_chain


class TestConstruction:
    def test_add_node_assigns_dense_ids(self):
        graph = DataFlowGraph()
        ids = [graph.add_node(Opcode.INPUT), graph.add_node(Opcode.ADD), graph.add_node(Opcode.XOR)]
        assert ids == [0, 1, 2]
        assert graph.num_nodes == 3

    def test_add_edge_and_query(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.INPUT)
        b = graph.add_node(Opcode.ADD)
        graph.add_edge(a, b)
        assert graph.has_edge(a, b)
        assert not graph.has_edge(b, a)
        assert graph.predecessors(b) == (a,)
        assert graph.successors(a) == (b,)
        assert graph.num_edges == 1

    def test_parallel_edges_are_collapsed(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.INPUT)
        b = graph.add_node(Opcode.MUL)
        graph.add_edge(a, b)
        graph.add_edge(a, b)
        assert graph.num_edges == 1
        assert graph.in_degree(b) == 1

    def test_self_loop_rejected(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.ADD)
        with pytest.raises(GraphStructureError):
            graph.add_edge(a, a)

    def test_edge_to_unknown_vertex_rejected(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.ADD)
        with pytest.raises(GraphStructureError):
            graph.add_edge(a, 42)

    def test_memory_ops_forbidden_by_default(self):
        graph = DataFlowGraph()
        load = graph.add_node(Opcode.LOAD)
        add = graph.add_node(Opcode.ADD)
        assert graph.node(load).forbidden
        assert not graph.node(add).forbidden

    def test_external_input_cannot_be_allowed(self):
        graph = DataFlowGraph()
        with pytest.raises(GraphStructureError):
            graph.add_node(Opcode.INPUT, forbidden=False)


class TestVertexSets:
    def test_external_inputs_are_roots(self, diamond_graph):
        roots = diamond_graph.external_inputs()
        assert all(not diamond_graph.predecessors(v) for v in roots)
        assert all(diamond_graph.node(v).forbidden for v in roots)

    def test_live_out_includes_sinks_and_flagged(self):
        graph = linear_chain(3)
        live_out = graph.live_out_nodes()
        # The chain end has no successors, so it must be live-out.
        chain_end = [v for v in graph.operation_nodes() if not graph.successors(v)]
        assert set(chain_end) <= set(live_out)

    def test_set_live_out(self, diamond_graph):
        target = diamond_graph.operation_nodes()[0]
        diamond_graph.set_live_out(target, True)
        assert target in diamond_graph.live_out_nodes()

    def test_set_forbidden_round_trip(self, diamond_graph):
        target = diamond_graph.operation_nodes()[0]
        diamond_graph.set_forbidden(target, True)
        assert target in diamond_graph.forbidden_nodes()
        diamond_graph.set_forbidden(target, False)
        assert target not in diamond_graph.forbidden_nodes()

    def test_set_forbidden_on_external_rejected(self, diamond_graph):
        external = diamond_graph.external_inputs()[0]
        with pytest.raises(GraphStructureError):
            diamond_graph.set_forbidden(external, False)

    def test_candidate_nodes_exclude_forbidden(self, loads_graph):
        candidates = set(loads_graph.candidate_nodes())
        forbidden = loads_graph.forbidden_nodes()
        assert not candidates & forbidden
        assert candidates <= set(loads_graph.operation_nodes())


class TestTraversals:
    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        position = {v: i for i, v in enumerate(order)}
        for src, dst in diamond_graph.edges():
            assert position[src] < position[dst]

    def test_topological_order_cached_and_invalidated(self):
        graph = linear_chain(4)
        first = graph.topological_order()
        second = graph.topological_order()
        assert first == second
        new_node = graph.add_node(Opcode.ADD)
        graph.add_edge(graph.operation_nodes()[0], new_node)
        assert len(graph.topological_order()) == graph.num_nodes

    def test_cycle_detection(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.ADD)
        b = graph.add_node(Opcode.ADD)
        graph.add_edge(a, b)
        graph.add_edge(b, a)
        assert not graph.is_dag()
        with pytest.raises(GraphStructureError):
            graph.topological_order()

    def test_ancestors_and_descendants(self, diamond_graph):
        ops = diamond_graph.operation_nodes()
        top, bottom = ops[0], ops[-1]
        assert top in diamond_graph.ancestors(bottom)
        assert bottom in diamond_graph.descendants(top)
        assert bottom not in diamond_graph.ancestors(top)

    def test_depths_monotone_along_edges(self, diamond_graph):
        depths = diamond_graph.all_depths()
        for src, dst in diamond_graph.edges():
            assert depths[dst] >= depths[src] + 1

    def test_critical_path_of_chain(self):
        graph = linear_chain(6)
        # input -> 6 chained operations: the longest path has 6 edges.
        assert graph.critical_path_length() == 6


class TestDerivedGraphs:
    def test_copy_is_independent(self, diamond_graph):
        clone = diamond_graph.copy()
        clone.add_node(Opcode.ADD)
        assert clone.num_nodes == diamond_graph.num_nodes + 1
        clone.node(0).name = "changed"
        assert diamond_graph.node(0).name != "changed"

    def test_induced_subgraph(self, diamond_graph):
        ops = diamond_graph.operation_nodes()
        sub = diamond_graph.induced_subgraph(ops)
        assert sub.num_nodes == len(ops)
        assert all(node.is_operation for node in sub.nodes())
        # Edges inside the selection are preserved (renumbered).
        assert sub.num_edges == sum(
            1 for s, d in diamond_graph.edges() if s in ops and d in ops
        )

    def test_induced_subgraph_invalid_vertex(self, diamond_graph):
        with pytest.raises(GraphStructureError):
            diamond_graph.induced_subgraph([0, 999])


class TestStructuralHash:
    """The cached content fingerprint behind the engine/batch caches."""

    def test_identical_construction_shares_hash(self):
        assert linear_chain(4).structural_hash() == linear_chain(4).structural_hash()

    def test_hash_is_cached_until_mutation(self):
        graph = linear_chain(4)
        first = graph.structural_hash()
        assert graph.structural_hash() is first  # served from the cache
        graph.add_node(Opcode.ADD)
        assert graph.structural_hash() != first

    def test_every_mutator_invalidates(self):
        graph = linear_chain(4)
        op = graph.operation_nodes()[0]
        seen = {graph.structural_hash()}
        extra = graph.add_node(Opcode.ADD)
        seen.add(graph.structural_hash())
        graph.add_edge(op, extra)
        seen.add(graph.structural_hash())
        graph.set_forbidden(extra, True)
        seen.add(graph.structural_hash())
        graph.set_live_out(extra, True)
        seen.add(graph.structural_hash())
        assert len(seen) == 5  # every mutation produced a fresh fingerprint

    def test_name_and_labels_are_covered(self):
        a = linear_chain(3)
        b = linear_chain(3)
        b.name = a.name
        assert a.structural_hash() == b.structural_hash()
        renamed = a.copy(name="other")
        assert renamed.structural_hash() != a.structural_hash()

    def test_copy_gets_independent_cache(self, diamond_graph):
        original = diamond_graph.structural_hash()
        clone = diamond_graph.copy()
        assert clone.structural_hash() == original
        clone.add_node(Opcode.ADD)
        assert clone.structural_hash() != original
        assert diamond_graph.structural_hash() == original
