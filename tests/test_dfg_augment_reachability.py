"""Tests for graph augmentation and the reachability/bit-mask machinery."""

import networkx as nx
from hypothesis import given

from repro.dfg import augment
from repro.dfg.reachability import (
    ReachabilityInfo,
    ids_from_mask,
    iterate_mask,
    mask_from_ids,
    popcount,
)
from tests.conftest import dag_seeds, make_random_dag


class TestMaskHelpers:
    def test_mask_round_trip(self):
        ids = [0, 3, 5, 17]
        assert ids_from_mask(mask_from_ids(ids)) == ids

    def test_iterate_mask_matches_ids(self):
        mask = mask_from_ids([1, 2, 8])
        assert list(iterate_mask(mask)) == [1, 2, 8]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(mask_from_ids([0, 1, 63, 100])) == 4


class TestAugmentation:
    def test_source_feeds_all_roots(self, diamond_graph):
        augmented = augment(diamond_graph)
        graph = augmented.graph
        for root in diamond_graph.external_inputs():
            assert graph.has_edge(augmented.source, root)

    def test_sink_consumes_live_out(self, diamond_graph):
        augmented = augment(diamond_graph)
        graph = augmented.graph
        for vertex in diamond_graph.live_out_nodes():
            assert graph.has_edge(vertex, augmented.sink)

    def test_forbidden_nodes_connected_to_source(self, loads_graph):
        augmented = augment(loads_graph)
        graph = augmented.graph
        for vertex in loads_graph.forbidden_nodes():
            assert graph.has_edge(augmented.source, vertex)

    def test_original_ids_preserved(self, diamond_graph):
        augmented = augment(diamond_graph)
        for vertex in diamond_graph.node_ids():
            assert augmented.graph.node(vertex).opcode == diamond_graph.node(vertex).opcode
        assert augmented.original_num_nodes == diamond_graph.num_nodes

    def test_artificial_vertices_forbidden(self, diamond_graph):
        augmented = augment(diamond_graph)
        assert augmented.source in augmented.forbidden
        assert augmented.sink in augmented.forbidden
        assert augmented.is_artificial(augmented.source)

    def test_original_graph_not_modified(self, diamond_graph):
        before_nodes = diamond_graph.num_nodes
        before_edges = diamond_graph.num_edges
        augment(diamond_graph)
        assert diamond_graph.num_nodes == before_nodes
        assert diamond_graph.num_edges == before_edges

    def test_augmented_graph_single_root(self, loads_graph):
        augmented = augment(loads_graph)
        graph = augmented.graph
        roots = [v for v in graph.node_ids() if not graph.predecessors(v)]
        assert roots == [augmented.source]

    def test_candidate_nodes(self, loads_graph):
        augmented = augment(loads_graph)
        candidates = set(augmented.candidate_nodes())
        assert candidates == set(loads_graph.candidate_nodes())


class TestReachability:
    def test_has_path_on_diamond(self, diamond_graph):
        reach = ReachabilityInfo(diamond_graph)
        ops = diamond_graph.operation_nodes()
        top, bottom = ops[0], ops[-1]
        assert reach.has_path(top, bottom)
        assert not reach.has_path(bottom, top)
        assert not reach.has_path(top, top)

    @given(dag_seeds)
    def test_reachability_matches_networkx(self, seed):
        graph = make_random_dag(seed, num_operations=10)
        reach = ReachabilityInfo(graph)
        nx_graph = graph.to_networkx()
        for vertex in graph.node_ids():
            expected = nx.descendants(nx_graph, vertex)
            assert set(ids_from_mask(reach.descendants_mask(vertex))) == expected
            expected_anc = nx.ancestors(nx_graph, vertex)
            assert set(ids_from_mask(reach.ancestors_mask(vertex))) == expected_anc

    def test_between_mask_matches_definition(self, diamond_graph):
        reach = ReachabilityInfo(diamond_graph)
        ops = diamond_graph.operation_nodes()
        top, bottom = ops[0], ops[-1]
        between = reach.between(sources=[top], target=bottom)
        # Definition 6: start vertex excluded, target included.
        assert top not in between
        assert bottom in between
        # Everything in between lies on a path top -> ... -> bottom.
        for vertex in between - {bottom}:
            assert reach.has_path(top, vertex)
            assert reach.has_path(vertex, bottom)

    @given(dag_seeds)
    def test_between_mask_property(self, seed):
        graph = make_random_dag(seed, num_operations=9)
        reach = ReachabilityInfo(graph)
        ops = graph.operation_nodes()
        if len(ops) < 2:
            return
        source, target = ops[0], ops[-1]
        between = reach.between([source], target)
        nx_graph = graph.to_networkx()
        expected = set()
        if nx.has_path(nx_graph, source, target):
            descendants = nx.descendants(nx_graph, source)
            ancestors = nx.ancestors(nx_graph, target) | {target}
            expected = descendants & ancestors
        assert between == expected

    def test_cut_inputs_outputs(self, diamond_graph):
        reach = ReachabilityInfo(diamond_graph)
        ops = diamond_graph.operation_nodes()
        cut_mask = mask_from_ids(ops)  # the whole computation
        inputs = set(ids_from_mask(reach.cut_inputs_mask(cut_mask)))
        assert inputs == set(diamond_graph.external_inputs())
        # In the un-augmented graph the bottom vertex has no successors at
        # all, so the full cut has no outputs; after augmentation the sink
        # edge makes it an output, which is the behaviour the enumeration
        # relies on.
        outputs = set(ids_from_mask(reach.cut_outputs_mask(cut_mask)))
        assert outputs == set()
        augmented = augment(diamond_graph)
        aug_reach = ReachabilityInfo(augmented.graph, forbidden=augmented.forbidden)
        aug_outputs = set(ids_from_mask(aug_reach.cut_outputs_mask(cut_mask)))
        assert ops[-1] in aug_outputs

    def test_convexity_check(self, diamond_graph):
        reach = ReachabilityInfo(diamond_graph)
        ops = diamond_graph.operation_nodes()
        top, left, right, bottom = ops
        assert reach.is_convex_mask(mask_from_ids([top, left, right, bottom]))
        assert reach.is_convex_mask(mask_from_ids([left]))
        # top and bottom without the middle vertices are not convex.
        assert not reach.is_convex_mask(mask_from_ids([top, bottom]))

    def test_forbidden_on_path(self, loads_graph):
        reach = ReachabilityInfo(loads_graph)
        names = {loads_graph.node(v).name: v for v in loads_graph.node_ids()}
        addr, scaled, total = names["addr"], names["scaled"], names["total"]
        # addr -> value(load) -> scaled: the load sits between addr and scaled.
        assert reach.forbidden_on_path(addr, scaled)
        assert reach.forbidden_on_path(addr, total)
        assert not reach.forbidden_on_path(scaled, total)
