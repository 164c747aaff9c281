"""Tests for DOT/JSON serialization and graph validation."""

import json
import pickle

import pytest
from hypothesis import given

from repro.dfg import (
    DataFlowGraph,
    DFGBuilder,
    Opcode,
    ValidationError,
    dumps,
    from_dot,
    graph_from_dict,
    graph_to_dict,
    load,
    loads,
    save,
    to_dot,
    validate_graph,
)
from tests.conftest import dag_seeds, make_random_dag


class TestDotExport:
    def test_dot_contains_all_vertices_and_edges(self, diamond_graph):
        text = to_dot(diamond_graph)
        for node in diamond_graph.nodes():
            assert f"n{node.node_id} " in text
        assert text.count("->") == diamond_graph.num_edges

    def test_dot_round_trip(self, loads_graph):
        text = to_dot(loads_graph)
        rebuilt = from_dot(text, name=loads_graph.name)
        assert rebuilt.num_nodes == loads_graph.num_nodes
        assert set(rebuilt.edges()) == set(loads_graph.edges())
        for vertex in loads_graph.node_ids():
            assert rebuilt.node(vertex).opcode == loads_graph.node(vertex).opcode
            assert rebuilt.node(vertex).forbidden == loads_graph.node(vertex).forbidden
            assert rebuilt.node(vertex).live_out == loads_graph.node(vertex).live_out

    def test_highlight_renders_fill(self, diamond_graph):
        ops = diamond_graph.operation_nodes()
        text = to_dot(diamond_graph, highlight=ops[:2])
        assert text.count("lightblue") == 2


class TestJsonSerialization:
    def test_dict_round_trip(self, diamond_graph):
        data = graph_to_dict(diamond_graph)
        rebuilt = graph_from_dict(data)
        assert rebuilt.num_nodes == diamond_graph.num_nodes
        assert set(rebuilt.edges()) == set(diamond_graph.edges())

    @given(dag_seeds)
    def test_string_round_trip_random(self, seed):
        graph = make_random_dag(seed, num_operations=8)
        rebuilt = loads(dumps(graph))
        assert rebuilt.name == graph.name
        assert rebuilt.num_nodes == graph.num_nodes
        assert set(rebuilt.edges()) == set(graph.edges())
        for vertex in graph.node_ids():
            assert rebuilt.node(vertex).opcode == graph.node(vertex).opcode
            assert rebuilt.node(vertex).forbidden == graph.node(vertex).forbidden
            assert rebuilt.node(vertex).live_out == graph.node(vertex).live_out

    def test_file_round_trip(self, tmp_path, loads_graph):
        path = tmp_path / "graph.json"
        save(loads_graph, path)
        rebuilt = load(path)
        assert rebuilt.num_nodes == loads_graph.num_nodes
        assert json.loads(path.read_text())["name"] == loads_graph.name

    def test_non_dense_ids_rejected(self):
        data = {
            "name": "bad",
            "nodes": [{"id": 1, "opcode": "add"}],
            "edges": [],
        }
        with pytest.raises(ValueError):
            graph_from_dict(data)


def _over_the_wire(graph: DataFlowGraph) -> DataFlowGraph:
    """What a batch worker receives: the graph pickled as is."""
    return pickle.loads(pickle.dumps(graph))


class TestWireFormat:
    """The pool ships each graph pickled; workers return cut masks indexed
    by node id, so the round trip must keep ids, flags and structure."""

    def test_wire_round_trip_matches_json_document(self, diamond_graph):
        rebuilt = _over_the_wire(diamond_graph)
        assert graph_to_dict(rebuilt) == graph_to_dict(diamond_graph)

    @given(dag_seeds)
    def test_wire_round_trip_random(self, seed):
        graph = make_random_dag(seed, num_operations=8)
        rebuilt = _over_the_wire(graph)
        assert rebuilt.name == graph.name
        assert rebuilt.num_nodes == graph.num_nodes
        assert set(rebuilt.edges()) == set(graph.edges())
        for vertex in graph.node_ids():
            assert rebuilt.node(vertex).opcode == graph.node(vertex).opcode
            assert rebuilt.node(vertex).forbidden == graph.node(vertex).forbidden
            assert rebuilt.node(vertex).live_out == graph.node(vertex).live_out

    def test_wire_preserves_attributes_and_flags(self):
        graph = DataFlowGraph(name="attrs")
        a = graph.add_node(Opcode.INPUT, name="a")
        op = graph.add_node(Opcode.ADD, name="sum", live_out=True, weight=3)
        graph.add_edge(a, op)
        graph.set_forbidden(op, True)
        rebuilt = _over_the_wire(graph)
        assert rebuilt.node(op).attributes == {"weight": 3}
        assert rebuilt.node(op).forbidden
        assert rebuilt.node(op).live_out
        assert graph_to_dict(rebuilt) == graph_to_dict(graph)

    def test_wire_round_trip_preserves_structural_hash(self, loads_graph):
        rebuilt = _over_the_wire(loads_graph)
        assert rebuilt.structural_hash() == loads_graph.structural_hash()


class TestValidation:
    def test_valid_graph_passes(self, diamond_graph):
        report = validate_graph(diamond_graph)
        assert report.ok

    def test_cycle_is_fatal(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.ADD)
        b = graph.add_node(Opcode.ADD)
        graph.add_edge(a, b)
        graph.add_edge(b, a)
        with pytest.raises(ValidationError):
            validate_graph(graph)
        report = validate_graph(graph, raise_on_error=False)
        assert not report.ok

    def test_external_with_predecessor_is_fatal(self):
        graph = DataFlowGraph()
        a = graph.add_node(Opcode.ADD)
        b = graph.add_node(Opcode.INPUT)
        graph._preds[b].append(a)  # deliberately corrupt the structure
        graph._succs[a].append(b)
        graph._edge_set.add((a, b))
        report = validate_graph(graph, raise_on_error=False)
        assert any("external vertex" in message for message in report.errors)

    def test_dead_operation_warns(self):
        builder = DFGBuilder()
        a = builder.input("a")
        builder.add(a, builder.const("1"))  # never used, not live-out
        report = validate_graph(builder.graph, raise_on_error=False)
        assert any("dead" in message for message in report.warnings)

    def test_too_many_operands_warns(self):
        graph = DataFlowGraph()
        inputs = [graph.add_node(Opcode.INPUT, name=f"i{k}") for k in range(3)]
        unary = graph.add_node(Opcode.NOT, live_out=True)
        for vertex in inputs:
            graph.add_edge(vertex, unary)
        report = validate_graph(graph, raise_on_error=False)
        assert any("operands" in message for message in report.warnings)

    def test_store_with_uses_warns(self):
        graph = DataFlowGraph()
        addr = graph.add_node(Opcode.INPUT, name="addr")
        val = graph.add_node(Opcode.INPUT, name="val")
        store = graph.add_node(Opcode.STORE)
        graph.add_edge(addr, store)
        graph.add_edge(val, store)
        consumer = graph.add_node(Opcode.ADD, live_out=True)
        graph.add_edge(store, consumer)
        graph.add_edge(addr, consumer)
        report = validate_graph(graph, raise_on_error=False)
        assert any("store" in message for message in report.warnings)

    @given(dag_seeds)
    def test_random_workload_graphs_are_structurally_valid(self, seed):
        graph = make_random_dag(seed)
        report = validate_graph(graph, raise_on_error=False)
        assert report.ok
