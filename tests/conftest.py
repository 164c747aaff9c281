"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.core import Constraints, Cut, EnumerationContext
from repro.dfg import DataFlowGraph, DFGBuilder, Opcode
from repro.dfg.builder import diamond, linear_chain

# Hypothesis profile: the enumeration cross-checks are CPU heavy, so keep the
# example counts moderate and disable the too-slow health check.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Deterministic example graphs
# --------------------------------------------------------------------------- #
@pytest.fixture
def diamond_graph() -> DataFlowGraph:
    """The 4-operation diamond used throughout the unit tests."""
    return diamond()


@pytest.fixture
def chain_graph() -> DataFlowGraph:
    """A 5-operation dependence chain."""
    return linear_chain(5)


@pytest.fixture
def paper_figure1_graph() -> DataFlowGraph:
    """The data-flow graph of Figure 1 of the paper.

    Three external inputs A, B, C; the interior vertex N; two live-out
    vertices X and Y.  Vertex ids: A=0, B=1, C=2, N=3, X=4, Y=5.
    """
    graph = DataFlowGraph(name="paper_figure1")
    a = graph.add_node(Opcode.INPUT, name="A")
    b = graph.add_node(Opcode.INPUT, name="B")
    c = graph.add_node(Opcode.INPUT, name="C")
    n = graph.add_node(Opcode.ADD, name="N")
    x = graph.add_node(Opcode.ADD, name="X", live_out=True)
    y = graph.add_node(Opcode.ADD, name="Y", live_out=True)
    graph.add_edge(a, n)
    graph.add_edge(b, n)
    graph.add_edge(a, x)
    graph.add_edge(n, x)
    graph.add_edge(n, y)
    graph.add_edge(b, y)
    graph.add_edge(c, y)
    return graph


@pytest.fixture
def loads_graph() -> DataFlowGraph:
    """A small graph containing forbidden memory operations."""
    builder = DFGBuilder("with_loads")
    base = builder.input("base")
    offset = builder.input("offset")
    addr = builder.add(base, offset, name="addr")
    value = builder.load(addr, name="value")
    scaled = builder.shl(value, builder.const("2"), name="scaled")
    total = builder.add(scaled, offset, name="total", live_out=True)
    builder.mark_live_out(total)
    return builder.build()


@pytest.fixture
def default_constraints() -> Constraints:
    """The paper's experimental constraints: Nin=4, Nout=2."""
    return Constraints(max_inputs=4, max_outputs=2)


@pytest.fixture
def diamond_context(diamond_graph, default_constraints) -> EnumerationContext:
    """Pre-built enumeration context for the diamond graph."""
    return EnumerationContext.build(diamond_graph, default_constraints)


# --------------------------------------------------------------------------- #
# Random-graph helpers shared by property tests
# --------------------------------------------------------------------------- #
def make_random_dag(
    seed: int,
    num_operations: int = 8,
    num_inputs: int = 3,
    memory_probability: float = 0.2,
    live_out_probability: float = 0.15,
) -> DataFlowGraph:
    """Random small DAG with realistic fan-in, used as the property-test substrate."""
    rng = random.Random(seed)
    graph = DataFlowGraph(name=f"random_{seed}")
    producers = [graph.add_node(Opcode.INPUT, name=f"in{i}") for i in range(num_inputs)]
    opcode_pool = [Opcode.ADD, Opcode.MUL, Opcode.XOR, Opcode.SHL, Opcode.AND, Opcode.SUB]
    for index in range(num_operations):
        if rng.random() < memory_probability:
            opcode = Opcode.LOAD if rng.random() < 0.7 else Opcode.STORE
        else:
            opcode = rng.choice(opcode_pool)
        node_id = graph.add_node(opcode, name=f"op{index}")
        arity = 1 if opcode is Opcode.LOAD else 2
        for operand in rng.sample(producers, min(arity, len(producers))):
            graph.add_edge(operand, node_id)
        if opcode is not Opcode.STORE:
            producers.append(node_id)
    for vertex in graph.operation_nodes():
        if graph.out_degree(vertex) and rng.random() < live_out_probability:
            graph.set_live_out(vertex, True)
    return graph


#: Hypothesis strategy producing seeds for :func:`make_random_dag`.
dag_seeds = st.integers(min_value=0, max_value=10_000)

#: Strategy over the I/O constraint combinations used in the paper's domain.
io_constraints = st.sampled_from(
    [Constraints(max_inputs=2, max_outputs=1),
     Constraints(max_inputs=3, max_outputs=1),
     Constraints(max_inputs=3, max_outputs=2),
     Constraints(max_inputs=4, max_outputs=2)]
)


# --------------------------------------------------------------------------- #
# Mask-native results: counting Cut builds, recorded corpus values
# --------------------------------------------------------------------------- #
@pytest.fixture
def cut_builds(monkeypatch):
    """The mask of every ``Cut.from_mask`` call made in this process while the test runs."""
    calls = []
    build = Cut.from_mask.__func__

    def counting(cls, context, node_mask):
        calls.append(node_mask)
        return build(cls, context, node_mask)

    monkeypatch.setattr(Cut, "from_mask", classmethod(counting))
    return calls


#: :func:`corpus_fingerprint` of the frontend corpus as CPython 3.11 compiles
#: it: the corpus that the recorded expected values in the tests describe.
RECORDED_CORPUS = "38e7200b80fb118e"


def corpus_fingerprint(graphs) -> str:
    """Short hash over the structural hashes of *graphs*, in order."""
    joined = "".join(graph.structural_hash() for graph in graphs)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def skip_unless_recorded_corpus(graphs) -> None:
    """Skip the rest of a test whose expected values describe another corpus."""
    if corpus_fingerprint(graphs) != RECORDED_CORPUS:
        pytest.skip("the recorded values describe the corpus as CPython 3.11 compiles it")


def integer_stats(stats) -> dict:
    """The deterministic counters of an ``EnumerationStats``: every integer
    field and the per-rule ``pruned`` counts (timings excluded)."""
    return {
        spec.name: getattr(stats, spec.name)
        for spec in dataclasses.fields(stats)
        if not isinstance(getattr(stats, spec.name), float)
    }


def run_git(repo: Path, *argv: str) -> None:
    """Run ``git *argv`` in the throwaway repository *repo*, isolated from
    the user's configuration."""
    subprocess.run(
        ["git", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
