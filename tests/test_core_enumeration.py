"""Tests of the two polynomial enumeration algorithms on known graphs."""

import hashlib
import json

import pytest

from repro.baselines import enumerate_cuts_brute_force, enumerate_cuts_exhaustive
from repro.core import (
    FULL_PRUNING,
    NO_PRUNING,
    Constraints,
    EnumerationContext,
    enumerate_cuts,
    enumerate_cuts_basic,
)
from repro.dfg.builder import linear_chain
from repro.dfg.reachability import ids_from_mask
from repro.engine import available_algorithms, get_algorithm
from repro.engine.registry import EnumerationRequest
from repro.frontend.corpus import build_corpus_suite
from repro.workloads.trees import tree_dfg
from tests.conftest import skip_unless_recorded_corpus


class TestChainCounts:
    """On a dependence chain every contiguous segment is a convex cut."""

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
    def test_single_output_segments(self, length):
        graph = linear_chain(length)
        constraints = Constraints(max_inputs=4, max_outputs=1)
        result = enumerate_cuts(graph, constraints)
        # Segments of length 1..length starting anywhere, as long as they need
        # at most 4 inputs: a segment needs 2 inputs (1 for interior ones), so
        # every contiguous segment is valid.
        expected = length * (length + 1) // 2
        assert len(result) == expected

    def test_chain_matches_brute_force(self):
        graph = linear_chain(5)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        poly = enumerate_cuts(graph, constraints).node_sets()
        oracle = enumerate_cuts_brute_force(graph, constraints).node_sets()
        assert poly == oracle


class TestDiamond:
    def test_both_algorithms_match_oracle(self, diamond_graph, default_constraints):
        oracle = enumerate_cuts_brute_force(diamond_graph, default_constraints).node_sets()
        basic = enumerate_cuts_basic(diamond_graph, default_constraints).node_sets()
        incremental = enumerate_cuts(diamond_graph, default_constraints).node_sets()
        assert basic == oracle
        assert incremental == oracle

    def test_every_cut_is_valid(self, diamond_graph, default_constraints):
        result = enumerate_cuts(diamond_graph, default_constraints)
        ctx = EnumerationContext.build(diamond_graph, default_constraints)
        for cut in result:
            assert cut.num_inputs <= default_constraints.max_inputs
            assert cut.num_outputs <= default_constraints.max_outputs
            assert cut.is_convex(ctx)
            assert not (cut.nodes & ctx.augmented.forbidden)

    def test_shared_context_reuse(self, diamond_graph, default_constraints):
        ctx = EnumerationContext.build(diamond_graph, default_constraints)
        first = enumerate_cuts(diamond_graph, default_constraints, context=ctx)
        second = enumerate_cuts(diamond_graph, default_constraints, context=ctx)
        assert first.node_sets() == second.node_sets()


class TestPaperFigure1:
    def test_paper_cuts_are_found(self, paper_figure1_graph):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        names = {
            paper_figure1_graph.node(v).name: v
            for v in paper_figure1_graph.node_ids()
        }
        found = enumerate_cuts(paper_figure1_graph, constraints).node_sets()
        # Figure 1(b): {Y}; Figure 1(d): {N, X, Y}.
        assert frozenset({names["Y"]}) in found
        assert frozenset({names["N"], names["X"], names["Y"]}) in found

    def test_figure1c_excluded_with_one_output(self, paper_figure1_graph):
        constraints = Constraints(max_inputs=4, max_outputs=1)
        names = {
            paper_figure1_graph.node(v).name: v
            for v in paper_figure1_graph.node_ids()
        }
        found = enumerate_cuts(paper_figure1_graph, constraints).node_sets()
        # Figure 1(c): {N, X} has an extra internal output and is invalid
        # under a single-output constraint.
        assert frozenset({names["N"], names["X"]}) not in found
        for cut_nodes in found:
            assert len(cut_nodes) >= 1


class TestForbiddenNodes:
    def test_loads_never_inside_cuts(self, loads_graph, default_constraints):
        result = enumerate_cuts(loads_graph, default_constraints)
        forbidden = loads_graph.forbidden_nodes()
        for cut in result:
            assert not (cut.nodes & forbidden)

    def test_loads_can_be_inputs(self, loads_graph, default_constraints):
        result = enumerate_cuts(loads_graph, default_constraints)
        forbidden = loads_graph.forbidden_nodes()
        assert any(cut.inputs & forbidden for cut in result)

    def test_allow_memory_ops_enlarges_result(self, loads_graph):
        strict = enumerate_cuts(loads_graph, Constraints(max_inputs=4, max_outputs=2))
        relaxed = enumerate_cuts(
            loads_graph, Constraints(max_inputs=4, max_outputs=2, allow_memory_ops=True)
        )
        assert len(relaxed) > len(strict)
        assert strict.node_sets() <= relaxed.node_sets()


class TestConstraintsEffect:
    def test_result_grows_with_budget(self, diamond_graph):
        sizes = []
        for nin, nout in [(1, 1), (2, 1), (2, 2), (4, 2)]:
            result = enumerate_cuts(diamond_graph, Constraints(nin, nout))
            sizes.append(len(result))
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_connected_only_subset(self, paper_figure1_graph):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        connected = enumerate_cuts(
            paper_figure1_graph,
            Constraints(max_inputs=4, max_outputs=2, connected_only=True),
        ).node_sets()
        everything = enumerate_cuts(paper_figure1_graph, constraints).node_sets()
        assert connected <= everything


class TestTreeWorstCase:
    def test_tree_matches_exhaustive(self):
        graph = tree_dfg(3)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        poly = enumerate_cuts(graph, constraints).node_sets()
        exhaustive = enumerate_cuts_exhaustive(graph, constraints).node_sets()
        assert poly == exhaustive
        assert len(poly) > 0


class TestStatistics:
    def test_stats_counters_populated(self, diamond_graph, default_constraints):
        result = enumerate_cuts(diamond_graph, default_constraints)
        stats = result.stats
        assert stats.cuts_found == len(result)
        assert stats.lt_calls > 0
        assert stats.pick_output_calls > 0
        assert stats.elapsed_seconds > 0
        summary = stats.summary()
        assert f"dominator arrays    : {stats.lt_calls}" in summary

    def test_pruning_counters_only_with_pruning(self, loads_graph, default_constraints):
        pruned = enumerate_cuts(loads_graph, default_constraints, pruning=FULL_PRUNING)
        unpruned = enumerate_cuts(loads_graph, default_constraints, pruning=NO_PRUNING)
        assert unpruned.stats.pruned == {}
        # Both configurations live inside the sound/complete envelope; the
        # relaxed internal-output acceptance of the pruned configuration may
        # legitimately add a few extra valid cuts (see test_core_oracle.py).
        oracle = enumerate_cuts_brute_force(loads_graph, default_constraints).node_sets()
        paper_oracle = enumerate_cuts_brute_force(
            loads_graph, default_constraints, paper_semantics=True
        ).node_sets()
        assert paper_oracle <= pruned.node_sets() <= oracle
        assert paper_oracle <= unpruned.node_sets() <= oracle

    def test_result_helpers(self, diamond_graph, default_constraints):
        result = enumerate_cuts(diamond_graph, default_constraints)
        assert len(result.largest(2)) == 2
        assert result.largest(1)[0].num_nodes == max(c.num_nodes for c in result)
        multi = result.filter(lambda cut: cut.num_outputs > 1)
        assert all(cut.num_outputs > 1 for cut in multi)

    def test_basic_algorithm_stats(self, diamond_graph, default_constraints):
        result = enumerate_cuts_basic(diamond_graph, default_constraints)
        assert result.algorithm == "poly-enum-basic"
        assert result.stats.candidates_checked > 0


#: Per algorithm, the first 16 hex digits of a SHA-256 over every corpus
#: block's ``json.dumps([name, cuts])``, each cut as (sorted nodes, inputs,
#: outputs), with the cuts in discovery order and sorted, recorded when every
#: enumerator still built each Cut eagerly.  The discovery-order digests of
#: poly-enum-incremental and of connected-only, which runs it at Nout > 1,
#: were recorded again when its seed trees became ordered; the sorted
#: digests were taken before, so the cut sets are the same.
EAGER_CUT_DIGESTS = {
    "brute-force": ("c3144c51648e658c", "f5af93ceafa97cae"),
    "connected-only": ("50de743dac614ee2", "510f00f2592a06c5"),
    "exhaustive": ("98da052c254d5863", "f5af93ceafa97cae"),
    "poly-enum-basic": ("1344cdb359ba0ff4", "fd3fecd5f62aab65"),
    "poly-enum-incremental": ("c125b40370fa87bd", "d2bc8c528f11764d"),
}


class TestMaskNativeResults:
    @pytest.fixture(scope="class")
    def corpus(self):
        return list(build_corpus_suite(profile=False))

    @pytest.mark.parametrize("name", available_algorithms())
    def test_lazy_cuts_equal_the_eager_lists(self, name, corpus, cut_builds):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        algorithm = get_algorithm(name)
        limit = algorithm.capabilities.max_candidate_nodes
        digest = hashlib.sha256()
        sorted_digest = hashlib.sha256()
        for graph in corpus:
            context = EnumerationContext.build(graph, constraints)
            if limit is not None and len(context.candidate_nodes) > limit:
                continue
            result = algorithm.enumerate(
                EnumerationRequest(
                    graph=graph,
                    constraints=constraints,
                    context=context if algorithm.capabilities.supports_context else None,
                )
            )
            # The size and the vertex sets come from the masks alone.
            assert len(result) == len(result.masks) == result.stats.cuts_found
            assert result.node_sets() == {frozenset(ids_from_mask(m)) for m in result.masks}
            assert cut_builds == []
            cuts = result.cuts
            assert cut_builds == result.masks and result.cuts is cuts
            cut_builds.clear()
            reach = result.context.reach
            for cut, mask in zip(cuts, result.masks):
                assert cut.nodes == frozenset(ids_from_mask(mask))
                assert cut.inputs == frozenset(ids_from_mask(reach.cut_inputs_mask(mask)))
                assert cut.outputs == frozenset(ids_from_mask(reach.cut_outputs_mask(mask)))
                assert cut.graph_name == graph.name
            rows = [(sorted(c.nodes), sorted(c.inputs), sorted(c.outputs)) for c in cuts]
            digest.update(json.dumps([graph.name, rows]).encode())
            sorted_digest.update(json.dumps([graph.name, sorted(rows)]).encode())
        skip_unless_recorded_corpus(corpus)
        recorded, recorded_sorted = EAGER_CUT_DIGESTS[name]
        assert digest.hexdigest()[:16] == recorded
        assert sorted_digest.hexdigest()[:16] == recorded_sorted

    def test_empty_result_needs_no_context(self):
        from repro.core.stats import EnumerationResult

        assert EnumerationResult().cuts == []
        with pytest.raises(ValueError, match="context"):
            EnumerationResult(masks=[0b10]).cuts
