"""Tests for generalized (multiple-vertex) dominators.

The optimised Dubrova-style enumeration, whose reduction steps run the
single-pass DAG kernel, is validated against a brute-force implementation
(``tests/reference/``) that checks Definition 5 literally on every subset.
"""

import pytest
from hypothesis import given

from repro.dfg import augment
from repro.dfg.reachability import mask_from_ids
from repro.dominators import (
    blocks_all_paths,
    dominator_completions,
    enumerate_generalized_dominators,
    has_private_path,
    is_generalized_dominator,
    reachable_mask_avoiding,
)
from tests.conftest import dag_seeds, make_random_dag
from tests.reference.lengauer_tarjan import brute_force_generalized_dominators


def _setup(graph):
    """The augmented graph and its successor lists, topological order and
    predecessor lists."""
    augmented = augment(graph)
    ids = augmented.graph.node_ids()
    succs = [list(augmented.graph.successors(v)) for v in ids]
    preds = [list(augmented.graph.predecessors(v)) for v in ids]
    return augmented, succs, augmented.graph.topological_order(), preds


class TestDefinitionPredicates:
    def test_reachable_avoiding(self):
        succs = [[1, 2], [3], [3], []]
        full = reachable_mask_avoiding(succs, 0)
        assert full == mask_from_ids([0, 1, 2, 3])
        without_one = reachable_mask_avoiding(succs, 0, avoid_mask=1 << 1)
        assert without_one == mask_from_ids([0, 2, 3])
        assert reachable_mask_avoiding(succs, 0, avoid_mask=1) == 0

    def test_blocks_all_paths(self):
        succs = [[1, 2], [3], [3], []]
        assert blocks_all_paths(succs, 0, 3, mask_from_ids([1, 2]))
        assert not blocks_all_paths(succs, 0, 3, mask_from_ids([1]))
        assert blocks_all_paths(succs, 0, 3, mask_from_ids([3]))

    def test_private_path(self):
        succs = [[1, 2], [3], [3], []]
        assert has_private_path(succs, 0, 3, member=1, others_mask=1 << 2)
        # With vertex 3 itself avoided, vertex 1 cannot reach the target.
        assert not has_private_path(succs, 0, 3, member=1, others_mask=1 << 3)

    def test_is_generalized_dominator_basic(self):
        succs = [[1, 2], [3], [3], []]
        assert is_generalized_dominator(succs, 0, 3, [1, 2])
        assert not is_generalized_dominator(succs, 0, 3, [1])
        # Redundant member: {0, 1, 2} violates condition 2 because 0 blocks
        # everything on its own.
        assert not is_generalized_dominator(succs, 0, 3, [0, 1, 2])
        assert is_generalized_dominator(succs, 0, 3, [0])
        assert not is_generalized_dominator(succs, 0, 3, [])
        assert not is_generalized_dominator(succs, 0, 3, [3])


class TestCompletions:
    def test_single_dominators_of_diamond_target(self, diamond_graph):
        augmented, _, order, preds = _setup(diamond_graph)
        ops = diamond_graph.operation_nodes()
        bottom = ops[-1]
        step = dominator_completions(order, preds, augmented.source, bottom)
        assert not step.already_dominated
        # The shift operand is a constant wired from the artificial source, so
        # the only single-vertex dominator of the diamond's bottom vertex is
        # the source itself.
        assert step.completions == [augmented.source]

    def test_single_dominators_of_chain(self, chain_graph):
        augmented, _, order, preds = _setup(chain_graph)
        ops = chain_graph.operation_nodes()
        first, last = ops[0], ops[-1]
        step = dominator_completions(order, preds, augmented.source, last)
        assert not step.already_dominated
        # Every earlier chain operation dominates the last one.
        for vertex in ops[:-1]:
            assert vertex in step.completions
        assert first in step.completions

    def test_already_dominated_when_seed_blocks(self, chain_graph):
        augmented, _, order, preds = _setup(chain_graph)
        ops = chain_graph.operation_nodes()
        first, last = ops[0], ops[-1]
        step = dominator_completions(
            order, preds, augmented.source, last, seed_mask=1 << first
        )
        assert step.already_dominated

    def test_seed_containing_target_rejected(self, chain_graph):
        augmented, _, order, preds = _setup(chain_graph)
        target = chain_graph.operation_nodes()[-1]
        with pytest.raises(ValueError):
            dominator_completions(
                order, preds, augmented.source, target, seed_mask=1 << target
            )


class TestEnumeration:
    @given(dag_seeds)
    def test_matches_brute_force(self, seed):
        graph = make_random_dag(seed, num_operations=7)
        augmented, succs, order, preds = _setup(graph)
        root = augmented.source
        operations = graph.candidate_nodes()
        if not operations:
            return
        target = operations[-1]
        ancestors = set()
        stack = list(augmented.graph.predecessors(target))
        while stack:
            vertex = stack.pop()
            if vertex in ancestors:
                continue
            ancestors.add(vertex)
            stack.extend(augmented.graph.predecessors(vertex))
        ancestors.discard(root)

        fast = enumerate_generalized_dominators(
            succs, order, preds, root, target, max_size=3, candidates=ancestors
        )
        slow = brute_force_generalized_dominators(
            succs, root, target, max_size=3, candidates=ancestors
        )
        assert fast == slow

    def test_max_size_zero_returns_nothing(self, diamond_graph):
        augmented, succs, order, preds = _setup(diamond_graph)
        target = diamond_graph.operation_nodes()[-1]
        assert enumerate_generalized_dominators(
            succs, order, preds, augmented.source, target, max_size=0,
            candidates=augmented.graph.ancestors(target),
        ) == set()

    def test_search_stats_count_real_lt_calls(self, diamond_graph, monkeypatch):
        """The counter reports one kernel run per explored seed set."""
        from repro.dominators import DominatorSearchStats
        from repro.dominators import multi_vertex

        augmented, succs, order, preds = _setup(diamond_graph)
        root = augmented.source
        target = diamond_graph.operation_nodes()[-1]

        observed = []
        original = multi_vertex.dominator_completions

        def counting(*args, **kwargs):
            step = original(*args, **kwargs)
            observed.append(step.lt_calls)
            return step

        monkeypatch.setattr(multi_vertex, "dominator_completions", counting)
        stats = DominatorSearchStats()
        enumerate_generalized_dominators(
            succs, order, preds, root, target, max_size=3,
            candidates=augmented.graph.ancestors(target), search_stats=stats,
        )
        assert stats.lt_calls > 0
        assert stats.lt_calls == sum(observed)

    def test_results_satisfy_definition(self, paper_figure1_graph):
        augmented, succs, order, preds = _setup(paper_figure1_graph)
        root = augmented.source
        names = {paper_figure1_graph.node(v).name: v for v in paper_figure1_graph.node_ids()}
        result = enumerate_generalized_dominators(
            succs, order, preds, root, names["Y"], max_size=3,
            candidates=augmented.graph.ancestors(names["Y"]),
        )
        assert result, "Y must have at least one generalized dominator"
        for dominator_set in result:
            assert is_generalized_dominator(succs, root, names["Y"], dominator_set)
        # Figure 1(b): {N, B, C} is a generalized dominator of Y.
        assert frozenset({names["N"], names["B"], names["C"]}) in result
