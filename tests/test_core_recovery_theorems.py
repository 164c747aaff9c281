"""Recovery pass tests and property tests encoding the paper's theorems."""

from hypothesis import given

from repro.baselines import enumerate_cuts_brute_force
from repro.core import (
    Constraints,
    Cut,
    EnumerationContext,
    enumerate_cuts,
    enumerate_with_recovery,
)
from repro.core.cut import build_body_mask
from repro.core.recovery import head_vertices, recover_excluded_cuts
from repro.core.validity import is_valid_cut_mask, satisfies_technical_condition
from repro.dfg.reachability import mask_from_ids
from repro.dominators.generalized import is_generalized_dominator
from tests.conftest import dag_seeds, io_constraints, make_random_dag


# --------------------------------------------------------------------------- #
# Recovery of cuts excluded by the paper's restrictions
# --------------------------------------------------------------------------- #
class TestRecovery:
    def test_head_vertices_have_no_internal_predecessor(self, diamond_context):
        ops = diamond_context.original_graph.operation_nodes()
        mask = mask_from_ids(ops)
        heads = head_vertices(diamond_context, mask)
        for vertex in heads:
            assert not (
                diamond_context.reach.predecessors_mask(vertex) & mask
            )
        # The diamond has exactly one head: the top vertex.
        assert heads == [ops[0]]

    @given(dag_seeds)
    def test_recovered_cuts_are_valid_and_new(self, seed):
        graph = make_random_dag(seed)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        ctx = EnumerationContext.build(graph, constraints)
        base = enumerate_cuts(graph, constraints, context=ctx)
        recovered = recover_excluded_cuts(ctx, base.cuts)
        base_sets = base.node_sets()
        for cut in recovered:
            assert cut.nodes not in base_sets
            assert is_valid_cut_mask(ctx, cut.node_mask())

    @given(dag_seeds)
    def test_recovery_improves_coverage(self, seed):
        graph = make_random_dag(seed)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        ctx = EnumerationContext.build(graph, constraints)
        oracle = enumerate_cuts_brute_force(graph, constraints, context=ctx).node_sets()
        base = enumerate_cuts(graph, constraints, context=ctx)
        combined = enumerate_with_recovery(base, ctx)
        combined_sets = combined.node_sets()
        assert base.node_sets() <= combined_sets <= oracle
        assert combined.algorithm.endswith("+recovery")

    def test_max_extra_bound(self, diamond_context, diamond_graph):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        base = enumerate_cuts(diamond_graph, constraints, context=diamond_context)
        limited = recover_excluded_cuts(diamond_context, base.cuts, max_extra=1)
        assert len(limited) <= 1


# --------------------------------------------------------------------------- #
# Theorems 1-3 of the paper as executable properties
# --------------------------------------------------------------------------- #
class TestTheorems:
    @given(dag_seeds, io_constraints)
    def test_theorem1_inputs_to_output_are_generalized_dominators(self, seed, constraints):
        """Theorem 1: for a convex cut satisfying the Section 3 condition, the
        inputs feeding each output form a generalized dominator of that output."""
        graph = make_random_dag(seed, num_operations=7)
        ctx = EnumerationContext.build(graph, constraints)
        oracle = enumerate_cuts_brute_force(graph, constraints, context=ctx)
        for cut in oracle.cuts:
            mask = cut.node_mask()
            if not satisfies_technical_condition(ctx, mask):
                continue
            for output in cut.outputs:
                inputs_to_output = cut.inputs_to_output(output, ctx)
                if not inputs_to_output:
                    continue
                assert is_generalized_dominator(
                    ctx.successor_lists,
                    ctx.source,
                    output,
                    inputs_to_output,
                )

    @given(dag_seeds, io_constraints)
    def test_theorem2_io_identification(self, seed, constraints):
        """Theorem 2: two different cuts satisfying the paper's restricted
        definition never share the same (inputs, outputs) pair."""
        graph = make_random_dag(seed, num_operations=7)
        ctx = EnumerationContext.build(graph, constraints)
        oracle = enumerate_cuts_brute_force(
            graph, constraints, context=ctx, paper_semantics=True
        )
        seen = {}
        for cut in oracle.cuts:
            key = (cut.inputs, cut.outputs)
            assert key not in seen, (
                f"two distinct paper-enumerable cuts share I/O: {seen[key]} and {cut.nodes}"
            )
            seen[key] = cut.nodes

    @given(dag_seeds, io_constraints)
    def test_theorem3_construction_is_convex_with_bounded_inputs(self, seed, constraints):
        """Theorem 3: the body built from any (dominating inputs, outputs)
        choice is convex and introduces no inputs outside the chosen set."""
        graph = make_random_dag(seed, num_operations=7)
        ctx = EnumerationContext.build(graph, constraints)
        oracle = enumerate_cuts_brute_force(graph, constraints, context=ctx)
        for cut in oracle.cuts:
            inputs_mask = mask_from_ids(cut.inputs)
            outputs_mask = mask_from_ids(cut.outputs)
            # The union of the B(I, o) sets is always convex (any vertex on a
            # path between two members is itself on an input-to-output path).
            raw_union = 0
            for output in cut.outputs:
                raw_union |= ctx.reach.between_mask(inputs_mask, output)
            if raw_union:
                assert ctx.reach.is_convex_mask(raw_union)
            # For cuts that are I/O-identified the reconstruction is exact, so
            # in particular it introduces no inputs beyond the chosen set.
            # (For non-identified cuts the reconstructed body can legitimately
            # differ — that is precisely the boundary the enumeration lives
            # within, see repro.core.validity.is_io_identified.)
            from repro.core.validity import is_io_identified

            body = build_body_mask(ctx, inputs_mask, outputs_mask)
            if body == 0 or not is_io_identified(ctx, cut.node_mask()):
                continue
            rebuilt = Cut.from_mask(ctx, body)
            assert rebuilt.nodes == cut.nodes
            assert rebuilt.inputs == cut.inputs

    @given(dag_seeds)
    def test_reconstruction_equals_original_for_identified_cuts(self, seed):
        """The reconstruction of Theorem 2/3 reproduces exactly the cuts that
        satisfy the I/O-identification predicate."""
        from repro.core.validity import is_io_identified

        graph = make_random_dag(seed, num_operations=7)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        ctx = EnumerationContext.build(graph, constraints)
        oracle = enumerate_cuts_brute_force(graph, constraints, context=ctx)
        for cut in oracle.cuts:
            mask = cut.node_mask()
            body = build_body_mask(
                ctx, mask_from_ids(cut.inputs), mask_from_ids(cut.outputs)
            )
            assert (body == mask) == is_io_identified(ctx, mask)
