"""Tests for the instruction-set-extension layer (latency, speedup, selection, pipeline)."""


import math

import pytest
from hypothesis import given

from repro.baselines import enumerate_cuts_exhaustive
from repro.core import Constraints, EnumerationContext, enumerate_cuts
from repro.core.validity import check_cut_mask
from repro.dfg.opcodes import area_cost, hardware_latency, software_latency
from repro.frontend.corpus import build_corpus_suite, corpus_block_profiles
from repro.ise import (
    DEFAULT_LATENCY_MODEL,
    BlockProfile,
    LatencyModel,
    SelectionConfig,
    cut_area,
    estimate_block_speedup,
    identify_instruction_set_extension,
    is_disjoint_selection,
    make_instruction,
    score_cut,
    score_cuts,
    select_cuts,
    selection_covers,
    total_software_cycles,
)
from repro.ise.latency import CutCosts
from repro.ise.speedup import score_masks
from repro.memo import ResultStore
from repro.workloads.kernels import all_kernels, build_kernel
from repro.workloads.trees import tree_dfg
from tests.conftest import dag_seeds, make_random_dag, skip_unless_recorded_corpus


@pytest.fixture
def crc_setup():
    graph = build_kernel("crc32_step")
    constraints = Constraints(max_inputs=4, max_outputs=2)
    ctx = EnumerationContext.build(graph, constraints)
    cuts = enumerate_cuts(graph, constraints, context=ctx).cuts
    return graph, ctx, cuts


class TestLatencyModel:
    def test_software_cost_is_sum_of_latencies(self, crc_setup):
        graph, ctx, cuts = crc_setup
        model = DEFAULT_LATENCY_MODEL
        for cut in cuts[:10]:
            expected = sum(
                software_latency(ctx.augmented.graph.node(v).opcode) for v in cut.nodes
            )
            assert model.software_cost(cut, ctx) == pytest.approx(expected)

    def test_hardware_critical_path_leq_sum(self, crc_setup):
        graph, ctx, cuts = crc_setup
        model = DEFAULT_LATENCY_MODEL
        for cut in cuts[:10]:
            critical = model.hardware_critical_path(cut, ctx)
            total = sum(
                ctx.augmented.graph.node(v).hw_latency for v in cut.nodes
            )
            assert critical <= total + 1e-9
            assert critical >= 0

    def test_hardware_cost_includes_transfer_penalty(self, crc_setup):
        graph, ctx, cuts = crc_setup
        # A model with zero base ports charges every operand/result.
        harsh = LatencyModel(base_isa_read_ports=0, base_isa_write_ports=0)
        default = DEFAULT_LATENCY_MODEL
        for cut in cuts[:10]:
            assert harsh.hardware_cost(cut, ctx) >= default.hardware_cost(cut, ctx)

    def test_single_operation_cut_costs_one_cycle(self, crc_setup):
        graph, ctx, cuts = crc_setup
        singles = [cut for cut in cuts if cut.num_nodes == 1 and cut.num_inputs <= 2]
        assert singles
        for cut in singles:
            assert DEFAULT_LATENCY_MODEL.hardware_cost(cut, ctx) >= 1.0

    def test_total_software_cycles_positive(self, crc_setup):
        graph, ctx, _ = crc_setup
        assert total_software_cycles(ctx) > 0

    def test_cut_area_monotone_in_size(self, crc_setup):
        graph, ctx, cuts = crc_setup
        by_size = sorted(cuts, key=lambda cut: cut.num_nodes)
        assert cut_area(by_size[0], ctx) <= cut_area(by_size[-1], ctx) + 1e-9


class TestScoring:
    def test_scores_sorted_by_gain(self, crc_setup):
        graph, ctx, cuts = crc_setup
        scored = score_cuts(cuts, ctx, execution_count=100.0)
        gains = [entry.weighted_gain for entry in scored]
        assert gains == sorted(gains, reverse=True)
        assert all(entry.saved_cycles_per_execution > 0 for entry in scored)

    def test_execution_count_scales_gain(self, crc_setup):
        graph, ctx, cuts = crc_setup
        cut = max(cuts, key=lambda c: c.num_nodes)
        light = score_cut(cut, ctx, execution_count=1.0)
        heavy = score_cut(cut, ctx, execution_count=50.0)
        assert heavy.weighted_gain == pytest.approx(50.0 * light.weighted_gain)
        assert heavy.saved_cycles_per_execution == pytest.approx(
            light.saved_cycles_per_execution
        )

    def test_keep_only_profitable_flag(self, crc_setup):
        graph, ctx, cuts = crc_setup
        everything = score_cuts(cuts, ctx, keep_only_profitable=False)
        assert len(everything) == len(cuts)

    def test_gain_per_area(self, crc_setup):
        graph, ctx, cuts = crc_setup
        scored = score_cuts(cuts, ctx)
        for entry in scored:
            if entry.area > 0:
                assert entry.gain_per_area == pytest.approx(
                    entry.weighted_gain / entry.area
                )

    def test_block_speedup_greater_than_one_with_selection(self, crc_setup):
        graph, ctx, cuts = crc_setup
        scored = score_cuts(cuts, ctx)
        selected = select_cuts(scored, SelectionConfig(max_instructions=2))
        speedup = estimate_block_speedup(selected, ctx)
        assert speedup > 1.0


class TestSelection:
    def test_selection_is_disjoint(self, crc_setup):
        graph, ctx, cuts = crc_setup
        selected = select_cuts(score_cuts(cuts, ctx))
        assert is_disjoint_selection(selected)

    def test_max_instructions_respected(self, crc_setup):
        graph, ctx, cuts = crc_setup
        selected = select_cuts(score_cuts(cuts, ctx), SelectionConfig(max_instructions=1))
        assert len(selected) <= 1

    def test_area_budget_respected(self, crc_setup):
        graph, ctx, cuts = crc_setup
        scored = score_cuts(cuts, ctx)
        budget = 2.0
        selected = select_cuts(scored, SelectionConfig(area_budget=budget))
        assert sum(entry.area for entry in selected) <= budget + 1e-9

    def test_density_mode_changes_priorities(self, crc_setup):
        graph, ctx, cuts = crc_setup
        scored = score_cuts(cuts, ctx)
        by_gain = select_cuts(scored, SelectionConfig(max_instructions=3))
        by_density = select_cuts(
            scored, SelectionConfig(max_instructions=3, by_density=True)
        )
        assert is_disjoint_selection(by_density)
        assert selection_covers(by_gain) and selection_covers(by_density)

    @given(dag_seeds)
    def test_selection_never_overlaps_on_random_graphs(self, seed):
        graph = make_random_dag(seed)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        ctx = EnumerationContext.build(graph, constraints)
        cuts = enumerate_cuts(graph, constraints, context=ctx).cuts
        selected = select_cuts(score_cuts(cuts, ctx))
        assert is_disjoint_selection(selected)


class TestPipeline:
    def test_pipeline_produces_extension(self):
        blocks = [
            BlockProfile(build_kernel("crc32_step"), execution_count=1000),
            BlockProfile(build_kernel("aes_mix_column"), execution_count=500),
        ]
        result = identify_instruction_set_extension(
            blocks, Constraints(max_inputs=4, max_outputs=2),
            selection=SelectionConfig(max_instructions=2),
            application_name="crypto_app",
        )
        assert len(result.extension) >= 1
        assert result.application_speedup >= 1.0
        text = result.summary()
        assert "crypto_app" in text
        assert "application speedup" in text

    def test_instruction_records(self):
        graph = build_kernel("aes_mix_column")
        constraints = Constraints(max_inputs=4, max_outputs=2)
        ctx = EnumerationContext.build(graph, constraints)
        cuts = enumerate_cuts(graph, constraints, context=ctx).cuts
        scored = score_cuts(cuts, ctx)
        assert scored
        instruction = make_instruction("cust0", scored[0], ctx)
        assert instruction.name == "cust0"
        assert instruction.num_operands == scored[0].cut.num_inputs
        assert instruction.num_results == scored[0].cut.num_outputs
        assert instruction.latency_cycles >= 1
        assert len(instruction.opcodes) == scored[0].cut.num_nodes
        assert "cust0" in instruction.describe()

    def test_block_results_track_speedup(self):
        blocks = [BlockProfile(build_kernel("adpcm_decode_step"), execution_count=10)]
        result = identify_instruction_set_extension(blocks)
        assert len(result.blocks) == 1
        block = result.blocks[0]
        assert block.num_candidate_cuts > 0
        assert block.block_speedup >= 1.0
        assert block.software_cycles > 0

    def test_empty_selection_keeps_speedup_at_one(self):
        blocks = [BlockProfile(build_kernel("gsm_add_saturated"))]
        result = identify_instruction_set_extension(
            blocks, selection=SelectionConfig(max_instructions=0)
        )
        assert result.application_speedup == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Mask scoring, selection on masks, Cut objects only for the selection
# --------------------------------------------------------------------------- #
CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


def _reference(context, cut, model):
    """(software, hardware, area, critical path) of *cut*, from the definitions."""
    graph = context.augmented.graph
    opcode = {v: graph.node(v).opcode for v in cut.nodes}
    software = sum(software_latency(opcode[v]) for v in cut.nodes)
    area = sum(area_cost(opcode[v]) for v in cut.nodes)
    finish = {}

    def ready(vertex):  # longest path of the induced subgraph ending at vertex
        if vertex not in finish:
            inside = [p for p in graph.predecessors(vertex) if p in cut.nodes]
            latest = max((ready(p) for p in inside), default=0.0)
            finish[vertex] = latest + hardware_latency(opcode[vertex])
        return finish[vertex]

    critical = max(ready(v) for v in cut.nodes)
    report = check_cut_mask(context, cut.node_mask())
    step = model.hw_cycle_granularity
    transfers = max(0, report.num_inputs - model.base_isa_read_ports) + max(
        0, report.num_outputs - model.base_isa_write_ports
    )
    hardware = max(step, math.ceil(critical / step) * step)
    hardware += model.cycles_per_extra_transfer * transfers
    return software, hardware, area, critical


@pytest.fixture(scope="module")
def every_cut():
    """Every valid cut of the corpus blocks, the 11 kernels and tree_dfg(4)."""
    graphs = list(build_corpus_suite(profile=False)) + all_kernels() + [tree_dfg(4)]
    pairs = []
    for graph in graphs:
        context = EnumerationContext.build(graph, CONSTRAINTS)
        pairs.append((context, enumerate_cuts_exhaustive(graph, CONSTRAINTS, context=context)))
    return pairs


class TestMaskScorer:
    @pytest.mark.parametrize(
        "model",
        [
            DEFAULT_LATENCY_MODEL,
            LatencyModel(
                base_isa_read_ports=1,
                base_isa_write_ports=0,
                cycles_per_extra_transfer=0.5,
                hw_cycle_granularity=0.25,
            ),
        ],
    )
    def test_matches_the_definitions_on_every_cut(self, every_cut, model):
        checked = 0
        for context, result in every_cut:
            costs = CutCosts(context, model)
            for cut in result.cuts:
                software, hardware, area, critical = _reference(context, cut, model)
                score = costs.score(cut.node_mask(), execution_count=3.0)
                assert score.mask == cut.node_mask()
                assert score.software_cycles == software
                assert score.hardware_cycles == hardware
                assert score.critical_path == critical
                assert score.saved_cycles_per_execution == software - hardware
                assert score.weighted_gain == (software - hardware) * 3.0
                assert math.isclose(score.area, area)
                checked += 1
        assert checked == 517 + 785 + 119

    def test_cut_adapters_wrap_the_mask_scorer(self, every_cut):
        model = DEFAULT_LATENCY_MODEL
        for context, result in every_cut[::4]:
            costs = CutCosts(context, model)
            for cut in result.cuts[:5]:
                score = costs.score(cut.node_mask(), execution_count=2.0)
                scored = score_cut(cut, context, execution_count=2.0)
                assert scored.cut is cut
                assert (
                    scored.saved_cycles_per_execution,
                    scored.weighted_gain,
                    scored.hardware_cycles,
                    scored.software_cycles,
                    scored.area,
                ) == score[1:6]
                assert model.software_cost(cut, context) == score.software_cycles
                assert model.hardware_critical_path(cut, context) == score.critical_path
                assert model.hardware_cost(cut, context) == score.hardware_cycles
                assert model.saved_cycles(cut, context) == score.saved_cycles_per_execution
                assert cut_area(cut, context) == score.area

    def test_score_masks_keeps_the_profitable_cuts_in_order(self, every_cut):
        for context, result in every_cut:
            costs = CutCosts(context)
            everything = [costs.score(mask, 5.0) for mask in result.masks]
            expected = [s for s in everything if s.saved_cycles_per_execution > 0]
            assert score_masks(result.masks, context, execution_count=5.0) == expected


#: Vertex sets the pipeline selected per corpus block (blocks not listed
#: selected nothing), recorded when scoring and selection still ran on Cut
#: objects.
RECORDED_SELECTIONS = {
    "by_density": {
        "adler32_step__b0": [[4], [7]],
        "bit_reverse8__b0": [[2, 4, 6, 7, 8], [10, 12, 14, 15, 16], [18, 20, 22, 23, 24]],
        "checksum_loop__b1": [[2, 4, 5]],
        "clamp_diff__b0": [[10, 12, 14, 15, 16, 17, 18, 19, 20], [4, 6, 7]],
        "crc32_step__b0": [[2, 4, 5], [6, 8]],
        "fir_tap4__b0": [[3], [7], [11], [15]],
        "popcount32__b0": [[7, 9, 10, 11], [13, 14], [2, 4, 5], [18]],
        "saturating_add__b0": [[4, 6, 8, 9, 10, 11, 12, 13, 14]],
        "xorshift32__b0": [[5, 7, 8, 10, 11, 12], [2, 3]],
    },
    "area_budget": {
        "bit_reverse8__b0": [[2, 4, 6, 7, 8]],
        "checksum_loop__b1": [[2, 4, 5]],
        "crc32_step__b0": [[2, 4, 5, 6, 8, 9, 10]],
        "popcount32__b0": [[7, 9, 10, 11]],
        "xorshift32__b0": [[5, 7, 8, 10, 11, 12]],
    },
}
RECORDED_CONFIGS = {
    "by_density": SelectionConfig(max_instructions=4, by_density=True),
    "area_budget": SelectionConfig(area_budget=2.5),
}


class TestMaskSelection:
    @pytest.mark.parametrize("label", sorted(RECORDED_CONFIGS))
    def test_selected_sets_are_unchanged(self, label):
        config = RECORDED_CONFIGS[label]
        blocks = corpus_block_profiles()
        result = identify_instruction_set_extension(blocks, CONSTRAINTS, selection=config)
        picked = {b.graph_name: [sorted(s.cut.nodes) for s in b.selected] for b in result.blocks}
        assert any(picked.values())
        # Selecting over scored Cut objects picks the same sets.
        for block in blocks:
            context = EnumerationContext.build(block.graph, CONSTRAINTS)
            cuts = enumerate_cuts(block.graph, CONSTRAINTS, context=context).cuts
            chosen = select_cuts(score_cuts(cuts, context, block.execution_count), config)
            assert [sorted(s.cut.nodes) for s in chosen] == picked[block.graph.name]
        skip_unless_recorded_corpus([block.graph for block in blocks])
        expected = RECORDED_SELECTIONS[label]
        assert picked == {name: expected.get(name, []) for name in picked}

    @pytest.mark.parametrize("run", ["jobs=1", "jobs=2", "store"])
    def test_only_the_selected_cuts_are_built(self, run, cut_builds, tmp_path):
        blocks = corpus_block_profiles()
        options = {"jobs": 2} if run == "jobs=2" else {}
        if run == "store":
            identify_instruction_set_extension(
                blocks, CONSTRAINTS, store=ResultStore(tmp_path / "store")
            )
            cut_builds.clear()
            options["store"] = ResultStore(tmp_path / "store")
        result = identify_instruction_set_extension(blocks, CONSTRAINTS, **options)
        if run == "store":
            assert options["store"].stats.hits == len(blocks)
        selected = [entry.cut.node_mask() for b in result.blocks for entry in b.selected]
        assert len(result.extension.instructions) > 0
        assert cut_builds == selected
