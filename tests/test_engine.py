"""Tests for the unified enumeration engine: registry + batch runner."""

from __future__ import annotations

import os

import pytest

from repro.core import FULL_PRUNING, Constraints, EnumerationResult
from repro.dfg.builder import diamond, linear_chain
from repro.engine import (
    DEFAULT_ALGORITHM,
    SEMANTICS_ALL_VALID,
    AlgorithmCapabilities,
    BatchRunner,
    ContextCache,
    EnumerationRequest,
    algorithm_aliases,
    available_algorithms,
    enumerate_batch,
    get_algorithm,
    register_algorithm,
    resolve_algorithm_name,
    resolve_jobs,
    unregister_algorithm,
)
from repro.engine.batch import WINDOW_FACTOR
from repro.ise import BlockProfile, identify_instruction_set_extension
from repro.workloads import WorkloadSuite, build_kernel
from tests.conftest import make_random_dag

ALL_ALGORITHMS = (
    "poly-enum-incremental",
    "poly-enum-basic",
    "exhaustive",
    "brute-force",
    "connected-only",
)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_builtin_algorithms_registered(self):
        assert sorted(ALL_ALGORITHMS) == available_algorithms()

    def test_get_algorithm_by_name_and_alias(self):
        for name in ALL_ALGORITHMS:
            assert get_algorithm(name).name == name
        assert get_algorithm("poly").name == "poly-enum-incremental"
        assert get_algorithm("exhaustive-[15]").name == "exhaustive"
        assert get_algorithm("oracle").name == "brute-force"
        assert algorithm_aliases()["basic"] == "poly-enum-basic"

    def test_unknown_algorithm_raises_with_listing(self):
        with pytest.raises(KeyError, match="poly-enum-incremental"):
            resolve_algorithm_name("no-such-algorithm")

    def test_capability_flags(self):
        assert get_algorithm("poly-enum-incremental").capabilities.supports_pruning
        assert not get_algorithm("exhaustive").capabilities.supports_pruning
        assert get_algorithm("brute-force").capabilities.oracle_only
        assert get_algorithm("brute-force").capabilities.max_candidate_nodes == 22
        assert not get_algorithm("connected-only").capabilities.supports_context
        assert get_algorithm("exhaustive").capabilities.semantics == SEMANTICS_ALL_VALID

    def test_oracles_can_be_filtered_out(self):
        names = available_algorithms(include_oracles=False)
        assert "brute-force" not in names
        assert "poly-enum-incremental" in names

    def test_pruning_rejected_by_non_supporting_algorithm(self, diamond_graph):
        request = EnumerationRequest(graph=diamond_graph, pruning=FULL_PRUNING)
        with pytest.raises(ValueError, match="does not support a pruning"):
            get_algorithm("exhaustive").enumerate(request)

    def test_enumerate_returns_result(self, diamond_graph, default_constraints):
        result = get_algorithm(DEFAULT_ALGORITHM)(diamond_graph, default_constraints)
        assert isinstance(result, EnumerationResult)
        assert result.cuts

    def test_register_and_unregister_custom_algorithm(self, diamond_graph):
        calls = []

        def run(request):
            calls.append(request.graph.name)
            return get_algorithm("exhaustive").enumerate(request)

        register_algorithm("custom-test-algo", run, AlgorithmCapabilities())
        try:
            assert "custom-test-algo" in available_algorithms()
            with pytest.raises(ValueError, match="already registered"):
                register_algorithm("custom-test-algo", run)
            result = get_algorithm("custom-test-algo")(diamond_graph)
            assert calls == [diamond_graph.name] and result.cuts
        finally:
            unregister_algorithm("custom-test-algo")
        assert "custom-test-algo" not in available_algorithms()


# --------------------------------------------------------------------------- #
# Cross-algorithm equivalence
# --------------------------------------------------------------------------- #
def _cut_sets(graph, constraints):
    return {
        name: get_algorithm(name)(graph, constraints).node_sets() for name in ALL_ALGORITHMS
    }


class TestCrossAlgorithmEquivalence:
    """Every registered algorithm against every other one.

    On the shared test graphs the five algorithms report the *identical* cut
    set.  On randomized DFGs the soundness hierarchy holds: the two
    ``all-valid`` algorithms agree exactly, and every algorithm's cut set is
    contained in that ground truth (the polynomial algorithms enumerate the
    paper's identified subset, the connected search the connected subset).
    """

    @pytest.mark.parametrize("graph_factory", [lambda: linear_chain(3),
                                               lambda: linear_chain(5),
                                               diamond])
    @pytest.mark.parametrize("io", [(2, 1), (3, 2), (4, 2)])
    def test_identical_cut_sets_on_shared_graphs(self, graph_factory, io):
        constraints = Constraints(max_inputs=io[0], max_outputs=io[1])
        sets = _cut_sets(graph_factory(), constraints)
        reference = sets["brute-force"]
        assert reference
        for name, cut_set in sets.items():
            assert cut_set == reference, f"{name} disagrees with the oracle"

    @pytest.mark.parametrize("seed", range(8))
    def test_soundness_hierarchy_on_random_dfgs(self, seed):
        constraints = Constraints(max_inputs=3, max_outputs=2)
        graph = make_random_dag(seed, num_operations=7)
        sets = _cut_sets(graph, constraints)
        assert sets["exhaustive"] == sets["brute-force"]
        for name in ("poly-enum-incremental", "poly-enum-basic", "connected-only"):
            assert sets[name] <= sets["brute-force"], name


# --------------------------------------------------------------------------- #
# Context cache
# --------------------------------------------------------------------------- #
class TestContextCache:
    def test_repeated_same_graph_hits(self, diamond_graph, default_constraints):
        cache = ContextCache()
        first = cache.get(diamond_graph, default_constraints)
        second = cache.get(diamond_graph, default_constraints)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_different_constraints_miss(self, diamond_graph):
        cache = ContextCache()
        a = cache.get(diamond_graph, Constraints(max_inputs=2, max_outputs=1))
        b = cache.get(diamond_graph, Constraints(max_inputs=4, max_outputs=2))
        assert a is not b and cache.misses == 2

    def test_bounded(self, default_constraints, monkeypatch):
        monkeypatch.setattr("repro.engine.batch.CONTEXT_CACHE_LIMIT", 2)
        cache = ContextCache()
        for size in (2, 3, 4, 5):
            cache.get(linear_chain(size), default_constraints)
        assert len(cache) == 2


# --------------------------------------------------------------------------- #
# Batch runner
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def batch_suite():
    """Eight deterministic small blocks with distinct names."""
    suite = WorkloadSuite("batch-test")
    suite.add(build_kernel("crc32_step"))
    suite.add(build_kernel("bitcount"))
    suite.add(diamond())
    suite.add(linear_chain(4))
    for seed in range(4):
        suite.add(make_random_dag(seed, num_operations=6))
    assert len(suite) >= 8
    return suite


class TestBatchRunner:
    def test_sequential_results_in_input_order(self, batch_suite, default_constraints):
        report = BatchRunner(constraints=default_constraints).run(batch_suite)
        assert [item.graph_name for item in report.items] == [
            graph.name for graph in batch_suite
        ]
        assert all(item.ok for item in report.items)
        assert report.total_cuts() == sum(len(r.cuts) for r in report.results())

    @pytest.mark.parametrize("algorithm", ["poly-enum-incremental", "exhaustive"])
    def test_parallel_matches_sequential_block_for_block(
        self, batch_suite, default_constraints, algorithm
    ):
        sequential = BatchRunner(
            algorithm=algorithm, constraints=default_constraints, jobs=1
        ).run(batch_suite)
        parallel = BatchRunner(
            algorithm=algorithm, constraints=default_constraints, jobs=2
        ).run(batch_suite)
        assert len(sequential.items) == len(parallel.items) == len(batch_suite)
        for seq_item, par_item in zip(sequential.items, parallel.items):
            assert seq_item.graph_name == par_item.graph_name
            # Bit-identical cuts in identical discovery order, not just the
            # same node sets: inputs and outputs must survive the round-trip.
            assert _cut_keys(seq_item.result) == _cut_keys(par_item.result)

    def test_parallel_aggregate_stats_match_sequential(
        self, batch_suite, default_constraints
    ):
        sequential = BatchRunner(constraints=default_constraints, jobs=1).run(batch_suite)
        parallel = BatchRunner(constraints=default_constraints, jobs=2).run(batch_suite)
        seq_stats, par_stats = sequential.total_stats(), parallel.total_stats()
        assert seq_stats.cuts_found == par_stats.cuts_found
        assert seq_stats.lt_calls == par_stats.lt_calls
        assert seq_stats.candidates_checked == par_stats.candidates_checked

    def test_accepts_profiles_graphs_and_pairs(self, default_constraints):
        graph = diamond()
        runner = BatchRunner(constraints=default_constraints)
        from_graph = runner.run([graph])
        from_pair = runner.run([(graph, 7.0)])
        from_profile = runner.run([BlockProfile(graph=graph, execution_count=7.0)])
        assert from_graph.items[0].execution_count == 1.0
        assert from_pair.items[0].execution_count == 7.0
        assert from_profile.items[0].execution_count == 7.0
        reference = from_graph.items[0].result.node_sets()
        assert from_pair.items[0].result.node_sets() == reference
        assert from_profile.items[0].result.node_sets() == reference

    def test_rejects_bad_input_and_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            BatchRunner(jobs=0)
        with pytest.raises(KeyError):
            BatchRunner(algorithm="not-an-algorithm")
        with pytest.raises(TypeError, match="basic block"):
            BatchRunner().run([42])

    def test_worker_error_is_reported_not_raised(self, default_constraints):
        # The brute-force oracle refuses graphs above its candidate limit.
        big = make_random_dag(3, num_operations=30, memory_probability=0.0)
        report = BatchRunner(
            algorithm="brute-force", constraints=default_constraints, jobs=2
        ).run([diamond(), big])
        assert report.items[0].ok
        assert not report.items[1].ok
        assert "candidate" in report.items[1].error
        assert "brute-force" in report.summary()

    def test_enumerate_batch_convenience(self, default_constraints):
        report = enumerate_batch([diamond()], constraints=default_constraints)
        assert report.items[0].ok and report.jobs == 1

    def test_sequential_timeout_marks_block(self, default_constraints):
        report = BatchRunner(constraints=default_constraints, timeout=1e-9).run(
            [build_kernel("crc32_step"), build_kernel("bitcount")]
        )
        assert all(item.timed_out for item in report.items)
        # Sequential runs cannot be interrupted, so the results are kept.
        assert all(item.ok for item in report.items)


def _cut_keys(result):
    return [
        (cut.sorted_nodes(), tuple(sorted(cut.inputs)), tuple(sorted(cut.outputs)))
        for cut in result.cuts
    ]


# --------------------------------------------------------------------------- #
# Pipeline through the engine
# --------------------------------------------------------------------------- #
class TestPipelineParallel:
    def test_parallel_pipeline_matches_sequential(self):
        blocks = [
            BlockProfile(build_kernel("crc32_step"), execution_count=1000.0),
            BlockProfile(build_kernel("bitcount"), execution_count=500.0),
            BlockProfile(build_kernel("dct_butterfly"), execution_count=200.0),
            BlockProfile(build_kernel("fir_tap_pair"), execution_count=100.0),
        ]
        constraints = Constraints(max_inputs=3, max_outputs=2)
        sequential = identify_instruction_set_extension(blocks, constraints, jobs=1)
        parallel = identify_instruction_set_extension(blocks, constraints, jobs=2)
        assert sequential.application_speedup == parallel.application_speedup
        assert [b.graph_name for b in sequential.blocks] == [
            b.graph_name for b in parallel.blocks
        ]
        for seq_block, par_block in zip(sequential.blocks, parallel.blocks):
            assert seq_block.num_candidate_cuts == par_block.num_candidate_cuts
            assert [s.cut.nodes for s in seq_block.selected] == [
                s.cut.nodes for s in par_block.selected
            ]
        assert [i.name for i in sequential.extension.instructions] == [
            i.name for i in parallel.extension.instructions
        ]

    def test_pipeline_with_alternative_algorithm(self):
        blocks = [BlockProfile(diamond(), execution_count=10.0)]
        result = identify_instruction_set_extension(
            blocks, Constraints(max_inputs=3, max_outputs=2), algorithm="exhaustive"
        )
        assert result.application_speedup >= 1.0


# --------------------------------------------------------------------------- #
# jobs="auto" and pool dispatch
# --------------------------------------------------------------------------- #
class TestJobsAuto:
    def test_resolve_jobs_auto_is_cpu_count_clamped_to_one(self):
        assert resolve_jobs("auto") == max(1, os.cpu_count() or 1)
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_resolve_jobs_rejects_garbage(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_jobs("many")
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-3)

    def test_runner_accepts_auto_and_reports_resolved_count(self):
        runner = BatchRunner(jobs="auto")
        assert runner.jobs == max(1, os.cpu_count() or 1)
        report = runner.run([diamond()])
        assert report.jobs == runner.jobs
        assert report.items[0].ok
        runner.close()


class TestPoolDispatch:
    """The pool path against the sequential path, one block per task."""

    @pytest.mark.parametrize("run_length", [1, 3, 16, "auto"])
    def test_bit_identity_across_run_lengths(
        self, batch_suite, default_constraints, run_length
    ):
        """Runs of one block, fewer blocks than the in-flight window, the
        window exactly ("auto": WINDOW_FACTOR * jobs) and twice the suite
        (so the window refills as results return) all reproduce the
        sequential run exactly."""
        jobs = 2
        length = WINDOW_FACTOR * jobs if run_length == "auto" else run_length
        graphs = list(batch_suite)
        blocks = [graphs[i % len(graphs)] for i in range(length)]
        sequential = BatchRunner(constraints=default_constraints, jobs=1).run(blocks)
        with BatchRunner(constraints=default_constraints, jobs=jobs) as runner:
            parallel = runner.run(blocks)
        assert len(parallel.items) == length
        for seq_item, par_item in zip(sequential.items, parallel.items):
            assert seq_item.graph_name == par_item.graph_name
            assert par_item.ok, f"{par_item.graph_name}: {par_item.error}"
            assert _cut_keys(seq_item.result) == _cut_keys(par_item.result)

    def test_forced_pool_at_one_job_matches_sequential(
        self, batch_suite, default_constraints
    ):
        """force_pool=True routes jobs=1 through the pool — the
        dispatch-overhead benchmark configuration — without changing a bit."""
        sequential = BatchRunner(constraints=default_constraints, jobs=1).run(
            batch_suite
        )
        with BatchRunner(
            constraints=default_constraints, jobs=1, force_pool=True
        ) as runner:
            forced = runner.run(batch_suite)
        assert forced.jobs == 1
        for seq_item, fp_item in zip(sequential.items, forced.items):
            assert fp_item.ok, f"{fp_item.graph_name}: {fp_item.error}"
            assert _cut_keys(seq_item.result) == _cut_keys(fp_item.result)

    def test_pool_persists_across_runs_and_results_stay_identical(
        self, batch_suite, default_constraints
    ):
        """The second run reuses the warmed pool and still reproduces the
        first run bit for bit."""
        with BatchRunner(constraints=default_constraints, jobs=2) as runner:
            runner.warm_pool()
            assert runner._pool is not None
            pool = runner._pool
            first = runner.run(batch_suite)
            assert runner._pool is pool  # returned, not rebuilt
            second = runner.run(batch_suite)
        assert runner._pool is None  # close() released it
        for a, b in zip(first.items, second.items):
            assert a.ok and b.ok
            assert _cut_keys(a.result) == _cut_keys(b.result)

    def test_worker_error_does_not_poison_siblings(
        self, default_constraints
    ):
        """A block that raises in a worker is reported on exactly that item;
        the blocks around it keep their results."""
        big = make_random_dag(3, num_operations=30, memory_probability=0.0)
        blocks = [diamond(), big, linear_chain(4), build_kernel("bitcount")]
        with BatchRunner(
            algorithm="brute-force",
            constraints=default_constraints,
            jobs=2,
        ) as runner:
            report = runner.run(blocks)
        assert not report.items[1].ok
        assert "candidate" in report.items[1].error
        for index in (0, 2, 3):
            assert report.items[index].ok, report.items[index].error
