"""Engine-stack benchmarks: core hot path, batch dispatch, streaming, memo, obs.

These five carried hand-written CI gates before the harness existed
(``REQUIRED_SPEEDUP`` in bench_core, ``MAX_DISPATCH_OVERHEAD`` in
bench_batch_runner, ...).  The same thresholds now live on the registered
:class:`~repro.perf.schema.MetricSpec` declarations, so ``repro bench run``
enforces them and ``repro bench compare --against-committed`` reproduces the
old scripts' pass/fail verdicts from the committed records.

Correctness cross-checks (bit-identity vs the frozen legacy enumerator,
sequential-vs-pool parity, zero false timeouts) stay hard assertions inside
``measure`` — a benchmark that measures a wrong answer must fail loudly, not
emit a fast number.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Tuple

from ...baselines.legacy_incremental import enumerate_cuts_legacy
from ...core import Constraints
from ...core.context import EnumerationContext
from ...core.enumeration import enumerate_cuts_basic
from ...core.incremental import enumerate_cuts
from ...engine import BatchRunner, ContextCache
from ...frontend import build_corpus_suite
from ...ise import BlockProfile, SelectionConfig, identify_instruction_set_extension
from ...memo import ResultStore, permute_graph
from ...obs import runtime as obs
from ...obs import span_coverage, validate_trace_records
from ...workloads import SuiteConfig, build_suite, tree_dfg
from ...workloads.kernels import build_kernel
from ...workloads.synthetic import SyntheticBlockSpec, generate_basic_block
from ..measure import TimingResult, interleaved_timings, paired_overhead
from ..registry import Benchmark, MeasureOutput, register
from ..schema import MetricSpec

#: The paper's experimental constraints, shared by every engine benchmark.
CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


def _cut_keys(result) -> List[Tuple]:
    """Bit-level identity key: vertex sets with their inputs and outputs."""
    return sorted(
        (cut.sorted_nodes(), tuple(sorted(cut.inputs)), tuple(sorted(cut.outputs)))
        for cut in result.cuts
    )


# --------------------------------------------------------------------------- #
# core — enumeration hot-path speedup vs the frozen pre-optimization snapshot
# --------------------------------------------------------------------------- #
#: Blocks smaller than this enter the bit-identity checks but not the
#: speedup medians (they measure call overhead, not the kernel).
MIN_GATE_NODES = 8

#: poly-enum-basic is the O(n^{2Nout+2}) reference; skipped above this size.
MAX_BASIC_NODES = 26


def _core_families(scale: str) -> Dict[str, List]:
    if scale == "small":
        tree_depths = (2, 3, 4)
        suite_config = SuiteConfig(
            num_blocks=6,
            min_operations=10,
            max_operations=24,
            include_kernels=True,
            include_trees=False,
        )
    else:
        tree_depths = (2, 3, 4, 5)
        suite_config = SuiteConfig(
            num_blocks=14,
            min_operations=12,
            max_operations=32,
            include_kernels=True,
            include_trees=False,
        )
    mibench = build_suite(suite_config)
    if scale == "small":
        # The replicated `_x3` kernels (70+ vertices) cost minutes on the
        # legacy baseline alone; the small scale (the CI configuration)
        # stays in the tens of seconds without them.
        mibench = [graph for graph in mibench if graph.num_nodes <= 48]
    return {
        "trees": [tree_dfg(depth) for depth in tree_depths],
        "mibench": mibench,
        "corpus": list(build_corpus_suite(profile=False)),
    }


#: Below this single-shot legacy wall time the (legacy, optimized) pair is
#: re-timed and the per-algorithm minimum taken: ms-scale runs — the trees
#: family, the smallest corpus blocks — are otherwise at the mercy of a
#: single scheduler hiccup, which shows up as a 30% family-median swing.
#: Kernel-scale graphs run for 100s of ms and self-average, so one shot
#: keeps the benchmark in the tens of seconds.
RETIME_UNDER_SECONDS = 0.3
RETIME_REPEATS = 2


def _timed_fresh_context(algorithm, graph) -> Tuple[float, object]:
    """Run *algorithm* against a fresh context; return (seconds, result)."""
    context = EnumerationContext.build(graph, CONSTRAINTS)
    start = time.perf_counter()
    result = algorithm(graph, CONSTRAINTS, context=context)
    return time.perf_counter() - start, result


def _core_measure(state: object) -> MeasureOutput:
    families = state
    assert isinstance(families, dict)
    family_rows: Dict[str, object] = {}
    values: Dict[str, object] = {}
    gate_speedups: List[float] = []
    for family_name, graphs in families.items():
        rows = []
        family_speedups = []
        for graph in graphs:
            legacy_seconds, legacy_result = _timed_fresh_context(
                enumerate_cuts_legacy, graph
            )
            new_seconds, new_result = _timed_fresh_context(enumerate_cuts, graph)
            if legacy_seconds < RETIME_UNDER_SECONDS:
                for _ in range(RETIME_REPEATS):
                    retimed_legacy, _ = _timed_fresh_context(
                        enumerate_cuts_legacy, graph
                    )
                    retimed_new, _ = _timed_fresh_context(enumerate_cuts, graph)
                    legacy_seconds = min(legacy_seconds, retimed_legacy)
                    new_seconds = min(new_seconds, retimed_new)
            assert _cut_keys(new_result) == _cut_keys(legacy_result), (
                f"optimized enumerator diverged from the pre-PR snapshot on "
                f"{graph.name!r}"
            )
            speedup = round(legacy_seconds / max(new_seconds, 1e-9), 3)
            row: Dict[str, object] = {
                "graph": graph.name,
                "num_nodes": graph.num_nodes,
                "optimized_seconds": round(new_seconds, 6),
                "legacy_seconds": round(legacy_seconds, 6),
                "speedup_vs_legacy": speedup,
                "lt_calls": new_result.stats.lt_calls,
                "cuts": len(new_result),
            }
            if graph.num_nodes <= MAX_BASIC_NODES:
                _, basic_result = _timed_fresh_context(enumerate_cuts_basic, graph)
                matches_basic = basic_result.node_sets() == new_result.node_sets()
                legacy_matched = basic_result.node_sets() == legacy_result.node_sets()
                # The optimisation may not change the basic-vs-incremental
                # relationship in either direction (the two polynomial
                # variants legitimately differ on borderline cuts).
                assert matches_basic == legacy_matched, graph.name
                row["matches_basic"] = matches_basic
            rows.append(row)
            if graph.num_nodes >= MIN_GATE_NODES:
                family_speedups.append(speedup)
                if family_name in ("corpus", "mibench"):
                    gate_speedups.append(speedup)
        family_rows[family_name] = rows
        if family_speedups:
            values[f"median_speedup_{family_name}"] = round(
                statistics.median(family_speedups), 3
            )
    values["median_speedup_corpus_mibench"] = round(
        statistics.median(gate_speedups), 3
    )
    extra = {
        "families": family_rows,
        "min_gate_nodes": MIN_GATE_NODES,
        "constraints": {"max_inputs": 4, "max_outputs": 2},
        "bit_identical": True,
    }
    return values, extra


register(
    Benchmark(
        name="core",
        title="Enumeration hot-path speedup vs the frozen legacy snapshot",
        suites=("ci", "engine"),
        metrics=(
            MetricSpec(
                "median_speedup_corpus_mibench",
                "x",
                better="higher",
                gate_min=3.0,
                rel_tolerance=0.2,
                description="median optimized/legacy speedup on kernel-scale "
                "corpus+mibench blocks (the PR 5 acceptance floor)",
            ),
            MetricSpec(
                "median_speedup_trees", "x", better="higher", rel_tolerance=0.2
            ),
            MetricSpec(
                "median_speedup_mibench", "x", better="higher", rel_tolerance=0.2
            ),
            MetricSpec(
                "median_speedup_corpus", "x", better="higher", rel_tolerance=0.2
            ),
        ),
        setup=_core_families,
        measure=_core_measure,
        description="Times poly-enum-incremental against the frozen pre-PR-5 "
        "snapshot on trees, mibench-like and frontend-corpus graphs, with "
        "bit-identity asserted on every graph.",
    )
)


# --------------------------------------------------------------------------- #
# batch_runner — persistent-pool dispatch overhead + jobs=2 speedup
# --------------------------------------------------------------------------- #
#: Interleaved timing rounds of the sequential, forced-pool and jobs=2 runs.
BATCH_ROUNDS = 9


def _batch_setup(scale: str) -> object:
    num_blocks = 10 if scale == "small" else 24
    max_operations = 26 if scale == "small" else 40
    suite = build_suite(
        SuiteConfig(
            num_blocks=num_blocks,
            min_operations=12,
            max_operations=max_operations,
            include_kernels=False,
            include_trees=False,
        )
    )
    assert len(suite) >= 8
    return {"suite": suite, "corpus": list(build_corpus_suite())}


def _batch_measure(state: object) -> MeasureOutput:
    assert isinstance(state, dict)
    suite, corpus = state["suite"], state["corpus"]

    # --- determinism: block-for-block, bit-for-bit ------------------------- #
    with BatchRunner(constraints=CONSTRAINTS, jobs=1) as runner:
        sequential = runner.run(suite)
    with BatchRunner(constraints=CONSTRAINTS, jobs=2) as runner:
        parallel = runner.run(suite)
    with BatchRunner(constraints=CONSTRAINTS, jobs=1, force_pool=True) as runner:
        forced = runner.run(suite)
    for seq_item, par_item, fp_item in zip(
        sequential.items, parallel.items, forced.items
    ):
        assert seq_item.ok and par_item.ok and fp_item.ok
        assert _cut_keys(seq_item.result) == _cut_keys(par_item.result)
        assert _cut_keys(seq_item.result) == _cut_keys(fp_item.result)

    # --- determinism through the full ISE pipeline ------------------------- #
    blocks = [BlockProfile(graph, execution_count=1000.0) for graph in suite]
    selection = SelectionConfig(max_instructions=2)
    pipe_seq = identify_instruction_set_extension(
        blocks, CONSTRAINTS, selection=selection, jobs=1
    )
    pipe_par = identify_instruction_set_extension(
        blocks, CONSTRAINTS, selection=selection, jobs=2
    )
    assert pipe_seq.application_speedup == pipe_par.application_speedup

    # --- dispatch overhead and jobs=2 throughput, interleaved ------------- #
    # Every timed call starts in the state one `repro ise` call is in: no
    # warm contexts.  The sequential side gets a fresh runner; the pool
    # runners keep their spawned workers (spawning is outside the timer) but
    # get a fresh parent-side ContextCache.
    def sequential():
        return BatchRunner(constraints=CONSTRAINTS, jobs=1).run(corpus)

    def on_cold_cache(runner: BatchRunner):
        runner.cache = ContextCache()
        return runner.run(corpus)

    with BatchRunner(
        constraints=CONSTRAINTS, jobs=1, force_pool=True
    ) as pool_runner, BatchRunner(constraints=CONSTRAINTS, jobs=2) as par_runner:
        pool_runner.warm_pool()
        par_runner.warm_pool()
        timings = interleaved_timings(
            {
                "sequential": sequential,
                "forced_pool": lambda: on_cold_cache(pool_runner),
                "parallel": lambda: on_cold_cache(par_runner),
            },
            repeats=BATCH_ROUNDS,
        )
        corpus_seq = sequential()
        corpus_pool = on_cold_cache(pool_runner)
    for seq_item, pool_item in zip(corpus_seq.items, corpus_pool.items):
        assert seq_item.ok and pool_item.ok
        assert _cut_keys(seq_item.result) == _cut_keys(pool_item.result)
    sequential_t = timings["sequential"]
    pool_t = timings["forced_pool"]
    par_timing = timings["parallel"]
    dispatch_overhead, overhead_noise = paired_overhead(pool_t, sequential_t)
    speedup = sequential_t.best / max(par_timing.best, 1e-9)
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 2:
        assert speedup > 1.5, (
            f"jobs=2 speedup {speedup:.2f}x on the frontend corpus is below "
            f"the 1.5x target on a {cpu_count}-CPU machine"
        )

    values: Dict[str, object] = {
        "dispatch_overhead": (round(dispatch_overhead, 4), round(overhead_noise, 4)),
        "parallel_speedup": round(speedup, 3),
        "sequential_seconds": (round(sequential_t.best, 4), round(sequential_t.mad, 4)),
        "forced_pool_seconds": (round(pool_t.best, 4), round(pool_t.mad, 4)),
        "parallel_seconds": (round(par_timing.best, 4), round(par_timing.mad, 4)),
    }
    extra = {
        "suite_blocks": len(suite),
        "corpus_blocks": len(corpus),
        "corpus_cuts": corpus_seq.total_cuts(),
        "rounds": BATCH_ROUNDS,
        "speedup_gated": cpu_count >= 2,
        "bit_identical": True,
    }
    return values, extra


register(
    Benchmark(
        name="batch_runner",
        title="Persistent-pool dispatch overhead and jobs=2 speedup",
        suites=("ci", "engine"),
        metrics=(
            MetricSpec(
                "dispatch_overhead",
                "ratio",
                better="lower",
                gate_max=0.15,
                description="forced-pool jobs=1 cost over sequential on the "
                "frontend corpus, every call from cold contexts (the PR 6 gate)",
            ),
            MetricSpec("parallel_speedup", "x", better="higher"),
            MetricSpec("sequential_seconds", "s", better="lower"),
            MetricSpec("forced_pool_seconds", "s", better="lower"),
            MetricSpec("parallel_seconds", "s", better="lower"),
        ),
        setup=_batch_setup,
        measure=_batch_measure,
        description="Bit-identity across jobs/pool configurations, then the "
        "interleaved dispatch-overhead and jobs=2 throughput measurement.",
    )
)


# --------------------------------------------------------------------------- #
# streaming — bounded-window scheduler: throughput, latency, timeout accounting
# --------------------------------------------------------------------------- #
STREAMING_JOBS = 2


def _streaming_setup(scale: str) -> object:
    num_blocks = 12 if scale == "small" else 24
    operations = 14 if scale == "small" else 24
    return [
        generate_basic_block(
            SyntheticBlockSpec(num_operations=operations, seed=seed)
        )
        for seed in range(num_blocks)
    ]


def _streaming_measure(state: object) -> MeasureOutput:
    blocks = state
    assert isinstance(blocks, list)

    start = time.perf_counter()
    sequential = BatchRunner(constraints=CONSTRAINTS, jobs=1).run(blocks)
    sequential_seconds = time.perf_counter() - start
    assert all(item.ok for item in sequential.items)

    with BatchRunner(constraints=CONSTRAINTS, jobs=STREAMING_JOBS) as runner:
        runner.warm_pool()
        start = time.perf_counter()
        first_result_seconds = None
        streamed = []
        for item in runner.iter_run(blocks):
            if first_result_seconds is None:
                first_result_seconds = time.perf_counter() - start
            streamed.append(item)
        streamed_seconds = time.perf_counter() - start
    streamed.sort(key=lambda item: item.index)
    assert all(item.ok for item in streamed)
    for seq_item, par_item in zip(sequential.items, streamed):
        assert _cut_keys(seq_item.result) == _cut_keys(par_item.result)

    # Timeout accounting at jobs < blocks: a correct scheduler charges queue
    # wait to nobody, so a budget far above the slowest block flags nothing.
    slowest = max(item.elapsed_seconds for item in sequential.items)
    budget = max(10.0 * slowest, 0.25)
    with BatchRunner(
        constraints=CONSTRAINTS, jobs=STREAMING_JOBS, timeout=budget
    ) as timed_runner:
        timed = timed_runner.run(blocks)
    false_timeouts = [item for item in timed.items if item.timed_out]
    assert not false_timeouts, (
        f"{len(false_timeouts)} healthy block(s) flagged timed out under a "
        f"{budget:.2f}s budget (slowest block: {slowest:.3f}s)"
    )
    assert all(item.ok for item in timed.items)

    assert first_result_seconds is not None
    values: Dict[str, object] = {
        "false_timeout_rate": 0.0,
        "parallel_speedup": round(
            sequential_seconds / max(streamed_seconds, 1e-9), 3
        ),
        "throughput_sequential_blocks_per_s": round(
            len(blocks) / max(sequential_seconds, 1e-9), 2
        ),
        "throughput_streamed_blocks_per_s": round(
            len(blocks) / max(streamed_seconds, 1e-9), 2
        ),
        "first_result_seconds": round(first_result_seconds, 4),
        "first_result_vs_barrier": round(
            first_result_seconds / max(streamed_seconds, 1e-9), 3
        ),
    }
    extra = {
        "blocks": len(blocks),
        "jobs": STREAMING_JOBS,
        "total_cuts": sequential.total_cuts(),
        "timeout_budget_seconds": round(budget, 4),
        "slowest_block_seconds": round(slowest, 4),
        "bit_identical": True,
    }
    return values, extra


register(
    Benchmark(
        name="streaming",
        title="Streaming scheduler throughput and timeout accounting",
        suites=("ci", "engine"),
        metrics=(
            MetricSpec(
                "false_timeout_rate",
                "ratio",
                better="lower",
                gate_max=0.0,
                description="healthy blocks flagged timed-out at jobs < blocks "
                "(the PR 3 accounting fix: must stay exactly zero)",
            ),
            MetricSpec("parallel_speedup", "x", better="higher"),
            MetricSpec("throughput_sequential_blocks_per_s", "blocks/s", better="higher"),
            MetricSpec("throughput_streamed_blocks_per_s", "blocks/s", better="higher"),
            MetricSpec("first_result_seconds", "s", better="lower"),
            MetricSpec("first_result_vs_barrier", "ratio", better="lower"),
        ),
        setup=_streaming_setup,
        measure=_streaming_measure,
        description="Drives more blocks than workers through iter_run(): "
        "time-to-first-result, throughput, and zero false timeouts asserted.",
    )
)


# --------------------------------------------------------------------------- #
# memo — canonical-form memoization: hit rate and warm-run speedup
# --------------------------------------------------------------------------- #
def _memo_setup(scale: str) -> object:
    num_bases = 4 if scale == "small" else 8
    operations = 18 if scale == "small" else 28
    copies = 3 if scale == "small" else 4
    bases = [build_kernel("crc32_step"), build_kernel("bitcount")]
    bases += [
        generate_basic_block(SyntheticBlockSpec(num_operations=operations, seed=seed))
        for seed in range(num_bases - len(bases))
    ]
    blocks = []
    for base in bases:
        blocks.append(base)
        for copy in range(copies):
            shift = copy + 1
            permutation = [(v + shift) % base.num_nodes for v in range(base.num_nodes)]
            blocks.append(
                permute_graph(base, permutation, name=f"{base.name}_copy{copy}")
            )
    return {
        "blocks": blocks,
        "num_classes": len(bases),
        "cache_dir": tempfile.mkdtemp(prefix="repro-bench-memo-"),
    }


def _memo_teardown(state: object) -> None:
    assert isinstance(state, dict)
    shutil.rmtree(state["cache_dir"], ignore_errors=True)


def _memo_measure(state: object) -> MeasureOutput:
    assert isinstance(state, dict)
    blocks, num_classes = state["blocks"], state["num_classes"]
    cache_dir = state["cache_dir"]

    def cut_sets(report):
        return [item.result.node_sets() for item in report.items]

    start = time.perf_counter()
    uncached = BatchRunner(constraints=CONSTRAINTS).run(blocks)
    uncached_seconds = time.perf_counter() - start
    assert all(item.ok for item in uncached.items)
    reference = cut_sets(uncached)

    cold_store = ResultStore(cache_dir)
    start = time.perf_counter()
    cold = BatchRunner(constraints=CONSTRAINTS, store=cold_store).run(blocks)
    cold_seconds = time.perf_counter() - start
    assert cut_sets(cold) == reference
    # In-run isomorph reuse: one search per isomorphism class.
    assert cold_store.stats.writes == num_classes

    warm_store = ResultStore(cache_dir)
    start = time.perf_counter()
    warm = BatchRunner(constraints=CONSTRAINTS, store=warm_store).run(blocks)
    warm_seconds = time.perf_counter() - start
    assert cut_sets(warm) == reference
    assert all(item.cached for item in warm.items)
    assert warm_store.stats.hit_rate == 1.0

    values: Dict[str, object] = {
        "warm_speedup": round(uncached_seconds / max(warm_seconds, 1e-9), 3),
        "cold_speedup": round(uncached_seconds / max(cold_seconds, 1e-9), 3),
        "warm_hit_rate": warm_store.stats.hit_rate,
        "uncached_seconds": round(uncached_seconds, 4),
        "warm_cache_seconds": round(warm_seconds, 4),
    }
    extra = {
        "blocks": len(blocks),
        "isomorphism_classes": num_classes,
        "total_cuts": uncached.total_cuts(),
        "bit_identical": True,
    }
    return values, extra


register(
    Benchmark(
        name="memo",
        title="Result-store warm speedup and in-run isomorph reuse",
        suites=("ci", "engine"),
        metrics=(
            MetricSpec(
                "warm_speedup",
                "x",
                better="higher",
                gate_min=2.0,
                description="warm cache vs recomputation on a duplicated/"
                "permuted suite (the PR 2 acceptance bar)",
            ),
            MetricSpec("cold_speedup", "x", better="higher"),
            MetricSpec("warm_hit_rate", "ratio", better="higher", gate_min=1.0),
            MetricSpec("uncached_seconds", "s", better="lower"),
            MetricSpec("warm_cache_seconds", "s", better="lower"),
        ),
        setup=_memo_setup,
        measure=_memo_measure,
        teardown=_memo_teardown,
        description="Uncached vs cold-cache vs warm-cache runs over a suite "
        "of duplicated and permuted blocks, all bit-identical; the cold run "
        "searches once per isomorphism class.",
    )
)


# --------------------------------------------------------------------------- #
# obs — instrumentation overhead, enabled vs disabled
# --------------------------------------------------------------------------- #
OBS_REPEATS = 7


def _obs_setup(scale: str) -> object:
    # The benchmark swaps the process-global recorders in and out; an outer
    # observability session (e.g. `repro bench run --trace`) must be saved
    # here and restored in teardown or the bench would destroy it.
    outer = (obs.metrics(), obs.tracer()) if obs.enabled() else None
    return {"corpus": list(build_corpus_suite()), "outer": outer}


def _obs_teardown(state: object) -> None:
    assert isinstance(state, dict)
    outer = state["outer"]
    if outer is not None:
        obs.activate(*outer)
    else:
        obs.deactivate()


def _gc_quiesced(fn) -> float:
    """Time ``fn()`` with the cyclic GC off and pending garbage collected.

    The enabled runs allocate span dicts, so a collection triggered by
    garbage left over from *earlier* work (other benchmarks in the same
    process) would land disproportionately inside the enabled timing
    windows and fake an instrumentation overhead.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _obs_interleaved(runner: BatchRunner, graphs, repeats: int = OBS_REPEATS):
    """Min wall-clock of disabled and enabled runs, interleaved per repeat."""
    runner.run(graphs)  # un-timed warm-up
    disabled_samples: List[float] = []
    enabled_samples: List[float] = []
    best_records: List[dict] = []
    for _ in range(repeats):
        disabled_samples.append(_gc_quiesced(lambda: runner.run(graphs)))

        _registry, recorder = obs.activate()
        elapsed = _gc_quiesced(lambda: runner.run(graphs))
        records = recorder.records
        obs.deactivate()
        if not enabled_samples or elapsed < min(enabled_samples):
            best_records = records
        enabled_samples.append(elapsed)
    return disabled_samples, enabled_samples, best_records


def _obs_measure(state: object) -> MeasureOutput:
    assert isinstance(state, dict)
    corpus = state["corpus"]
    obs.deactivate()

    with BatchRunner(constraints=CONSTRAINTS, jobs=1) as runner:
        disabled, enabled, records = _obs_interleaved(runner, corpus)
    disabled_best, enabled_best = min(disabled), min(enabled)
    overhead, overhead_mad = paired_overhead(
        TimingResult.from_samples(enabled), TimingResult.from_samples(disabled)
    )

    assert validate_trace_records(records) == []
    coverage = span_coverage(records)
    assert coverage is not None

    with BatchRunner(constraints=CONSTRAINTS, jobs=1, force_pool=True) as runner:
        runner.warm_pool()
        pool_disabled, pool_enabled, pool_records = _obs_interleaved(runner, corpus)
    pool_overhead, pool_overhead_mad = paired_overhead(
        TimingResult.from_samples(pool_enabled),
        TimingResult.from_samples(pool_disabled),
    )
    assert validate_trace_records(pool_records) == []
    worker_spans = sum(1 for r in pool_records if r["name"] == "worker.block")
    assert worker_spans == len(corpus)

    values: Dict[str, object] = {
        "obs_overhead": (round(overhead, 4), round(overhead_mad, 4)),
        "span_coverage": round(coverage["coverage"], 4),
        "pool_obs_overhead": (round(pool_overhead, 4), round(pool_overhead_mad, 4)),
        "disabled_seconds": round(disabled_best, 4),
        "enabled_seconds": round(enabled_best, 4),
    }
    extra = {
        "corpus_blocks": len(corpus),
        "repeats": OBS_REPEATS,
        "worker_spans": worker_spans,
        "pool_disabled_seconds": round(min(pool_disabled), 4),
        "pool_enabled_seconds": round(min(pool_enabled), 4),
    }
    return values, extra


register(
    Benchmark(
        name="obs",
        title="Observability overhead, enabled vs disabled",
        suites=("ci", "engine"),
        metrics=(
            MetricSpec(
                "obs_overhead",
                "ratio",
                better="lower",
                gate_max=0.03,
                description="live registry+tracer cost over the uninstrumented "
                "sequential run (the PR 7 <3% promise)",
            ),
            MetricSpec(
                "span_coverage",
                "ratio",
                better="higher",
                gate_min=0.95,
                description="fraction of the batch root span accounted for by "
                "named child spans",
            ),
            MetricSpec("pool_obs_overhead", "ratio", better="lower"),
            MetricSpec("disabled_seconds", "s", better="lower"),
            MetricSpec("enabled_seconds", "s", better="lower"),
        ),
        setup=_obs_setup,
        measure=_obs_measure,
        teardown=_obs_teardown,
        description="Seven GC-quiesced interleaved enabled-vs-disabled rounds "
        "on the frontend corpus, overhead as the median of per-round ratios, "
        "plus schema validity and span coverage of the enabled run's "
        "telemetry.",
    )
)
