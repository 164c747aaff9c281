"""Paper-reproduction benchmarks: the experiments behind the paper's claims.

Ports of the measurement bodies of the six paper-experiment scripts
(bench_dominators, bench_fig4_tree_worst_case, bench_fig5_runtime_comparison,
bench_ise_speedup, bench_pruning_ablation, bench_scaling).  These had no
committed records before the unified harness — their numbers evaporated with
every CI log.  Registration gives each one a ``BENCH_<name>.json`` baseline
and a ledger trajectory.

Where a gate exists it rides on **machine-independent work counters**
(dominator computations, candidate checks, cut counts, growth exponents) or
on speedup ratios — never on absolute wall-clock, which varies by runner.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Dict, List, Tuple

from ...analysis.comparison import compare_on_suite
from ...baselines.exhaustive import enumerate_cuts_exhaustive
from ...core.constraints import Constraints
from ...core.context import EnumerationContext
from ...core.incremental import enumerate_cuts
from ...core.pruning import FULL_PRUNING, NO_PRUNING, PruningConfig
from ...dominators.iterative import derive_immediate_dominators, immediate_dominators_dag
from ...ise.pipeline import BlockProfile, identify_instruction_set_extension
from ...ise.selection import SelectionConfig
from ...workloads.kernels import build_kernel, kernel_names
from ...workloads.mibench_like import SuiteConfig, build_suite, size_cluster
from ...workloads.synthetic import SyntheticBlockSpec, generate_basic_block
from ...workloads.trees import tree_dfg
from ..measure import interleaved_timings
from ..registry import Benchmark, MeasureOutput, register
from ..schema import MetricSpec

#: The microarchitectural constraint used throughout the paper's evaluation.
PAPER_CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


# --------------------------------------------------------------------------- #
# dominators — the dominator kernel and its share of the search (Section 5.4)
# --------------------------------------------------------------------------- #
_DOM_KERNEL_SIZE = 400


def _dominators_setup(scale: str) -> object:
    graph = generate_basic_block(
        SyntheticBlockSpec(
            num_operations=_DOM_KERNEL_SIZE, num_external_inputs=8, seed=3
        )
    )
    fraction_graph = generate_basic_block(
        SyntheticBlockSpec(num_operations=20, num_external_inputs=4, seed=9)
    )
    return {
        "context": EnumerationContext.build(graph, PAPER_CONSTRAINTS),
        "fraction_graph": fraction_graph,
    }


def costliest_derivation(ctx: EnumerationContext) -> Tuple[int, List[int]]:
    """The vertex with the most descendants, and its descendants in
    topological order: the costliest single removal the search can derive
    with :func:`~repro.dominators.iterative.derive_immediate_dominators`."""
    vertex = max(
        (v for v in range(ctx.num_nodes) if v != ctx.source),
        key=lambda v: ctx.reach.descendants_mask(v).bit_count(),
    )
    below = ctx.reach.descendants_mask(vertex)
    return vertex, [v for v in ctx.topo_order if (below >> v) & 1]


def _dominators_measure(state: object) -> MeasureOutput:
    assert isinstance(state, dict)
    ctx = state["context"]
    order, preds, source = ctx.topo_order, ctx.predecessor_lists, ctx.source

    # --- one full sweep and one derivation on the 400-op block ------------- #
    idom = immediate_dominators_dag(order, preds, source)
    assert idom[source] == source
    vertex, descendants = costliest_derivation(ctx)
    derived = derive_immediate_dominators(
        idom, vertex, descendants, preds, ctx.topo_position
    )
    assert derived == immediate_dominators_dag(
        order, preds, source, removed_mask=1 << vertex
    )
    timings = interleaved_timings(
        {
            "dag": lambda: immediate_dominators_dag(order, preds, source),
            "derive": lambda: derive_immediate_dominators(
                idom, vertex, descendants, preds, ctx.topo_position
            ),
        },
        repeats=3,
    )

    # --- share of the enumeration spent producing dominator arrays --------- #
    result = enumerate_cuts(state["fraction_graph"], PAPER_CONSTRAINTS)
    share = result.stats.lt_seconds / max(result.stats.elapsed_seconds, 1e-9)

    values: Dict[str, object] = {
        "lt_share": round(share, 4),
        "dag_single_seconds": (
            round(timings["dag"].best, 6),
            round(timings["dag"].mad, 6),
        ),
        "derive_single_seconds": (
            round(timings["derive"].best, 6),
            round(timings["derive"].mad, 6),
        ),
    }
    extra = {
        "kernel_graph_nodes": ctx.num_nodes,
        "derived_vertex_descendants": len(descendants),
        "fraction_graph_lt_calls": result.stats.lt_calls,
        "fraction_graph_seconds": round(result.stats.elapsed_seconds, 4),
        "paper_reference": "Section 5.4: >= 70% of time in LT (C implementation)",
    }
    return values, extra


register(
    Benchmark(
        name="dominators",
        title="Dominator kernel cost and enumeration share",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "lt_share",
                "ratio",
                better="higher",
                gate_min=0.03,
                description="share of a poly-enum-incremental run spent "
                "producing dominator arrays (lt_seconds / elapsed_seconds); "
                "the paper reports >= 70% for Lengauer-Tarjan in C, the "
                "floor (half the 5-6% the runs that set it read) catches a "
                "kernel whose time stops being measured",
            ),
            MetricSpec("dag_single_seconds", "s", better="lower"),
            MetricSpec("derive_single_seconds", "s", better="lower"),
        ),
        setup=_dominators_setup,
        measure=_dominators_measure,
        description="One 400-op DAG-kernel sweep and one derivation "
        "(interleaved) plus the dominator share of a full enumeration.",
    )
)


# --------------------------------------------------------------------------- #
# fig4_tree_worst_case — trees, the exhaustive search's worst case (Figure 4)
# --------------------------------------------------------------------------- #
def _fig4_setup(scale: str) -> object:
    return (2, 3, 4, 5) if scale == "full" else (2, 3, 4)


def _fig4_measure(state: object) -> MeasureOutput:
    depths = state
    assert isinstance(depths, tuple)
    rows: List[Dict[str, object]] = []
    for depth in depths:
        graph = tree_dfg(depth)
        poly = enumerate_cuts(graph, PAPER_CONSTRAINTS)
        exhaustive = enumerate_cuts_exhaustive(graph, PAPER_CONSTRAINTS)
        # Both algorithms must agree on the tree (completeness sanity check).
        assert poly.node_sets() == exhaustive.node_sets()
        rows.append(
            {
                "depth": depth,
                "nodes": graph.num_nodes,
                "cuts": len(exhaustive),
                "poly_work": poly.stats.lt_calls + poly.stats.candidates_checked,
                "poly_seconds": round(poly.stats.elapsed_seconds, 4),
                "exhaustive_search_nodes": exhaustive.stats.pick_output_calls,
                "exhaustive_seconds": round(exhaustive.stats.elapsed_seconds, 4),
            }
        )
    # Growth between the two deepest trees: exact counters, stable anywhere.
    prev, last = rows[-2], rows[-1]
    poly_growth = last["poly_work"] / max(prev["poly_work"], 1)
    exhaustive_growth = last["exhaustive_search_nodes"] / max(
        prev["exhaustive_search_nodes"], 1
    )
    values: Dict[str, object] = {
        "poly_work_growth": round(poly_growth, 3),
        "exhaustive_work_growth": round(exhaustive_growth, 3),
        "growth_advantage": round(exhaustive_growth / poly_growth, 3),
        "poly_seconds_total": round(sum(r["poly_seconds"] for r in rows), 4),
        "exhaustive_seconds_total": round(
            sum(r["exhaustive_seconds"] for r in rows), 4
        ),
    }
    extra = {"depths": list(depths), "rows": rows}
    return values, extra


register(
    Benchmark(
        name="fig4_tree_worst_case",
        title="Figure 4: growth on tree-shaped worst-case DFGs",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "growth_advantage",
                "x",
                better="higher",
                gate_min=1.0,
                description="exhaustive-work growth over polynomial-work "
                "growth between the two deepest trees, on exact counters; "
                "the figure's claim is that it exceeds 1, which gates it at "
                "every scale",
            ),
            MetricSpec("poly_work_growth", "x", better="lower"),
            MetricSpec("exhaustive_work_growth", "x", better="none"),
            MetricSpec("poly_seconds_total", "s", better="lower"),
            MetricSpec("exhaustive_seconds_total", "s", better="none"),
        ),
        setup=_fig4_setup,
        measure=_fig4_measure,
        description="Work-counter growth of the polynomial enumeration vs "
        "the exhaustive search across tree depths, with completeness "
        "asserted per tree.",
    )
)


# --------------------------------------------------------------------------- #
# fig5_runtime_comparison — polynomial vs pruned exhaustive scatter (Figure 5)
# --------------------------------------------------------------------------- #
def _fig5_setup(scale: str) -> object:
    if scale == "full":
        config = SuiteConfig(
            num_blocks=40,
            min_operations=10,
            max_operations=60,
            include_kernels=True,
            tree_depths=(4, 5),
        )
    else:
        config = SuiteConfig(
            num_blocks=10,
            min_operations=8,
            max_operations=24,
            include_kernels=False,
            include_trees=True,
            tree_depths=(3,),
        )
    return build_suite(config)


def _fig5_measure(state: object) -> MeasureOutput:
    suite = state
    assert isinstance(suite, list)
    report = compare_on_suite(suite, PAPER_CONSTRAINTS, cluster_of=size_cluster)
    ratios: List[float] = []
    poly_total = exhaustive_total = 0.0
    wins = 0
    paired = report.paired("poly-enum-incremental", "exhaustive")
    for row in paired:
        # The polynomial algorithm never reports cuts the baseline misses.
        assert row["poly-enum-incremental_cuts"] <= row["exhaustive_cuts"]
        poly_s = row["poly-enum-incremental_seconds"]
        exhaustive_s = row["exhaustive_seconds"]
        poly_total += poly_s
        exhaustive_total += exhaustive_s
        ratios.append(exhaustive_s / max(poly_s, 1e-9))
        if poly_s <= exhaustive_s:
            wins += 1
    values: Dict[str, object] = {
        "median_runtime_ratio": round(statistics.median(ratios), 3),
        "poly_wins_fraction": round(wins / len(paired), 3),
        "poly_seconds_total": round(poly_total, 4),
        "exhaustive_seconds_total": round(exhaustive_total, 4),
    }
    extra = {
        "blocks": len(paired),
        "clusters": sorted({size_cluster(graph) for graph in suite}),
        "paper_reference": "Figure 5: the polynomial algorithm is 'in "
        "general better' and never explodes",
    }
    return values, extra


register(
    Benchmark(
        name="fig5_runtime_comparison",
        title="Figure 5: polynomial vs pruned exhaustive run time",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "median_runtime_ratio",
                "x",
                better="higher",
                description="median exhaustive/polynomial run-time ratio over "
                "the suite (the scatter's central tendency)",
            ),
            MetricSpec("poly_wins_fraction", "ratio", better="higher"),
            MetricSpec("poly_seconds_total", "s", better="lower"),
            MetricSpec("exhaustive_seconds_total", "s", better="none"),
        ),
        setup=_fig5_setup,
        measure=_fig5_measure,
        description="One pass over the MiBench-like suite with both "
        "algorithms, completeness checked pairwise, scatter summarised as "
        "ratios.",
    )
)


# --------------------------------------------------------------------------- #
# ise_speedup — custom-instruction speedups across I/O budgets (TAB-ISE)
# --------------------------------------------------------------------------- #
_ISE_IO_BUDGETS = ((2, 1), (4, 2), (6, 3))


def _ise_setup(scale: str) -> object:
    return tuple(kernel_names())


def _ise_measure(state: object) -> MeasureOutput:
    kernels = state
    assert isinstance(kernels, tuple)
    rows: List[Dict[str, object]] = []
    best: Dict[str, float] = {}
    for name in kernels:
        row: Dict[str, object] = {"kernel": name}
        for nin, nout in _ISE_IO_BUDGETS:
            constraints = Constraints(max_inputs=nin, max_outputs=nout)
            result = identify_instruction_set_extension(
                [BlockProfile(build_kernel(name), execution_count=1000)],
                constraints,
                selection=SelectionConfig(max_instructions=2),
            )
            row[f"{nin}in/{nout}out"] = round(result.application_speedup, 2)
            best[name] = max(best.get(name, 1.0), result.application_speedup)
        rows.append(row)
    speedups = list(best.values())
    # Every kernel benefits at some budget, several benefit substantially.
    assert all(s >= 1.0 for s in speedups)
    values: Dict[str, object] = {
        "best_speedup": round(max(speedups), 3),
        "median_best_speedup": round(statistics.median(speedups), 3),
        "kernels_gaining": float(sum(1 for s in speedups if s >= 1.5)),
    }
    extra = {
        "kernels": list(kernels),
        "io_budgets": [list(budget) for budget in _ISE_IO_BUDGETS],
        "table": rows,
        "paper_reference": "conclusion: 'speedups up to 6x' on full "
        "applications",
    }
    return values, extra


register(
    Benchmark(
        name="ise_speedup",
        title="Per-kernel speedup from identified custom instructions",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "best_speedup",
                "x",
                better="higher",
                gate_min=1.5,
                description="best estimated speedup over all kernels and I/O "
                "budgets; deterministic scoring, stable across machines",
            ),
            MetricSpec("median_best_speedup", "x", better="higher"),
            MetricSpec(
                "kernels_gaining",
                "count",
                better="higher",
                gate_min=3.0,
                description="kernels whose best-budget speedup reaches 1.5x",
            ),
        ),
        setup=_ise_setup,
        measure=_ise_measure,
        description="The full enumerate -> score -> select pipeline on every "
        "hand-written kernel under three register-file port budgets.",
    )
)


# --------------------------------------------------------------------------- #
# pruning_ablation — Section 5.3 pruning rules, each off in isolation
# --------------------------------------------------------------------------- #
_PRUNING_FLAGS = (
    "output_output",
    "prune_while_building",
    "output_input",
    "input_input",
    "connected_recovery",
)


def _pruning_setup(scale: str) -> object:
    if scale == "full":
        config = SuiteConfig(
            num_blocks=6,
            min_operations=20,
            max_operations=40,
            include_kernels=False,
            include_trees=True,
            tree_depths=(4,),
        )
    else:
        config = SuiteConfig(
            num_blocks=3,
            min_operations=10,
            max_operations=22,
            include_kernels=False,
            include_trees=True,
            tree_depths=(3,),
        )
    return build_suite(config)


def _pruning_total_work(workload, pruning: PruningConfig) -> Dict[str, object]:
    """The workload's summed work under *pruning*; ``pruned`` is how often
    each rule and bound fired, so a row shows which rule's work an ablation
    moves."""
    lt_calls = candidates = cuts = 0
    seconds = 0.0
    pruned: "Counter[str]" = Counter()
    for graph in workload:
        result = enumerate_cuts(graph, PAPER_CONSTRAINTS, pruning=pruning)
        lt_calls += result.stats.lt_calls
        candidates += result.stats.candidates_checked
        cuts += len(result)
        seconds += result.stats.elapsed_seconds
        pruned.update(result.stats.pruned)
    return {
        "lt_calls": lt_calls,
        "candidates": candidates,
        "cuts": cuts,
        "seconds": round(seconds, 4),
        "pruned": dict(sorted(pruned.items())),
    }


def _pruning_measure(state: object) -> MeasureOutput:
    workload = state
    assert isinstance(workload, list)
    baseline = _pruning_total_work(workload, FULL_PRUNING)
    rows = [{"configuration": "all prunings", **baseline}]
    for flag in _PRUNING_FLAGS:
        rows.append(
            {
                "configuration": f"without {flag}",
                **_pruning_total_work(workload, FULL_PRUNING.disable(flag)),
            }
        )
    nothing = _pruning_total_work(workload, NO_PRUNING)
    rows.append({"configuration": "no pruning (plain Figure 3)", **nothing})
    # Pruning must never increase the amount of work.  (Cut counts are NOT
    # compared: connected_recovery legitimately changes the emitted set.)
    assert baseline["lt_calls"] <= nothing["lt_calls"]
    assert baseline["candidates"] <= nothing["candidates"]
    values: Dict[str, object] = {
        "lt_calls_saved_fraction": round(
            1.0 - baseline["lt_calls"] / max(nothing["lt_calls"], 1), 4
        ),
        "candidates_saved_fraction": round(
            1.0 - baseline["candidates"] / max(nothing["candidates"], 1), 4
        ),
        "no_pruning_slowdown": round(
            nothing["seconds"] / max(baseline["seconds"], 1e-9), 3
        ),
        "full_pruning_seconds": baseline["seconds"],
    }
    extra = {"blocks": len(workload), "table": rows}
    return values, extra


register(
    Benchmark(
        name="pruning_ablation",
        title="Section 5.3 pruning-rule ablation",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "lt_calls_saved_fraction",
                "ratio",
                better="higher",
                gate_min=0.0,
                description="dominator computations removed by full pruning "
                "vs none; exact counters, may never go negative",
            ),
            MetricSpec(
                "candidates_saved_fraction", "ratio", better="higher", gate_min=0.0
            ),
            MetricSpec("no_pruning_slowdown", "x", better="higher"),
            MetricSpec("full_pruning_seconds", "s", better="lower"),
        ),
        setup=_pruning_setup,
        measure=_pruning_measure,
        description="Each pruning rule disabled in isolation (and all "
        "together) over the ablation workload; work saved recorded as exact "
        "counter fractions.",
    )
)


# --------------------------------------------------------------------------- #
# scaling — polynomial growth in block size and I/O budget (TAB-COMPLEXITY)
# --------------------------------------------------------------------------- #
_SCALING_IO_BUDGETS = ((2, 1), (3, 1), (3, 2), (4, 2))


def _scaling_graph(size: int, seed: int = 11):
    return generate_basic_block(
        SyntheticBlockSpec(
            num_operations=size,
            num_external_inputs=max(2, size // 6),
            memory_fraction=0.15,
            seed=seed,
            name=f"scaling_n{size}",
        )
    )


def _scaling_setup(scale: str) -> object:
    return (10, 20, 30, 45, 60) if scale == "full" else (8, 12, 16, 24)


def _scaling_measure(state: object) -> MeasureOutput:
    sizes = state
    assert isinstance(sizes, tuple)
    rows: List[Dict[str, object]] = []
    for size in sizes:
        result = enumerate_cuts(_scaling_graph(size), PAPER_CONSTRAINTS)
        rows.append(
            {
                "operations": size,
                "cuts": len(result),
                "lt_calls": result.stats.lt_calls,
                "seconds": round(result.stats.elapsed_seconds, 4),
            }
        )
    # Empirical growth exponent between the smallest and the largest block:
    # work ~ n^k  =>  k = log(ratio_work) / log(ratio_n).  Exact counters.
    first, last = rows[0], rows[-1]
    size_ratio = math.log(last["operations"] / first["operations"])
    exponent = (
        math.log(max(last["lt_calls"], 1) / max(first["lt_calls"], 1)) / size_ratio
    )
    cut_exponent = (
        math.log(max(last["cuts"], 1) / max(first["cuts"], 1)) / size_ratio
    )

    # Growth with the I/O budget at a fixed block size: monotone cut counts.
    io_rows: List[Dict[str, object]] = []
    for nin, nout in _SCALING_IO_BUDGETS:
        result = enumerate_cuts(
            _scaling_graph(14), Constraints(max_inputs=nin, max_outputs=nout)
        )
        io_rows.append(
            {
                "Nin": nin,
                "Nout": nout,
                "cuts": len(result),
                "lt_calls": result.stats.lt_calls,
            }
        )
    cut_counts = [row["cuts"] for row in io_rows]
    assert cut_counts == sorted(cut_counts), "a larger I/O budget can only add cuts"

    values: Dict[str, object] = {
        "empirical_exponent": round(exponent, 3),
        "cut_exponent": round(cut_exponent, 3),
        "largest_block_seconds": rows[-1]["seconds"],
    }
    extra = {
        "sizes": list(sizes),
        "size_rows": rows,
        "io_budget_rows": io_rows,
        "paper_reference": "Section 5: O(n^(Nin+Nout+1)) = n^7 at Nin=4/Nout=2",
    }
    return values, extra


register(
    Benchmark(
        name="scaling",
        title="Polynomial growth in block size and I/O budget",
        suites=("ci", "paper"),
        metrics=(
            MetricSpec(
                "empirical_exponent",
                "exp",
                better="lower",
                gate_max=7.0,
                description="fitted growth exponent of dominator computations "
                "with block size; must stay under the paper's n^7 bound",
            ),
            MetricSpec(
                "cut_exponent",
                "exp",
                better="lower",
                gate_max=6.0,
                description="fitted growth exponent of the cut count itself",
            ),
            MetricSpec("largest_block_seconds", "s", better="lower"),
        ),
        setup=_scaling_setup,
        measure=_scaling_measure,
        description="Enumeration work across block sizes (exponent fit on "
        "exact counters) and across I/O budgets (cut-count monotonicity "
        "asserted).",
    )
)
