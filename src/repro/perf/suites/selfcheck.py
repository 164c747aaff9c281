"""A millisecond-scale harness self-check (suite ``dev``, not in CI's).

Exists so the CLI round-trip tests — and anyone following the CONTRIBUTING
add-a-benchmark recipe — have a benchmark that runs in milliseconds while
exercising every phase of the protocol: setup state, a min-of-N timing loop,
a declared gate, free-form extra detail.
"""

from __future__ import annotations

from typing import Dict

from ...core.constraints import Constraints
from ...core.incremental import enumerate_cuts
from ...workloads.trees import tree_dfg
from ..measure import time_callable
from ..registry import Benchmark, MeasureOutput, register
from ..schema import MetricSpec

_CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


def _selfcheck_setup(scale: str) -> object:
    return tree_dfg(3)


def _selfcheck_measure(state: object) -> MeasureOutput:
    graph = state
    result = enumerate_cuts(graph, _CONSTRAINTS)
    assert len(result) > 0
    timing = time_callable(
        lambda: enumerate_cuts(graph, _CONSTRAINTS), repeats=3, warmup=1
    )
    values: Dict[str, object] = {
        "enumeration_seconds": (round(timing.best, 6), round(timing.mad, 6)),
        "cuts": float(len(result)),
    }
    extra = {"graph": graph.name, "nodes": graph.num_nodes}
    return values, extra


register(
    Benchmark(
        name="harness-selfcheck",
        title="Harness self-check on a depth-3 tree",
        suites=("dev",),
        metrics=(
            MetricSpec("enumeration_seconds", "s", better="lower"),
            MetricSpec(
                "cuts",
                "count",
                better="higher",
                gate_min=1.0,
                description="the depth-3 tree must keep yielding cuts",
            ),
        ),
        setup=_selfcheck_setup,
        measure=_selfcheck_measure,
        description="Min-of-3 enumeration of tree_dfg(3); milliseconds end "
        "to end, used by the tests and the CONTRIBUTING example.",
    )
)
