"""Shared fixtures and helpers for the benchmark harness.

Every benchmark file is the pytest entry point of one benchmark registered
with the ``repro.perf`` harness: an experiment of the paper or a regression
guard of the engine (the README's Benchmarking section; ``repro bench list``
prints the index).  The graphs are scaled to sizes a pure-Python
implementation can enumerate in seconds; the quantities that matter for the
reproduction are the *shapes*: polynomial vs. exponential growth, which
algorithm wins where, and how the pruning rules and the dominator kernel
contribute.  Absolute times are hardware- and interpreter-dependent.
"""

from __future__ import annotations

import pytest

from repro.core import Constraints

#: The microarchitectural constraint used throughout the paper's evaluation.
PAPER_CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="small",
        choices=("small", "full"),
        help="'small' keeps every benchmark in the seconds range; "
        "'full' uses larger graphs closer to the paper's block sizes.",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    """Benchmark scale selected on the command line."""
    return request.config.getoption("--bench-scale")


@pytest.fixture
def bench_harness(bench_scale, capsys):
    """Run one registered benchmark through the unified harness and gate it.

    The measurement bodies and their metric declarations live in
    ``repro.perf.suites``; the scripts in this directory are thin pytest
    entry points.  The returned callable runs the named benchmark at the
    session's ``--bench-scale``, compares the record against the committed
    ``BENCH_<name>.json`` baseline (absolute gates plus noise-aware
    regression verdicts — the same check ``repro bench run
    --compare-against-committed`` applies in CI), prints the summary and
    asserts that nothing failed.
    """
    from pathlib import Path

    from repro.perf import compare_with_committed, format_compare, run_registered

    records_dir = Path(__file__).resolve().parent

    def run(name: str):
        outcome = run_registered(name, bench_scale)
        _, compare_problems, deltas = compare_with_committed(
            outcome.record, records_dir
        )
        # compare_problems repeats the absolute-gate findings (prefixed with
        # the benchmark name); keep each finding once.
        problems = [
            p for p in outcome.problems if not any(p in cp for cp in compare_problems)
        ] + compare_problems
        with capsys.disabled():
            print()
            print(outcome.summary())
            if deltas:
                print("vs committed baseline:")
                print(format_compare(deltas))
        assert not problems, "; ".join(problems)
        return outcome

    return run
