"""Tests for the streaming, fault-tolerant batch scheduler.

Pins the corrected per-block timeout accounting (deadline = task start +
timeout, queue wait excluded), the ``iter_run`` streaming API, retry-once on
crashed workers, the unified exception policy of the sequential and parallel
paths, and the per-item store write-back.

The fault-injection tests register throwaway algorithms (a sleeper, a
crasher, a raiser) and run the pool with an explicit ``fork`` context so the
worker processes inherit the dynamically registered algorithm; they are
skipped on platforms without ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core import Constraints
from repro.dfg.builder import diamond, linear_chain
from repro.engine import BatchRunner, get_algorithm, register_algorithm, unregister_algorithm
from repro.memo import ResultStore
from repro.workloads import build_kernel
from tests.conftest import make_random_dag

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK,
    reason="fault-injection algorithms reach the workers via fork inheritance",
)

FAST_SLEEP = 0.05
SLOW_SLEEP = 2.5
BUDGET = 0.75


def _fork_context():
    return multiprocessing.get_context("fork")


@pytest.fixture
def registered():
    """Register throwaway algorithms for one test, unregister afterwards."""
    names = []

    def add(name, run):
        register_algorithm(name, run)
        names.append(name)
        return name

    yield add
    for name in names:
        unregister_algorithm(name)


def _sleepy_run(request):
    """Sleeps long on blocks named ``*slow*``, briefly otherwise."""
    time.sleep(SLOW_SLEEP if "slow" in request.graph.name else FAST_SLEEP)
    return get_algorithm("exhaustive").enumerate(request)


def _make_crasher(sentinel, always: bool):
    """Kill the worker on ``*poison*`` blocks; after the first crash the
    sentinel file exists, so a retry succeeds unless *always* is set."""

    def run(request):
        if "poison" in request.graph.name and (always or not sentinel.exists()):
            sentinel.write_text("crashed")
            os._exit(23)
        return get_algorithm("exhaustive").enumerate(request)

    return run


def _small_suite(count: int = 8):
    graphs = [build_kernel("crc32_step"), build_kernel("bitcount"), diamond(),
              linear_chain(4)]
    for seed in range(count - len(graphs)):
        graphs.append(make_random_dag(seed, num_operations=6))
    return graphs[:count]


def _cut_keys(result):
    return [
        (cut.sorted_nodes(), tuple(sorted(cut.inputs)), tuple(sorted(cut.outputs)))
        for cut in result.cuts
    ]


# --------------------------------------------------------------------------- #
# Timeout accounting
# --------------------------------------------------------------------------- #
@needs_fork
class TestDeadlineAccounting:
    def test_queue_wait_is_not_charged_exactly_one_block_times_out(self, registered):
        """The ISSUE's acceptance scenario: jobs=2, six blocks, one sleeper
        past the budget — exactly that block is marked timed out, and none
        of the healthy blocks is falsely charged for its pool-queue wait."""
        registered("test-sleeper-deadline", _sleepy_run)
        constraints = Constraints(max_inputs=3, max_outputs=2)
        blocks = []
        for position in range(6):
            graph = make_random_dag(position, num_operations=5)
            graph.name = "slow_block" if position == 2 else f"fast_block_{position}"
            blocks.append(graph)
        report = BatchRunner(
            algorithm="test-sleeper-deadline",
            constraints=constraints,
            jobs=2,
            timeout=BUDGET,
            mp_context=_fork_context(),
        ).run(blocks)
        assert len(report.items) == 6
        slow = report.items[2]
        assert slow.timed_out and slow.result is None
        for item in report.items:
            if item.index == 2:
                continue
            assert item.ok, f"{item.graph_name} failed: {item.error}"
            assert not item.timed_out, (
                f"{item.graph_name} falsely timed out (queue wait charged "
                "against its deadline)"
            )
        assert report.timed_out() == [slow]
        assert report.failures() == [slow]
        assert "timed out" in report.summary()


# --------------------------------------------------------------------------- #
# iter_run: streaming, ordering, completeness
# --------------------------------------------------------------------------- #
class TestIterRun:
    def test_yields_every_block_exactly_once(self):
        graphs = _small_suite()
        runner = BatchRunner(constraints=Constraints(max_inputs=3, max_outputs=2),
                             jobs=2)
        yielded = list(runner.iter_run(graphs))
        assert sorted(item.index for item in yielded) == list(range(len(graphs)))
        assert all(item.ok for item in yielded)

    def test_parallel_stream_bit_identical_to_sequential_run(self):
        graphs = _small_suite()
        constraints = Constraints(max_inputs=3, max_outputs=2)
        sequential = BatchRunner(constraints=constraints, jobs=1).run(graphs)
        streamed = sorted(
            BatchRunner(constraints=constraints, jobs=2).iter_run(graphs),
            key=lambda item: item.index,
        )
        for seq_item, par_item in zip(sequential.items, streamed):
            assert seq_item.graph_name == par_item.graph_name
            assert _cut_keys(seq_item.result) == _cut_keys(par_item.result)

    def test_progress_callback_counts_up_to_total(self):
        graphs = _small_suite(5)
        calls = []
        report = BatchRunner(constraints=Constraints(max_inputs=3, max_outputs=2)).run(
            graphs, progress=lambda item, done, total: calls.append((done, total))
        )
        assert [done for done, _ in calls] == [1, 2, 3, 4, 5]
        assert all(total == 5 for _, total in calls)
        assert all(item.ok for item in report.items)

    def test_empty_batch(self):
        runner = BatchRunner(jobs=2)
        assert list(runner.iter_run([])) == []
        assert len(runner.run([])) == 0


# --------------------------------------------------------------------------- #
# Worker crashes
# --------------------------------------------------------------------------- #
@needs_fork
class TestCrashRecovery:
    def test_crashed_worker_is_retried_once_and_suite_completes(
        self, registered, tmp_path
    ):
        registered(
            "test-crasher-once", _make_crasher(tmp_path / "sentinel", always=False)
        )
        constraints = Constraints(max_inputs=3, max_outputs=2)
        blocks = []
        for position in range(4):
            graph = make_random_dag(position, num_operations=5)
            graph.name = "poison_block" if position == 1 else f"healthy_{position}"
            blocks.append(graph)
        report = BatchRunner(
            algorithm="test-crasher-once",
            constraints=constraints,
            jobs=2,
            mp_context=_fork_context(),
        ).run(blocks)
        assert all(item.ok for item in report.items), report.summary()
        assert (tmp_path / "sentinel").exists()

    def test_poison_block_does_not_burn_innocent_neighbours(
        self, registered, tmp_path
    ):
        """A block that *always* crashes the worker fails alone: the healthy
        blocks sharing the pool (and its in-flight window) keep their clean
        record and succeed."""
        registered(
            "test-crasher-poison", _make_crasher(tmp_path / "sentinel", always=True)
        )
        constraints = Constraints(max_inputs=3, max_outputs=2)
        blocks = []
        for position in range(5):
            graph = make_random_dag(position, num_operations=5)
            graph.name = "poison_block" if position == 0 else f"healthy_{position}"
            blocks.append(graph)
        report = BatchRunner(
            algorithm="test-crasher-poison",
            constraints=constraints,
            jobs=2,
            mp_context=_fork_context(),
        ).run(blocks)
        poison = report.items[0]
        assert not poison.ok
        assert poison.error is not None and "BrokenProcessPool" in poison.error
        for item in report.items[1:]:
            assert item.ok, f"innocent {item.graph_name} failed: {item.error}"

    def test_slow_innocent_next_to_poison_is_not_charged(self, registered):
        """With a timeout set, the scheduler stamps running tasks — a crash
        then has several observed-running casualties.  The slow innocent
        sharing the pool with a repeat-crashing poison block must not be
        charged crash strikes for it (ambiguous crashes quarantine instead
        of blaming every co-running block)."""

        def run(request):
            if "poison" in request.graph.name:
                time.sleep(0.2)
                os._exit(23)
            time.sleep(0.8)
            return get_algorithm("exhaustive").enumerate(request)

        registered("test-slow-crasher", run)
        poison = make_random_dag(0, num_operations=5)
        poison.name = "poison_block"
        innocent = make_random_dag(1, num_operations=5)
        innocent.name = "slow_innocent"
        report = BatchRunner(
            algorithm="test-slow-crasher",
            constraints=Constraints(max_inputs=3, max_outputs=2),
            jobs=2,
            timeout=30.0,
            mp_context=_fork_context(),
        ).run([poison, innocent])
        assert not report.items[0].ok
        assert "BrokenProcessPool" in report.items[0].error
        assert report.items[1].ok, (
            f"innocent falsely failed: {report.items[1].error}"
        )
        assert not report.items[1].timed_out

    def test_block_that_always_crashes_is_reported_after_one_retry(
        self, registered, tmp_path
    ):
        registered(
            "test-crasher-always", _make_crasher(tmp_path / "sentinel", always=True)
        )
        graph = make_random_dag(0, num_operations=5)
        graph.name = "poison_block"
        report = BatchRunner(
            algorithm="test-crasher-always",
            constraints=Constraints(max_inputs=3, max_outputs=2),
            jobs=2,
            mp_context=_fork_context(),
        ).run([graph])
        item = report.items[0]
        assert not item.ok
        assert item.error is not None and "BrokenProcessPool" in item.error


# --------------------------------------------------------------------------- #
# Exception-handling parity between the sequential and parallel paths
# --------------------------------------------------------------------------- #
def _raiser_run(request):
    raise TypeError("synthetic failure for parity testing")


@needs_fork
def test_error_recorded_identically_under_jobs_1_and_jobs_2(registered):
    registered("test-raiser", _raiser_run)
    graph = make_random_dag(0, num_operations=5)
    constraints = Constraints(max_inputs=3, max_outputs=2)
    sequential = BatchRunner(
        algorithm="test-raiser", constraints=constraints, jobs=1
    ).run([graph])
    parallel = BatchRunner(
        algorithm="test-raiser",
        constraints=constraints,
        jobs=2,
        mp_context=_fork_context(),
    ).run([graph])
    assert sequential.items[0].error == "TypeError: synthetic failure for parity testing"
    assert sequential.items[0].error == parallel.items[0].error
    assert not sequential.items[0].ok and not parallel.items[0].ok


# --------------------------------------------------------------------------- #
# Timed-out-but-completed reporting (sequential runs keep their result)
# --------------------------------------------------------------------------- #
def test_timed_out_accessor_and_summary_report_completed_overruns():
    report = BatchRunner(
        constraints=Constraints(max_inputs=3, max_outputs=2), timeout=1e-9
    ).run([build_kernel("crc32_step"), build_kernel("bitcount")])
    # Sequential runs cannot be interrupted: results kept, overruns flagged.
    assert all(item.ok for item in report.items)
    assert report.timed_out() == report.items
    assert report.failures() == []
    summary = report.summary()
    assert "exceeded the budget" in summary and "result kept" in summary
    assert "crc32_step" in summary and "bitcount" in summary


# --------------------------------------------------------------------------- #
# Per-item store write-back
# --------------------------------------------------------------------------- #
class TestStreamingStore:
    def test_leader_written_back_before_follower_is_served(self, tmp_path):
        first = make_random_dag(7, num_operations=6)
        twin = make_random_dag(7, num_operations=6)
        twin.name = "twin_copy"
        store = ResultStore(tmp_path / "cache")
        runner = BatchRunner(
            constraints=Constraints(max_inputs=3, max_outputs=2), store=store
        )
        stream = runner.iter_run([first, twin])
        leader = next(stream)
        assert leader.index == 0 and leader.ok and not leader.cached
        # The write-back happened before the leader was yielded.
        assert store.stats.writes == 1
        follower = next(stream)
        assert follower.index == 1 and follower.ok and follower.cached
        assert store.stats.writes == 1  # served from the fresh entry
        assert list(stream) == []
        assert leader.result.node_sets() == follower.result.node_sets()

    @needs_fork
    def test_store_hits_drain_while_cold_block_is_enumerating(
        self, registered, tmp_path
    ):
        """Cached blocks behind a slow cold block must stream out while its
        enumeration is still running, not stall behind the worker pool."""
        registered("test-sleeper-hits", _sleepy_run)
        constraints = Constraints(max_inputs=3, max_outputs=2)
        cold = make_random_dag(11, num_operations=5)
        cold.name = "slow_cold_block"
        warm_blocks = []
        for position in range(8):
            graph = make_random_dag(12 + position, num_operations=5)
            graph.name = f"warm_{position}"
            warm_blocks.append(graph)
        store = ResultStore(tmp_path / "cache")
        # Pre-populate the store with every warm block (sequential, fast path).
        warm_runner = BatchRunner(
            algorithm="test-sleeper-hits", constraints=constraints, store=store
        )
        assert all(item.ok for item in warm_runner.run(warm_blocks).items)

        runner = BatchRunner(
            algorithm="test-sleeper-hits",
            constraints=constraints,
            jobs=2,
            store=store,
            mp_context=_fork_context(),
        )
        order = []
        for item in runner.iter_run([cold] + warm_blocks):
            order.append(item.graph_name)
        # All eight hits must arrive before the SLOW_SLEEP-long cold block.
        assert order[-1] == "slow_cold_block"
        assert sorted(order[:-1]) == sorted(g.name for g in warm_blocks)

    def test_streamed_store_run_matches_storeless_run(self, tmp_path):
        graphs = _small_suite(6)
        constraints = Constraints(max_inputs=3, max_outputs=2)
        reference = BatchRunner(constraints=constraints).run(graphs)
        store_run = BatchRunner(
            constraints=constraints, store=ResultStore(tmp_path / "cache"), jobs=2
        ).run(graphs)
        for ref_item, item in zip(reference.items, store_run.items):
            assert _cut_keys(ref_item.result) == _cut_keys(item.result)


# --------------------------------------------------------------------------- #
# Uniform blocks: deadlines, crash isolation, streaming semantics
# --------------------------------------------------------------------------- #
def _uniform_chain_blocks(count: int, slow_index=None, slow_prefix="slow"):
    """*count* identically sized blocks with distinct names."""
    blocks = []
    for position in range(count):
        graph = linear_chain(4)
        graph.name = (
            f"{slow_prefix}_block"
            if position == slow_index
            else f"fast_block_{position}"
        )
        blocks.append(graph)
    return blocks


@needs_fork
class TestChunkDeadlines:
    def test_expired_chunk_is_resplit_and_only_the_slow_block_times_out(
        self, registered
    ):
        """Six same-sized blocks at jobs=2: the slow block is abandoned on
        its own deadline, and the blocks queued or running beside it
        complete untouched."""
        registered("test-chunk-sleeper", _sleepy_run)
        blocks = _uniform_chain_blocks(6, slow_index=2)
        with BatchRunner(
            algorithm="test-chunk-sleeper",
            constraints=Constraints(max_inputs=3, max_outputs=2),
            jobs=2,
            timeout=BUDGET,
            mp_context=_fork_context(),
        ) as runner:
            report = runner.run(blocks)
        assert len(report.items) == 6
        slow = report.items[2]
        assert slow.timed_out and slow.result is None
        for item in report.items:
            if item.index == 2:
                continue
            assert item.ok, f"{item.graph_name} failed: {item.error}"
            assert not item.timed_out, (
                f"{item.graph_name} falsely timed out (a neighbour's runtime "
                "or queue wait charged against its deadline)"
            )
        assert report.failures() == [slow]


@needs_fork
class TestChunkCrashRecovery:
    def test_crash_mid_chunk_is_resplit_and_suite_completes(
        self, registered, tmp_path
    ):
        """A worker crash among eight blocks in flight is retried
        penalty-free; the poison block succeeds on its retry and the whole
        suite completes."""
        sentinel = tmp_path / "crashed-once"
        registered("test-chunk-crasher", _make_crasher(sentinel, always=False))
        blocks = _uniform_chain_blocks(8, slow_index=3, slow_prefix="poison")
        with BatchRunner(
            algorithm="test-chunk-crasher",
            constraints=Constraints(max_inputs=3, max_outputs=2),
            jobs=2,
            mp_context=_fork_context(),
        ) as runner:
            report = runner.run(blocks)
        assert sentinel.exists()  # the crash really happened
        assert len(report.items) == 8
        assert sorted(item.index for item in report.items) == list(range(8))
        for item in report.items:
            assert item.ok, f"{item.graph_name} failed: {item.error}"

    def test_always_crashing_block_in_chunk_fails_alone(
        self, registered, tmp_path
    ):
        """Repeat crashes are attributed to the poison block alone: it is
        failed, and every other block finishes with a result."""
        sentinel = tmp_path / "crashed-always"
        registered("test-chunk-crasher-always", _make_crasher(sentinel, always=True))
        blocks = _uniform_chain_blocks(8, slow_index=3, slow_prefix="poison")
        with BatchRunner(
            algorithm="test-chunk-crasher-always",
            constraints=Constraints(max_inputs=3, max_outputs=2),
            jobs=2,
            mp_context=_fork_context(),
        ) as runner:
            report = runner.run(blocks)
        assert len(report.items) == 8
        poison = report.items[3]
        assert not poison.ok
        assert "BrokenProcessPool" in poison.error
        for item in report.items:
            if item.index == 3:
                continue
            assert item.ok, f"{item.graph_name} failed: {item.error}"


class TestChunkedStreaming:
    def test_iter_run_with_chunks_yields_every_block_exactly_once(self):
        graphs = _small_suite(8)
        constraints = Constraints(max_inputs=3, max_outputs=2)
        reference = BatchRunner(constraints=constraints, jobs=1).run(graphs)
        with BatchRunner(constraints=constraints, jobs=2) as runner:
            streamed = list(runner.iter_run(graphs))
        assert sorted(item.index for item in streamed) == list(range(len(graphs)))
        streamed.sort(key=lambda item: item.index)
        for ref_item, item in zip(reference.items, streamed):
            assert item.ok, f"{item.graph_name}: {item.error}"
            assert _cut_keys(ref_item.result) == _cut_keys(item.result)

    def test_chunked_store_run_writes_back_and_serves_warm_hits(self, tmp_path):
        """The per-block write-back persists every fresh result; a second
        run over the same store is served entirely from cache and stays
        bit-identical."""
        graphs = _small_suite(6)
        constraints = Constraints(max_inputs=3, max_outputs=2)
        reference = BatchRunner(constraints=constraints, jobs=1).run(graphs)
        store = ResultStore(tmp_path / "cache")
        with BatchRunner(constraints=constraints, jobs=2, store=store) as runner:
            cold = runner.run(graphs)
        assert store.stats.writes == len(graphs)
        with BatchRunner(constraints=constraints, jobs=2, store=store) as runner:
            warm = runner.run(graphs)
        assert all(item.cached for item in warm.items)
        for ref_item, cold_item, warm_item in zip(
            reference.items, cold.items, warm.items
        ):
            assert _cut_keys(ref_item.result) == _cut_keys(cold_item.result)
            assert _cut_keys(ref_item.result) == _cut_keys(warm_item.result)
