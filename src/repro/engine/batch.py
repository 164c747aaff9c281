"""Streaming, fault-tolerant multi-block batch enumeration.

The paper's conclusion is that full subgraph enumeration pays off when it is
driven across *whole applications* — many basic blocks, weighted by execution
counts — inside a compiler toolchain.  :class:`BatchRunner` is that driver: it
takes a :class:`~repro.workloads.suite.WorkloadSuite` (or any iterable of
graphs / profiled blocks), enumerates every block with one registry algorithm,
and returns per-block results in input order plus aggregated statistics.

Parallel runs (``jobs >= 2``, ``jobs="auto"``, or ``force_pool=True``) use a
**persistent** ``ProcessPoolExecutor`` behind a streaming scheduler.  Each
pool task is one block, as in the paper, which enumerates every basic block
on its own: the parent sends the :class:`~repro.dfg.graph.DataFlowGraph`
pickled as is, the worker builds the block's
:class:`~repro.core.context.EnumerationContext`, enumerates, and returns the
cut bit masks and statistics.  Workers keep nothing from one task to the
next, so a block's counters never depend on what its worker ran before.  The
parent binds the masks to a locally built context, and
:class:`~repro.core.cut.Cut` objects are built only if someone reads
``result.cuts``, so the results of a parallel run are bit-identical to a
sequential run.

The scheduler streams: at most ``2 * jobs`` tasks are outstanding at any
moment (so million-block suites are never pickled up front), results are
collected as they complete, and :meth:`BatchRunner.iter_run` yields each
finished :class:`BatchItem` immediately — :meth:`BatchRunner.run` is a thin
wrapper that drains the stream and restores input order.

Timeout semantics: a block's deadline is measured from the moment its task
is first observed *running*, never from submission — time spent waiting in
the pool queue is not charged to the block.  A block still running at its
deadline is abandoned (``timed_out`` set, no result) and the worker pool is
recycled; the other blocks in flight are resubmitted penalty-free.  A block
that *completes* over budget — measured by its worker-side ``task_seconds``
stamp — keeps its result and is only flagged, matching sequential runs
(which cannot be interrupted).

When a worker process crashes (``BrokenProcessPool``) the in-flight blocks
are retried on a fresh pool.  A crash strike is charged only when the culprit
is unambiguous — a sole casualty, or exactly one task observed *running*
when the pool broke — and two strikes fail a block.  After an ambiguous
crash every casualty is re-run one at a time (quarantine), penalty-free,
which makes any repeat crash attributable.  A hard per-block encounter cap
guarantees termination either way.

Both execution paths apply one exception policy: any ``Exception`` raised by
the algorithm is caught and recorded as ``item.error`` in the same
``"TypeName: message"`` form, so a block fails identically under ``jobs=1``
and ``jobs=2``.

When a :class:`~repro.memo.store.ResultStore` is attached, the runner
consults it *before* dispatching work — blocks whose isomorphism class was
already enumerated (under the same algorithm and request fingerprint) are
remapped from the stored canonical cut masks and marked ``cached`` — and
writes each freshly computed result back as it completes, so a crash in the
middle of a suite loses none of the work already finished, and later runs
(and runs on isomorphic blocks) become cache hits.

The pool is owned by the runner and survives across :meth:`BatchRunner.run`
calls, so repeated runs (sweeps, benchmark loops, services) pay the worker
spawn cost once; :meth:`BatchRunner.warm_pool` pre-spawns the workers
explicitly and :meth:`BatchRunner.close` (or using the runner as a context
manager) releases them.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.pruning import FULL_PRUNING, PruningConfig
from ..core.stats import EnumerationResult, EnumerationStats
from ..dfg.graph import DataFlowGraph
from ..memo.canon import CanonicalForm, canonical_form
from ..memo.store import ResultStore, StoredResult, request_fingerprint
from ..obs import runtime as obs
from ..workloads.suite import WorkloadSuite
from .registry import DEFAULT_ALGORITHM, EnumerationRequest, get_algorithm

#: Anything the runner accepts as "a batch of blocks".
BlockLike = Union[DataFlowGraph, Tuple[DataFlowGraph, float]]
BatchInput = Union[WorkloadSuite, Iterable[BlockLike]]

#: Per-item progress hook: ``callback(item, completed, total)``.
ProgressCallback = Callable[["BatchItem", int, int], None]

#: Outstanding-task window of the streaming scheduler, as a multiple of
#: ``jobs``: enough to keep every worker busy while the parent collects the
#: previous results, small enough that huge suites are serialized lazily.
WINDOW_FACTOR = 2

#: How long (seconds) to wait for the surviving futures of a broken pool to
#: settle before classifying them.
_BROKEN_POOL_DRAIN_SECONDS = 10.0

#: A block observed *running* when the pool broke is charged a crash strike
#: (it is a probable culprit); two strikes and it is marked failed.
_MAX_CRASH_CHARGES = 2

#: Hard bound on how many pool crashes any single block may witness while in
#: flight — charged or not — before it is marked failed.  Guarantees the
#: stream terminates even when crashes cannot be attributed (a worker that
#: dies before the parent ever observes its task running).
_MAX_CRASH_ENCOUNTERS = 4


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Resolve a ``jobs`` argument (an int or ``"auto"``) to a worker count.

    ``"auto"`` maps to ``os.cpu_count()``; on a single-core machine (or when
    the count is unknown) that is 1, so the losing pool is never spawned
    silently.  Integers are validated (must be >= 1) and passed through.
    """
    if isinstance(jobs, str):
        if jobs != "auto":
            raise ValueError(f'jobs must be a positive integer or "auto", got {jobs!r}')
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return count


#: Entry cap of a runner's :class:`ContextCache`; eviction is least
#: recently used.
CONTEXT_CACHE_LIMIT = 64


class ContextCache:
    """Bounded LRU cache of :class:`EnumerationContext` objects.

    Keys combine the *structure* of the graph — its cached
    :meth:`~repro.dfg.graph.DataFlowGraph.structural_hash` — with the
    constraints, so two graph objects with identical content share one
    context while a renamed or edited graph does not.  Contexts are
    read-only (each enumeration keeps its search memo to itself), so a hit
    shares only immutable data and never changes what a run counts.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, Constraints], EnumerationContext]" = (
            OrderedDict()
        )

    @staticmethod
    def fingerprint(graph: DataFlowGraph) -> str:
        """Deterministic structural key of *graph* (cached on the graph)."""
        return graph.structural_hash()

    def get(
        self, graph: DataFlowGraph, constraints: Optional[Constraints]
    ) -> EnumerationContext:
        """Return a (possibly cached) context for *graph* under *constraints*."""
        key = (self.fingerprint(graph), constraints or Constraints())
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            obs.metrics().inc("context_cache.hits_total")
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        obs.metrics().inc("context_cache.misses_total")
        context = EnumerationContext.build(graph, constraints)
        self._entries[key] = context
        while len(self._entries) > CONTEXT_CACHE_LIMIT:
            self._entries.popitem(last=False)
        return context

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class BatchItem:
    """Outcome of enumerating one block of a batch."""

    index: int
    graph: DataFlowGraph
    graph_name: str
    execution_count: float = 1.0
    result: Optional[EnumerationResult] = None
    context: Optional[EnumerationContext] = None
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None
    #: ``True`` when the result was served from the memoization store
    #: instead of being enumerated in this run.
    cached: bool = False
    #: ``True`` when the result was remapped from an isomorphic block's run
    #: (see :func:`repro.memo.dedup.enumerate_deduplicated`).
    deduplicated: bool = False

    @property
    def ok(self) -> bool:
        """``True`` when an enumeration result is available."""
        return self.result is not None


@dataclass
class BatchReport:
    """Input-ordered results of one batch run."""

    algorithm: str
    constraints: Constraints
    jobs: int
    items: List[BatchItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def results(self) -> List[EnumerationResult]:
        """The successful per-block results, in input order."""
        return [item.result for item in self.items if item.ok]

    def failures(self) -> List[BatchItem]:
        """Items that errored or timed out without a result."""
        return [item for item in self.items if not item.ok]

    def timed_out(self) -> List[BatchItem]:
        """Items flagged over budget, in input order.

        Covers both blocks abandoned at their deadline (no result) and
        blocks that completed past the budget with their result kept (the
        only possible outcome of a sequential run, which cannot be
        interrupted).
        """
        return [item for item in self.items if item.timed_out]

    def total_cuts(self) -> int:
        """Number of cuts found across all successful blocks."""
        return sum(len(item.result) for item in self.items if item.ok)

    def total_stats(self) -> EnumerationStats:
        """Aggregated search statistics of the successful blocks."""
        total = EnumerationStats()
        for item in self.items:
            if item.ok:
                total.merge(item.result.stats)
        return total

    def summary(self) -> str:
        """One-paragraph human-readable account of the run."""
        stats = self.total_stats()
        lines = [
            f"batch of {len(self.items)} block(s), algorithm {self.algorithm!r}, "
            f"jobs={self.jobs}: {self.total_cuts()} cuts "
            f"in {stats.elapsed_seconds:.3f}s of enumeration time",
        ]
        for item in self.failures():
            reason = "timed out" if item.timed_out else (item.error or "failed")
            lines.append(f"  block {item.graph_name!r}: {reason}")
        for item in self.timed_out():
            if item.ok:
                lines.append(
                    f"  block {item.graph_name!r}: exceeded the budget "
                    f"({item.elapsed_seconds:.3f}s) but completed; result kept"
                )
        return "\n".join(lines)


def normalize_blocks(blocks: BatchInput) -> List[BatchItem]:
    """Turn any accepted batch input into an ordered :class:`BatchItem` list.

    Shared by :class:`BatchRunner` and the isomorphism-deduplication driver
    (:func:`repro.memo.dedup.enumerate_deduplicated`).
    """
    if isinstance(blocks, WorkloadSuite):
        pairs = [(graph, 1.0) for graph in blocks]
    else:
        pairs = []
        for entry in blocks:
            if isinstance(entry, DataFlowGraph):
                pairs.append((entry, 1.0))
            elif isinstance(entry, tuple):
                graph, count = entry
                pairs.append((graph, float(count)))
            elif hasattr(entry, "graph"):
                # Duck-typed profile, e.g. repro.ise.pipeline.BlockProfile.
                pairs.append(
                    (entry.graph, float(getattr(entry, "execution_count", 1.0)))
                )
            else:
                raise TypeError(
                    f"cannot interpret {entry!r} as a basic block; expected a "
                    "DataFlowGraph, a (graph, execution_count) pair, or an "
                    "object with a .graph attribute"
                )
    return [
        BatchItem(
            index=index,
            graph=graph,
            graph_name=graph.name,
            execution_count=count,
        )
        for index, (graph, count) in enumerate(pairs)
    ]


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
# repro-lint: worker-entry
def _worker_ping(seconds: float) -> int:
    """Warm-up task: occupy a worker briefly so the pool actually spawns."""
    time.sleep(seconds)
    return os.getpid()


# repro-lint: worker-entry
def _enumerate_block(
    payload: Tuple[
        str,
        Optional[Constraints],
        Optional[PruningConfig],
        DataFlowGraph,
        Optional[Tuple[str, int]],
    ],
) -> Dict[str, object]:
    """Enumerate one block inside a worker process.

    ``payload`` is ``(algorithm_name, constraints, pruning, graph,
    obs_config)``; ``obs_config`` is the parent's observability activation
    (see :func:`repro.obs.runtime.ensure_worker`).  The block's context is
    built here and dropped on return: nothing outlives the task.

    Returns one picklable record: cut bit masks, statistics and algorithm
    label — or ``error`` when the enumeration raised — plus the wall-clock
    time the task ran (``task_seconds``, the basis of the parent's
    over-budget accounting).  With observability on, the worker's drained
    metric/span deltas ride along under ``metrics``/``spans``.
    """
    algorithm_name, constraints, pruning, graph, obs_config = payload
    obs.ensure_worker(obs_config)
    algorithm = get_algorithm(algorithm_name)
    tracer = obs.tracer()
    start = time.perf_counter()
    record: Dict[str, object]
    with tracer.span("worker.chunk", cat="pool"):
        try:
            with tracer.span("worker.block", cat="pool", graph=graph.name) as span:
                context = (
                    EnumerationContext.build(graph, constraints)
                    if algorithm.capabilities.supports_context
                    else None
                )
                result = algorithm.enumerate(
                    EnumerationRequest(
                        graph=graph,
                        constraints=constraints,
                        pruning=pruning,
                        context=context,
                    )
                )
                span.note(cuts=len(result))
            record = {
                "graph_name": result.graph_name,
                "algorithm": result.algorithm,
                "masks": result.masks,
                "stats": result.stats,
            }
        except Exception as exc:  # same policy as the sequential path
            record = {"error": f"{type(exc).__name__}: {exc}"}
    record["task_seconds"] = time.perf_counter() - start
    record.update(obs.drain_worker())
    return record


class _WorkerPool:
    """A ``ProcessPoolExecutor`` that remembers whether it was shut down."""

    def __init__(self, executor: ProcessPoolExecutor, jobs: int) -> None:
        self.executor = executor
        self.jobs = jobs
        #: Set once the executor is shut down; a dead pool is never reused.
        self.dead = False

    def submit(
        self,
        algorithm: str,
        constraints: Optional[Constraints],
        pruning: Optional[PruningConfig],
        item: BatchItem,
    ) -> Future:
        obs.metrics().inc("pool.blocks_dispatched_total")
        return self.executor.submit(
            _enumerate_block,
            (algorithm, constraints, pruning, item.graph, obs.worker_config()),
        )

    def discard(self) -> None:
        """Shut the executor down without waiting (crashed-pool path)."""
        self.dead = True
        self.executor.shutdown(wait=False, cancel_futures=True)

    def kill(self) -> None:
        """Terminate the worker processes outright (timeout path).

        A timed-out task cannot be cancelled cooperatively, and a worker
        stuck in it would also block interpreter exit (the executor joins
        its workers atexit) — kill the processes.
        """
        self.dead = True
        workers = list((getattr(self.executor, "_processes", None) or {}).values())
        self.executor.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.terminate()

    def shutdown(self) -> None:
        """Orderly release (idle pool)."""
        self.dead = True
        self.executor.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class BatchRunner:
    """Enumerate many basic blocks with one registry algorithm.

    Parameters
    ----------
    algorithm:
        Registry name (or alias) of the enumeration algorithm.
    constraints:
        I/O constraints applied to every block (defaults to Nin=4, Nout=2).
    pruning:
        Optional pruning configuration; only forwarded to algorithms whose
        capabilities declare ``supports_pruning``.
    jobs:
        Number of worker processes, or ``"auto"`` for ``os.cpu_count()``
        (clamped to 1 on a single-core machine); ``1`` (default) runs
        in-process.
    timeout:
        Optional per-block wall-clock budget in seconds, measured from the
        moment the block's task starts running — queue wait is never charged
        (see the module docstring for the exact semantics).
    store:
        Optional persistent :class:`~repro.memo.store.ResultStore`.  Blocks
        with a stored result (same canonical graph hash, algorithm and
        request fingerprint) skip enumeration entirely; fresh results are
        written back one by one as they complete.
    mp_context:
        Optional :mod:`multiprocessing` context for the worker pool (e.g.
        ``multiprocessing.get_context("fork")``); the platform default is
        used when omitted.
    force_pool:
        Route execution through the worker pool even at ``jobs=1``.  Used
        to measure dispatch overhead honestly (the benchmark gate) and to
        get abandonable timeouts on a single-core machine.

    A runner owns a persistent worker pool: the pool survives across
    :meth:`run` calls (so sweeps pay worker spawn once) and is released by
    :meth:`close`, by using the runner as a context manager, or at garbage
    collection.  The pool snapshots the process state (e.g. dynamically
    registered algorithms) when its workers spawn — create the runner after
    registering custom algorithms.
    """

    def __init__(
        self,
        algorithm: str = DEFAULT_ALGORITHM,
        constraints: Optional[Constraints] = None,
        pruning: Optional[PruningConfig] = None,
        jobs: Union[int, str] = 1,
        timeout: Optional[float] = None,
        store: Optional[ResultStore] = None,
        mp_context=None,
        force_pool: bool = False,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.algorithm = get_algorithm(algorithm).name
        self.constraints = constraints or Constraints()
        self.pruning = pruning
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.cache = ContextCache()
        self.store = store
        self.mp_context = mp_context
        self.force_pool = bool(force_pool)
        self._pool: Optional[_WorkerPool] = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _uses_pool(self) -> bool:
        return self.jobs >= 2 or self.force_pool

    def _make_pool(self) -> _WorkerPool:
        # max_workers is a cap: the executor spawns workers on demand, so a
        # jobs-sized pool never over-provisions for a short queue.
        executor = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self.mp_context,
            initializer=obs.reset_worker,
        )
        return _WorkerPool(executor, self.jobs)

    def _checkout_pool(self) -> _WorkerPool:
        """Take the persistent pool (or build one); caller must return it."""
        pool, self._pool = self._pool, None
        if pool is not None and not pool.dead:
            return pool
        return self._make_pool()

    def _return_pool(self, pool: _WorkerPool) -> None:
        """Hand a pool back for reuse (dead pools are dropped)."""
        if pool.dead:
            return
        if self._pool is None:
            self._pool = pool
        else:  # a nested stream already returned one; keep a single pool
            pool.shutdown()

    def warm_pool(self) -> None:
        """Pre-spawn the worker processes (no-op for in-process runs).

        Useful before timing-sensitive work: the first ``run`` after this
        call pays no worker fork/spawn cost.
        """
        if not self._uses_pool():
            return
        pool = self._checkout_pool()
        try:
            with obs.tracer().span("pool.warm", cat="pool", jobs=pool.jobs):
                # Overlapping sleeps force the executor to actually spawn all
                # `jobs` workers instead of funnelling the pings through one.
                futures = [
                    pool.executor.submit(_worker_ping, 0.05) for _ in range(pool.jobs)
                ]
                for future in futures:
                    future.result()
        except BrokenExecutor:
            pool.discard()
        finally:
            self._return_pool(pool)

    def close(self) -> None:
        """Release the persistent worker pool (the runner stays usable)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        blocks: BatchInput,
        canonical_forms: Optional[List[CanonicalForm]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        """Enumerate every block and return the input-ordered report.

        Implemented on :meth:`iter_run`: the stream is drained to completion
        and the items — the same objects the generator yields — are restored
        to input order.  *canonical_forms* (store runs only) supplies
        pre-computed canonical forms, one per block in input order, to skip
        re-canonicalization; they must have been computed with this runner's
        constraints.  *progress* is invoked as ``progress(item, completed,
        total)`` after every finished block.
        """
        items = sorted(
            self.iter_run(blocks, canonical_forms=canonical_forms, progress=progress),
            key=lambda item: item.index,
        )
        return BatchReport(
            algorithm=self.algorithm,
            constraints=self.constraints,
            jobs=self.jobs,
            items=items,
        )

    def iter_run(
        self,
        blocks: BatchInput,
        canonical_forms: Optional[List[CanonicalForm]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> Iterator[BatchItem]:
        """Enumerate *blocks*, yielding each :class:`BatchItem` as it finishes.

        Items arrive in completion order (``item.index`` carries the input
        position); every input block is yielded exactly once — successes,
        cache hits, errors and timeouts alike.  With a store attached, each
        fresh result is written back *before* the item is yielded, so a
        consumer crash mid-suite never loses completed work.  *progress*, if
        given, is called as ``progress(item, completed, total)`` right before
        each item is yielded.
        """
        algorithm = get_algorithm(self.algorithm)
        # Pruning-capable algorithms treat "no pruning config" as full
        # pruning (see the registry adapters); normalizing here keeps that
        # default out of the cache key, so e.g. a `cache warm` run
        # (pruning=None) serves a later ISE run (pruning=FULL_PRUNING).
        if algorithm.capabilities.supports_pruning:
            pruning = self.pruning or FULL_PRUNING
        else:
            pruning = None
        items = normalize_blocks(blocks)
        total = len(items)
        completed = 0
        # Snapshot the observability switch once: activation never changes
        # mid-run, and the disabled path must not pay per-item bookkeeping.
        observing = obs.enabled()
        with obs.tracer().span(
            "batch.run",
            cat="batch",
            algorithm=self.algorithm,
            jobs=self.jobs,
            blocks=total,
        ):
            for item in self._iter_resolved(algorithm, pruning, items, canonical_forms):
                completed += 1
                if observing:
                    self._record_item_metrics(item)
                if progress is not None:
                    progress(item, completed, total)
                yield item

    def _record_item_metrics(self, item: BatchItem) -> None:
        """Fold one finished block into the active metrics registry.

        Runs in the parent only, on the single funnel every item passes
        through (sequential, pool and store-hit paths alike), so counters
        are absorbed exactly once per block regardless of deadline
        resubmissions, crash retries or caching.  Cached items contribute their status
        only: their stats describe the original (already-counted) run.
        """
        metrics = obs.metrics()
        if item.cached:
            status = "cached"
        elif item.result is not None:
            status = "fresh"
        elif item.timed_out:
            status = "timeout"
        else:
            status = "error"
        metrics.inc("enum.blocks_total", status=status, algorithm=self.algorithm)
        if status != "fresh":
            return
        stats = item.result.stats
        metrics.inc("enum.cuts_found_total", stats.cuts_found)
        metrics.inc("enum.duplicates_total", stats.duplicates)
        metrics.inc("enum.candidates_checked_total", stats.candidates_checked)
        metrics.inc("enum.lt_calls_total", stats.lt_calls)
        metrics.inc("enum.lt_seconds_total", stats.lt_seconds)
        metrics.inc("enum.pick_output_calls_total", stats.pick_output_calls)
        metrics.inc("enum.pick_input_calls_total", stats.pick_input_calls)
        for rule, amount in stats.pruned.items():
            metrics.inc("enum.pruned_total", amount, rule=rule)
        metrics.observe("enum.block_seconds", stats.elapsed_seconds)

    # ------------------------------------------------------------------ #
    # Store-aware streaming
    # ------------------------------------------------------------------ #
    def _iter_resolved(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        items: List[BatchItem],
        canonical_forms: Optional[List[CanonicalForm]],
    ) -> Iterator[BatchItem]:
        """Stream *items* through the store front and the scheduler."""
        if self.store is None:
            yield from self._execute(
                algorithm, pruning, ((item, False) for item in items)
            )
            return

        forms: Dict[int, CanonicalForm] = {}
        if canonical_forms is not None:
            if len(canonical_forms) != len(items):
                raise ValueError(
                    f"expected {len(items)} canonical form(s), "
                    f"got {len(canonical_forms)}"
                )
            forms.update(enumerate(canonical_forms))

        # Within one run, isomorphic duplicates ride on the first copy of
        # their class: enumerate one leader per store key; as each leader
        # finishes, write it back and serve its followers from the fresh
        # entry.  Followers of a failed leader are known store misses, so
        # they are dispatched together in one trailing round (deferring them
        # one by one would serialize a parallel run).
        #
        # Store resolution is *lazy*: the scheduler pulls blocks from this
        # source as its submission window frees up, so canonicalization and
        # store probes interleave with enumeration instead of forming an
        # O(N) barrier in front of a large suite, and workers start on the
        # first miss while later blocks are still being looked up.
        followers_by_key: Dict[str, List[BatchItem]] = {}

        def classified() -> Iterator[Tuple[BatchItem, bool]]:
            for item in items:
                if not self._resolve_from_store([item], pruning, forms):
                    yield item, True  # served from the store
                    continue
                key = self._store_key(forms[item.index], pruning)
                if key in followers_by_key:
                    followers_by_key[key].append(item)
                else:
                    followers_by_key[key] = []
                    yield item, False  # leader: dispatch it

        deferred: List[BatchItem] = []
        for item in self._execute(algorithm, pruning, classified()):
            if item.cached:
                yield item
                continue
            self._write_back(item, pruning, forms)
            yield item
            key = self._store_key(forms[item.index], pruning)
            waiting = followers_by_key.pop(key, [])
            if not waiting:
                continue
            if item.result is None:
                deferred.extend(waiting)
                continue
            still_missing = self._resolve_from_store(waiting, pruning, forms)
            for follower in waiting:
                if follower.result is not None:
                    yield follower
            deferred.extend(still_missing)

        if deferred:
            for item in self._execute(
                algorithm, pruning, ((item, False) for item in deferred)
            ):
                self._write_back(item, pruning, forms)
                yield item

    # ------------------------------------------------------------------ #
    # Memoization store integration
    # ------------------------------------------------------------------ #
    def _store_key(self, form: CanonicalForm, pruning: Optional[PruningConfig]) -> str:
        return ResultStore.make_key(
            form.hash,
            self.algorithm,
            request_fingerprint(self.constraints, pruning),
        )

    def _resolve_from_store(
        self,
        items: List[BatchItem],
        pruning: Optional[PruningConfig],
        forms: Dict[int, CanonicalForm],
    ) -> List[BatchItem]:
        """Fill items with stored results; return the ones still to enumerate.

        Stored masks live in the canonical id space, so a hit produced by an
        isomorphic block remaps cleanly onto this block's vertex ids.
        """
        assert self.store is not None
        pending: List[BatchItem] = []
        for item in items:
            start = time.perf_counter()
            form = forms.get(item.index)
            if form is None:
                form = canonical_form(item.graph, self.constraints)
                forms[item.index] = form
            stored = self.store.get(self._store_key(form, pruning))
            if stored is None:
                pending.append(item)
                continue
            item.context = self.cache.get(item.graph, self.constraints)
            item.result = EnumerationResult(
                masks=[form.from_canonical_mask(mask) for mask in stored.masks],
                stats=stored.stats,
                graph_name=item.graph_name,
                # The label the algorithm itself emitted (it may differ from
                # the registry name, e.g. "exhaustive-pruned"), so a warm run
                # reproduces the cold run's reports byte-for-byte.
                algorithm=stored.algorithm,
                context=item.context,
            )
            item.cached = True
            item.elapsed_seconds = time.perf_counter() - start
        return pending

    def _write_back(
        self,
        item: BatchItem,
        pruning: Optional[PruningConfig],
        forms: Dict[int, CanonicalForm],
    ) -> None:
        """Persist a result enumerated in this run (masks in canonical ids).

        Result-less items are skipped.
        """
        assert self.store is not None
        if item.result is None:
            return
        form = forms[item.index]
        with obs.tracer().span("store.write_back", cat="store"):
            self.store.put(
                self._store_key(form, pruning),
                StoredResult(
                    canonical_hash=form.hash,
                    # The result's own label, not the registry name (see the
                    # reconstruction in _resolve_from_store).
                    algorithm=item.result.algorithm,
                    fingerprint=request_fingerprint(self.constraints, pruning),
                    masks=[form.to_canonical_mask(mask) for mask in item.result.masks],
                    stats=item.result.stats,
                ),
            )

    # ------------------------------------------------------------------ #
    # Execution paths
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
    ) -> Iterator[BatchItem]:
        """Yield finished blocks from a lazy ``(item, resolved)`` source.

        Already-resolved items (store hits) pass straight through; the rest
        are enumerated.  The source is pulled incrementally, so store
        lookups and canonicalization interleave with execution.
        """
        # Parallel-capable runs go through the pool even for a single
        # block: only the pool path can abandon a block that blows its
        # timeout.
        if self._uses_pool():
            return self._stream_parallel(pruning, source)
        return self._stream_sequential(algorithm, pruning, source)

    def _stream_sequential(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
    ) -> Iterator[BatchItem]:
        for item, resolved in source:
            if resolved:
                yield item
                continue
            item.context = self.cache.get(item.graph, self.constraints)
            context = item.context if algorithm.capabilities.supports_context else None
            start = time.perf_counter()
            with obs.tracer().span(
                "enum.block", cat="enum", graph=item.graph_name
            ) as span:
                try:
                    item.result = algorithm.enumerate(
                        EnumerationRequest(
                            graph=item.graph,
                            constraints=self.constraints,
                            pruning=pruning,
                            context=context,
                        )
                    )
                    span.note(cuts=len(item.result))
                except Exception as exc:  # same policy as the parallel path
                    item.error = f"{type(exc).__name__}: {exc}"
                    span.note(error=item.error)
            item.elapsed_seconds = time.perf_counter() - start
            if self.timeout is not None and item.elapsed_seconds > self.timeout:
                # The run cannot be interrupted in-process; keep the result,
                # flag the overrun.
                item.timed_out = True
            yield item

    def _stream_parallel(
        self,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
    ) -> Iterator[BatchItem]:
        """The streaming scheduler (see the module docstring).

        Bounded submission window over a lazily pulled source, one block per
        task, as-completed collection, per-block deadlines measured from
        observed task start, crash retry, and pool recycling when a deadline
        fires (a running task cannot be cancelled cooperatively, so its
        worker must die).
        """
        jobs = self.jobs
        window = max(WINDOW_FACTOR * jobs, 2)
        retry: "deque[BatchItem]" = deque()  # crash/deadline casualties
        crash_charges: Dict[int, int] = {}  # strikes: observed-running crashes
        crash_encounters: Dict[int, int] = {}  # any crash witnessed in flight
        in_flight: Dict[Future, BatchItem] = {}
        started: Dict[Future, float] = {}  # first observed running, monotonic
        exhausted = False
        # Remaining tasks to run one-at-a-time after an ambiguous crash
        # (nobody was on the hook): isolation makes any repeat crash
        # attributable, so innocents keep their clean record.
        quarantine = 0
        pool = self._checkout_pool()
        try:
            while True:
                # Top up the submission window: retries first, then blocks
                # pulled lazily from the source, so million-block suites are
                # never materialized up front.  Store hits take no slot; at
                # most `window` of them pass per round, so a run of hits
                # flows without blocking on the tasks in flight.
                hits: List[BatchItem] = []
                limit = 1 if quarantine else window
                while len(in_flight) < limit and len(hits) < window:
                    if retry:
                        item = retry.popleft()
                    else:
                        entry = None if exhausted else next(source, None)
                        if entry is None:
                            exhausted = True
                            break
                        item, resolved = entry
                        if resolved:
                            hits.append(item)
                            continue
                    try:
                        future = pool.submit(
                            self.algorithm, self.constraints, pruning, item
                        )
                    except BrokenExecutor:
                        # The pool broke before we noticed; the in-flight
                        # futures (if any) surface the crash below.
                        retry.appendleft(item)
                        break
                    in_flight[future] = item
                if hits:
                    yield from hits
                    continue

                if not in_flight:
                    if not retry:
                        break  # source exhausted, every block yielded
                    # A broken pool with nothing left in flight.
                    pool.discard()
                    pool = self._make_pool()
                    continue

                tick = (
                    None
                    if self.timeout is None
                    else max(min(self.timeout / 10.0, 0.1), 0.005)
                )
                done, _ = wait(list(in_flight), timeout=tick, return_when=FIRST_COMPLETED)

                finished: List[BatchItem] = []
                # (item, was_observed_running) casualties of a broken pool.
                crashed: List[Tuple[BatchItem, bool]] = []
                for future in done:
                    item = in_flight.pop(future)
                    was_running = started.pop(future, None) is not None
                    if self._collect(future, item):
                        finished.append(item)
                    else:
                        crashed.append((item, was_running))
                quarantine = max(quarantine - len(finished), 0)

                if crashed:
                    # The pool is broken: every other in-flight future fails
                    # with it.  Drain them (already-computed results survive),
                    # then rebuild the pool and retry the casualties.
                    if in_flight:
                        wait(list(in_flight), timeout=_BROKEN_POOL_DRAIN_SECONDS)
                        for future, item in in_flight.items():
                            if self._collect(future, item):
                                finished.append(item)
                            else:
                                crashed.append((item, future in started))
                        in_flight.clear()
                        started.clear()
                    pool.discard()
                    obs.metrics().inc("pool.crash_recoveries_total")
                    obs.tracer().instant(
                        "pool.crashed", cat="pool", casualties=len(crashed)
                    )
                    failed, isolate = self._triage_crash(
                        crashed, retry, crash_charges, crash_encounters
                    )
                    quarantine = max(quarantine - len(failed), 0) + isolate
                    pool = self._make_pool()
                    yield from finished
                    yield from failed
                    continue
                yield from finished

                if not in_flight:
                    continue

                # Stamp a task when it is first observed running, capped at
                # `jobs` stamps so the executor's one-deep call-queue buffer
                # is never treated as executing.  The stamps drive both the
                # deadline accounting and the crash attribution above.
                now = time.monotonic()
                for future in in_flight:
                    if (
                        future not in started
                        and len(started) < jobs
                        and future.running()
                    ):
                        started[future] = now

                if self.timeout is None:
                    continue
                expired = [
                    future
                    for future, stamp in started.items()
                    if now - stamp >= self.timeout and not future.done()
                ]
                if not expired:
                    continue
                settled: List[BatchItem] = []
                for future in expired:
                    item = in_flight.pop(future)
                    item.timed_out = True
                    item.elapsed_seconds = now - started.pop(future)
                    settled.append(item)
                    obs.metrics().inc("pool.deadline_expiries_total")
                    obs.tracer().instant(
                        "pool.block_abandoned", cat="pool", graph=item.graph_name
                    )
                # A running task cannot be cancelled cooperatively: kill the
                # workers and rebuild the pool.  Innocent in-flight blocks
                # are resubmitted with no penalty (results that landed
                # between the wait() and now are kept as-is).
                survivors: List[BatchItem] = []
                for future, item in in_flight.items():
                    if future.done() and self._collect(future, item):
                        settled.append(item)
                    else:
                        survivors.append(item)
                quarantine = max(quarantine - len(settled), 0)
                in_flight.clear()
                started.clear()
                pool.kill()
                retry.extendleft(reversed(survivors))
                pool = self._make_pool()
                yield from settled
        finally:
            if in_flight:
                # The consumer abandoned the stream with tasks still running.
                pool.kill()
            else:
                self._return_pool(pool)

    @staticmethod
    def _triage_crash(
        crashed: List[Tuple[BatchItem, bool]],
        retry: "deque[BatchItem]",
        charges: Dict[int, int],
        encounters: Dict[int, int],
    ) -> Tuple[List[BatchItem], int]:
        """Requeue or fail the casualties of one broken-pool event.

        A strike (*charges*) is issued only when the culprit is unambiguous:
        the event had a sole casualty or exactly one task observed *running*
        when the pool broke.  Everyone else is requeued penalty-free, so one
        poison block can never burn an innocent neighbour's retry — not even
        a slow innocent running right next to it.  Ambiguous crashes charge
        nobody and requeue every casualty to run in isolation (the second
        number returned), so a repeat crash has exactly one suspect.  The
        *encounters* cap bounds the worst case per block, so the stream
        always terminates.  Returns the items whose error was just sealed,
        plus the quarantine count.
        """
        suspects = sum(1 for _, was_running in crashed if was_running)
        attributable = len(crashed) == 1 or suspects == 1
        failed: List[BatchItem] = []
        requeued: List[BatchItem] = []
        for item, was_running in crashed:
            encounters[item.index] = encounters.get(item.index, 0) + 1
            if attributable and (was_running or len(crashed) == 1):
                charges[item.index] = charges.get(item.index, 0) + 1
            if charges.get(item.index, 0) >= _MAX_CRASH_CHARGES:
                item.error = (
                    "BrokenProcessPool: worker process crashed "
                    f"{_MAX_CRASH_CHARGES} times while running this block"
                )
                failed.append(item)
            elif encounters[item.index] >= _MAX_CRASH_ENCOUNTERS:
                item.error = (
                    "BrokenProcessPool: worker pool crashed "
                    f"{_MAX_CRASH_ENCOUNTERS} times with this block in flight"
                )
                failed.append(item)
            else:
                requeued.append(item)
        retry.extendleft(reversed(requeued))
        return failed, (0 if attributable else len(requeued))

    def _collect(self, future: Future, item: BatchItem) -> bool:
        """Fill *item* from its finished task; ``False`` if the worker died.

        A worker error, a completed-over-budget result and a failure outside
        the worker's harness all count as finished; a worker death leaves
        the item untouched for the crash-retry pass.
        """
        try:
            record = future.result(timeout=0)
        except (BrokenExecutor, CancelledError, FuturesTimeoutError):
            return False
        except Exception as exc:
            # A failure outside the worker's harness (e.g. an unpicklable
            # payload), in the same "TypeName: message" form.
            item.error = f"{type(exc).__name__}: {exc}"
            return True
        obs.absorb_worker_payload(record)
        error = record.get("error")
        if error is not None:
            item.error = str(error)
            item.elapsed_seconds = float(record["task_seconds"])
            return True
        item.context = self.cache.get(item.graph, self.constraints)
        stats = record["stats"]
        item.result = EnumerationResult(
            masks=record["masks"],
            stats=stats,
            graph_name=record["graph_name"],
            algorithm=record["algorithm"],
            context=item.context,
        )
        item.elapsed_seconds = stats.elapsed_seconds
        if self.timeout is not None and record["task_seconds"] > self.timeout:
            # Completed over budget between two scheduler ticks: keep the
            # result, flag the overrun — identical to sequential semantics.
            item.timed_out = True
        return True


def enumerate_batch(
    blocks: BatchInput,
    algorithm: str = DEFAULT_ALGORITHM,
    constraints: Optional[Constraints] = None,
    pruning: Optional[PruningConfig] = None,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
) -> BatchReport:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    with BatchRunner(
        algorithm=algorithm,
        constraints=constraints,
        pruning=pruning,
        jobs=jobs,
        timeout=timeout,
    ) as runner:
        return runner.run(blocks)
