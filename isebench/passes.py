"""One cold ISE pass, untraced or traced.

An untraced pass is exactly what one `repro ise` invocation runs after its
imports: the frontend (corpus workloads), then
``identify_instruction_set_extension`` with a new BatchRunner, so a new
ContextCache and InSearchMemo, and, on the warm-store workload, a freshly
opened ResultStore.

A traced pass makes the same pipeline call with benchmark-side spans wrapped
around the layer calls it makes (the runner's ``run`` and ``close``, the
context cache's and store's ``get``, the batch module's ``canonical_form``)
and the ``repro.obs`` recorder switched on for its block and pool spans.
Nothing inside the library is changed; the per-layer numbers come from those
spans and from the counters the library already keeps (EnumerationStats,
BatchItem, ContextCache, ResultStore.stats).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from inputs import CONSTRAINTS, SELECTION, Prepared

from repro import BatchRunner, EnumerationStats, ResultStore
from repro.core.pruning import FULL_PRUNING
from repro.engine import batch
from repro.engine.batch import BatchItem
from repro.engine.registry import DEFAULT_ALGORITHM
from repro.frontend import corpus_block_profiles
from repro.ise import PipelineResult, identify_instruction_set_extension
from repro.obs import runtime as obs


@dataclass
class PassRun:
    seconds: float
    items: List[BatchItem]
    result: PipelineResult
    #: Per-layer metrics and exportable trace records (traced passes only).
    layers: Optional[Dict[str, float]] = None
    records: Optional[List[Dict[str, object]]] = None


def _open_store(prepared: Prepared) -> Optional[ResultStore]:
    return ResultStore(prepared.store_dir) if prepared.store_dir is not None else None


def run_untraced(prepared: Prepared) -> PassRun:
    """One cold pass through the public pipeline, as `repro ise` runs it."""
    blocks = prepared.pass_blocks()
    items: List[BatchItem] = []
    start = time.perf_counter()
    if blocks is None:
        blocks = corpus_block_profiles()
    result = identify_instruction_set_extension(
        blocks,
        CONSTRAINTS,
        selection=SELECTION,
        jobs=prepared.workload.jobs,
        store=_open_store(prepared),
        progress=lambda item, done, total: items.append(item),
    )
    return PassRun(time.perf_counter() - start, items, result)


# --------------------------------------------------------------------------- #
# Benchmark-side spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    parent: Optional[int]
    ts_us: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: (owner, attribute, the owner's own value before wrapping or None)
        self._wrapped: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        record = Span(name, parent, time.time_ns() // 1000, time.perf_counter())
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def time_calls(self, owner: object, method: str, name: str) -> None:
        """Record a span around every call of ``owner.method``: an instance's
        method or a module's function, until :meth:`restore`."""
        call = getattr(owner, method)

        def timed(*args, **kwargs):
            with self.span(name):
                return call(*args, **kwargs)

        self._wrapped.append((owner, method, vars(owner).get(method)))
        setattr(owner, method, timed)

    def restore(self) -> None:
        """Undo every :meth:`time_calls`, last first."""
        while self._wrapped:
            owner, method, own = self._wrapped.pop()
            if own is None:
                delattr(owner, method)
            else:
                setattr(owner, method, own)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        own = {}
        for index, span in enumerate(self.spans):
            children = sum(s.seconds for s in self.spans if s.parent == index)
            own[span.name] = own.get(span.name, 0.0) + span.seconds - children
        return own

    def records(self) -> List[Dict[str, object]]:
        """The spans as ``repro.obs`` trace records, for its exporters."""
        pid = os.getpid()
        tid = threading.get_ident() & 0xFFFFFFFF
        return [
            {
                "type": "span",
                "name": span.name,
                "cat": "isebench",
                "ts": span.ts_us,
                "dur": int(span.seconds * 1_000_000),
                "pid": pid,
                "tid": tid,
                "args": {"span_id": index, "parent": span.parent},
            }
            for index, span in enumerate(self.spans)
        ]


def run_traced(prepared: Prepared) -> PassRun:
    """One cold pass through the same pipeline call, under benchmark-side spans.

    The BatchRunner is built here, as the pipeline would build it, so its
    methods and its cache's and store's ``get`` can be wrapped; the pipeline
    does not close a runner it was given, so the pass closes it.
    """
    jobs = prepared.workload.jobs
    blocks = prepared.pass_blocks()
    items: List[BatchItem] = []
    spans = Spans()
    _, tracer = obs.activate()
    try:
        with spans.span("pass"):
            if blocks is None:
                with spans.span("frontend"):
                    blocks = corpus_block_profiles()
            store = _open_store(prepared)
            runner = BatchRunner(
                algorithm=DEFAULT_ALGORITHM,
                constraints=CONSTRAINTS,
                pruning=FULL_PRUNING,
                jobs=jobs,
                store=store,
            )
            spans.time_calls(runner, "run", "batch.run")
            spans.time_calls(runner, "close", "batch.close")
            spans.time_calls(runner.cache, "get", "context.build")
            spans.time_calls(batch, "canonical_form", "canon")
            if store is not None:
                spans.time_calls(store, "get", "store.get")
            try:
                # The pipeline span's self time is scoring and selection.
                with spans.span("pipeline"):
                    result = identify_instruction_set_extension(
                        blocks,
                        CONSTRAINTS,
                        selection=SELECTION,
                        batch_runner=runner,
                        progress=lambda item, done, total: items.append(item),
                    )
            finally:
                runner.close()
    finally:
        spans.restore()
        obs.deactivate()
    records = spans.records() + list(tracer.records)
    layers = _layers(spans, records, items, result, runner, store, jobs)
    return PassRun(spans.total("pass"), items, result, layers, records)


def _layers(
    spans: Spans,
    records: List[Dict[str, object]],
    items: List[BatchItem],
    result: PipelineResult,
    runner: BatchRunner,
    store: Optional[ResultStore],
    jobs: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Span times are self times: a span's duration minus its child spans, so
    a context built inside ``batch.run`` counts once, under context.build.
    The self time of ``batch.run`` is split further with the counters the
    library keeps per block.
    """
    own = spans.self_times()
    pass_s = spans.total("pass")
    fresh = [i for i in items if i.result is not None and not i.cached]
    cached = [i for i in items if i.cached]
    stats = EnumerationStats()
    for item in fresh:
        stats.merge(item.result.stats)
    lt_s = stats.lt_seconds
    fresh_s = sum(i.elapsed_seconds for i in fresh)
    frontend_s = own.get("frontend", 0.0)
    canon_s = own.get("canon", 0.0)
    context_s = own.get("context.build", 0.0)
    store_get_s = own.get("store.get", 0.0)
    score_s = own.get("pipeline", 0.0)
    close_s = own.get("batch.close", 0.0)
    # A store hit's elapsed time is its canonical form, lookup, context and
    # cut rebuild.
    rebuild_s = max(
        0.0, sum(i.elapsed_seconds for i in cached) - canon_s - store_get_s - context_s
    )
    # A fresh block's elapsed time is its enumerate call (in the pool, its
    # search alone); the context was built before it.
    search_s = fresh_s - lt_s
    if jobs == 1:
        attributed = (
            frontend_s + canon_s + context_s + store_get_s + rebuild_s
            + search_s + lt_s + score_s + close_s
        )
    else:
        # The workers' `worker.block` spans also hold the worker-side
        # context build.  These are busy times summed over workers, so only
        # the wall-clock spans add up to the pass.
        worker_s = sum(r["dur"] for r in records if r["name"] == "worker.block") / 1e6
        context_s += max(0.0, worker_s - fresh_s)
        attributed = pass_s - own["pass"]
    batch_s = spans.total("batch.run")
    block_s = sum(i.elapsed_seconds for i in items)
    spawn_s = 0.0
    worker_ts = [r["ts"] for r in records if r["name"] == "worker.chunk" and r["pid"] != os.getpid()]
    if worker_ts:
        batch_ts = next(s.ts_us for s in spans.spans if s.name == "batch.run")
        spawn_s = max(0.0, (min(worker_ts) - batch_ts) / 1e6)
    lookups = runner.cache.hits + runner.cache.misses
    return {
        "frontend.s": frontend_s,
        "context.build_s": context_s,
        "context.share": context_s / pass_s,
        "search.s": search_s,
        "search.share": search_s / pass_s,
        "search.candidates_checked": stats.candidates_checked,
        "search.pick_input_calls": stats.pick_input_calls,
        "search.pick_output_calls": stats.pick_output_calls,
        "search.duplicates": stats.duplicates,
        "search.cuts": stats.cuts_found,
        "search.candidates_per_cut": _ratio(stats.candidates_checked, stats.cuts_found),
        "dominators.lt_calls": stats.lt_calls,
        "dominators.lt_s": lt_s,
        "dominators.lt_share": _ratio(lt_s, search_s + lt_s),
        "insearch.hits": stats.insearch_hits,
        "insearch.misses": stats.insearch_misses,
        "insearch.hit_rate": _ratio(stats.insearch_hits, stats.insearch_hits + stats.insearch_misses),
        "insearch.evictions": stats.insearch_evictions,
        "batch.run_s": batch_s,
        "batch.overhead_s": batch_s - block_s / jobs,
        "batch.parallel_efficiency": _ratio(block_s, jobs * batch_s),
        "batch.pool_spawn_s": spawn_s,
        "batch.context_cache_hit_rate": _ratio(runner.cache.hits, lookups),
        "ise.score_select_s": score_s,
        "ise.candidate_cuts": sum(b.num_candidate_cuts for b in result.blocks),
        "ise.instructions_selected": len(result.extension.instructions),
        "canon.s": canon_s,
        "store.get_s": store_get_s,
        "store.rebuild_s": rebuild_s,
        "store.hit_rate": store.stats.hit_rate if store is not None else 0.0,
        "store.invalid": store.stats.invalid if store is not None else 0,
        "trace.pass_s": pass_s,
        "trace.attributed_frac": attributed / pass_s,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
