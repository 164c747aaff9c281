"""Isomorphism-class deduplication of enumeration workloads.

Real applications are full of structurally identical basic blocks (unrolled
loop bodies, inlined helpers, recurring computational idioms).  Instead of
enumerating each copy, :func:`enumerate_deduplicated` groups the blocks of a
workload into isomorphism classes via :mod:`repro.memo.canon`, enumerates
**one representative per class**, and remaps the representative's cut bit
masks through the canonical permutations onto every member — producing, for
every block, the same cut *set* a direct enumeration would.

Blocks whose canonical form is incomplete (backtracking budget exhausted on a
pathologically symmetric graph) still deduplicate against byte-identical
copies of themselves; they just cannot merge with relabeled isomorphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core.constraints import Constraints
from ..core.pruning import PruningConfig
from ..core.stats import EnumerationResult, EnumerationStats
from ..dfg.graph import DataFlowGraph
from .canon import CanonicalForm, canonical_form
from .store import ResultStore


@dataclass
class IsoClass:
    """One isomorphism class of a workload's blocks.

    Indices refer to the normalized input order of the workload.
    """

    canonical_hash: str
    representative: int
    members: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class DedupReport:
    """Outcome of :func:`enumerate_deduplicated`, in input order.

    ``items`` are :class:`~repro.engine.batch.BatchItem` records; members
    that were *not* the class representative carry a result whose cuts were
    remapped from the representative's run (and share its statistics), with
    ``item.deduplicated`` set.
    """

    algorithm: str
    constraints: Constraints
    classes: List[IsoClass] = field(default_factory=list)
    items: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def num_blocks(self) -> int:
        return len(self.items)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def saved_runs(self) -> int:
        """Enumeration runs avoided by deduplication."""
        return self.num_blocks - self.num_classes

    def results(self) -> List[EnumerationResult]:
        """The successful per-block results, in input order."""
        return [item.result for item in self.items if item.result is not None]

    def summary(self) -> str:
        return (
            f"{self.num_blocks} block(s) in {self.num_classes} isomorphism "
            f"class(es): {self.saved_runs} enumeration run(s) saved "
            f"({self.algorithm!r}, {self.constraints.describe()})"
        )


def group_by_isomorphism(
    graphs: Sequence[DataFlowGraph],
    constraints: Optional[Constraints] = None,
) -> Tuple[List[IsoClass], List[CanonicalForm]]:
    """Partition *graphs* into isomorphism classes.

    Returns the classes (ordered by first appearance, representative = first
    member) and the canonical form of every graph, in input order.
    """
    forms = [canonical_form(graph, constraints) for graph in graphs]
    classes: List[IsoClass] = []
    by_hash = {}
    for index, form in enumerate(forms):
        existing = by_hash.get(form.hash)
        if existing is None:
            existing = IsoClass(canonical_hash=form.hash, representative=index)
            by_hash[form.hash] = existing
            classes.append(existing)
        existing.members.append(index)
    return classes, forms


def remap_masks(
    masks: Sequence[int],
    source: CanonicalForm,
    target: CanonicalForm,
) -> List[int]:
    """Remap cut node masks from *source*'s graph onto *target*'s graph.

    Both forms must belong to the same isomorphism class (equal hashes); the
    masks travel through the shared canonical id space.
    """
    if source.hash != target.hash:
        raise ValueError(
            "cannot remap masks across isomorphism classes "
            f"({source.hash[:12]}… vs {target.hash[:12]}…)"
        )
    return [
        target.from_canonical_mask(source.to_canonical_mask(mask))
        for mask in masks
    ]


def _prepare_dedup(
    blocks,
    algorithm: Optional[str],
    constraints: Optional[Constraints],
    pruning: Optional[PruningConfig],
    store: Optional[ResultStore],
    jobs: Union[int, str],
    timeout: Optional[float],
):
    """Shared setup of the dedup drivers: runner, items, classes, forms."""
    # Imported lazily: repro.engine.batch itself imports this package.
    from ..engine.batch import BatchRunner, normalize_blocks

    runner = BatchRunner(
        algorithm=algorithm or _default_algorithm(),
        constraints=constraints,
        pruning=pruning,
        jobs=jobs,
        timeout=timeout,
        store=store,
    )
    items = normalize_blocks(blocks)
    classes, forms = group_by_isomorphism(
        [item.graph for item in items], runner.constraints
    )
    return runner, items, classes, forms


def _stream_classes(runner, items, classes, forms, store):
    """Yield items class by class as each representative's enumeration lands.

    Representatives stream through :meth:`BatchRunner.iter_run` — no barrier
    between isomorphism classes — and every member of a class is yielded
    (cuts remapped through the canonical permutations) immediately after its
    representative, so downstream consumers see completed work without
    waiting for the whole workload.
    """
    representatives = [items[cls.representative] for cls in classes]
    rep_stream = runner.iter_run(
        [(item.graph, item.execution_count) for item in representatives],
        canonical_forms=(
            [forms[cls.representative] for cls in classes]
            if store is not None
            else None
        ),
    )
    for rep_item in rep_stream:
        cls = classes[rep_item.index]
        original_rep = items[cls.representative]
        original_rep.result = rep_item.result
        original_rep.context = rep_item.context
        original_rep.elapsed_seconds = rep_item.elapsed_seconds
        original_rep.timed_out = rep_item.timed_out
        original_rep.error = rep_item.error
        original_rep.cached = rep_item.cached
        yield original_rep
        if rep_item.result is None:
            # The whole class fails with its representative.
            for index in cls.members:
                if index != cls.representative:
                    items[index].timed_out = rep_item.timed_out
                    items[index].error = rep_item.error
                    yield items[index]
            continue
        rep_form = forms[cls.representative]
        for index in cls.members:
            if index == cls.representative:
                continue
            member = items[index]
            member.context = runner.cache.get(member.graph, runner.constraints)
            stats = EnumerationStats()
            stats.merge(rep_item.result.stats)
            member.result = EnumerationResult(
                masks=remap_masks(rep_item.result.masks, rep_form, forms[index]),
                stats=stats,
                graph_name=member.graph_name,
                algorithm=rep_item.result.algorithm,
                context=member.context,
            )
            member.deduplicated = True
            member.elapsed_seconds = 0.0
            yield member


def iter_enumerate_deduplicated(
    blocks,
    algorithm: Optional[str] = None,
    constraints: Optional[Constraints] = None,
    pruning: Optional[PruningConfig] = None,
    store: Optional[ResultStore] = None,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
    progress=None,
):
    """Streaming variant of :func:`enumerate_deduplicated`.

    Yields every block's :class:`~repro.engine.batch.BatchItem` in completion
    order: each class representative as soon as its enumeration finishes,
    followed immediately by the class members with remapped results.
    *progress*, if given, is called as ``progress(item, completed, total)``
    before each item is yielded (``total`` counts blocks, not classes).
    """
    runner, items, classes, forms = _prepare_dedup(
        blocks, algorithm, constraints, pruning, store, jobs, timeout
    )
    total = len(items)
    completed = 0
    try:
        for item in _stream_classes(runner, items, classes, forms, store):
            completed += 1
            if progress is not None:
                progress(item, completed, total)
            yield item
    finally:
        runner.close()  # release the worker pool this driver owns


def enumerate_deduplicated(
    blocks,
    algorithm: Optional[str] = None,
    constraints: Optional[Constraints] = None,
    pruning: Optional[PruningConfig] = None,
    store: Optional[ResultStore] = None,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
    progress=None,
) -> DedupReport:
    """Enumerate a workload with isomorphism-class deduplication.

    Accepts everything :class:`~repro.engine.batch.BatchRunner` accepts (a
    :class:`~repro.workloads.suite.WorkloadSuite`, graphs, ``(graph, count)``
    pairs, profiled blocks).  One representative per isomorphism class is
    enumerated — through the runner's streaming scheduler, so
    ``store``/``jobs``/``timeout`` all apply and classes complete
    independently — and the cut masks are remapped onto the other members.
    Member results carry the representative's statistics (the search was only
    run once) and have ``item.deduplicated`` set.  Use
    :func:`iter_enumerate_deduplicated` to consume blocks as they finish.
    """
    runner, items, classes, forms = _prepare_dedup(
        blocks, algorithm, constraints, pruning, store, jobs, timeout
    )
    report = DedupReport(
        algorithm=runner.algorithm,
        constraints=runner.constraints,
        classes=classes,
        items=items,
    )
    total = len(items)
    completed = 0
    try:
        for item in _stream_classes(runner, items, classes, forms, store):
            completed += 1
            if progress is not None:
                progress(item, completed, total)
    finally:
        runner.close()  # release the worker pool this driver owns
    return report


def _default_algorithm() -> str:
    from ..engine.registry import DEFAULT_ALGORITHM

    return DEFAULT_ALGORITHM
