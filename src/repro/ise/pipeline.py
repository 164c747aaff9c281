"""End-to-end instruction-set-extension identification pipeline.

The conclusion of the paper notes that the enumeration algorithm "was
successfully used in our compiler toolchain; full subgraph enumeration allows
detection of high-performance custom instruction sets, yielding speedups up to
6x".  This module reproduces that downstream flow: given one or more basic
blocks (with execution counts), it enumerates the cuts, scores them, selects a
non-overlapping subset, and reports the resulting custom instructions and the
estimated application speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

from ..core.constraints import Constraints
from ..core.cut import Cut
from ..core.pruning import FULL_PRUNING, PruningConfig
from ..dfg.graph import DataFlowGraph
from ..engine.batch import BatchRunner
from ..engine.registry import DEFAULT_ALGORITHM
from ..memo.store import ResultStore
from ..obs import runtime as obs
from .isa import InstructionSetExtension, make_instruction
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel, total_software_cycles
from .selection import SelectionConfig, select_cuts
from .speedup import ScoredCut, score_masks


@dataclass
class BlockProfile:
    """A basic block together with its execution count."""

    graph: DataFlowGraph
    execution_count: float = 1.0


@dataclass
class BlockResult:
    """Per-block outcome of the pipeline."""

    graph_name: str
    execution_count: float
    num_candidate_cuts: int
    selected: List[ScoredCut] = field(default_factory=list)
    software_cycles: float = 0.0
    saved_cycles: float = 0.0

    @property
    def block_speedup(self) -> float:
        """Speedup of this basic block in isolation."""
        if self.software_cycles <= 0:
            return 1.0
        remaining = max(self.software_cycles - self.saved_cycles, 1e-9)
        return self.software_cycles / remaining


@dataclass
class PipelineResult:
    """Outcome of :func:`identify_instruction_set_extension`."""

    extension: InstructionSetExtension
    blocks: List[BlockResult] = field(default_factory=list)

    @property
    def application_speedup(self) -> float:
        """Amdahl-style overall speedup across all profiled blocks."""
        total = sum(b.software_cycles * b.execution_count for b in self.blocks)
        saved = sum(b.saved_cycles * b.execution_count for b in self.blocks)
        if total <= 0:
            return 1.0
        return total / max(total - saved, 1e-9)

    def summary(self) -> str:
        """Multi-line report of the identified extension."""
        lines = [self.extension.datasheet(), ""]
        for block in self.blocks:
            lines.append(
                f"block {block.graph_name}: {len(block.selected)} instruction(s) "
                f"selected out of {block.num_candidate_cuts} candidates, "
                f"block speedup {block.block_speedup:.2f}x"
            )
        lines.append(f"application speedup: {self.application_speedup:.2f}x")
        return "\n".join(lines)


def identify_instruction_set_extension(
    blocks: Iterable[BlockProfile],
    constraints: Optional[Constraints] = None,
    selection: SelectionConfig = SelectionConfig(),
    latency_model: LatencyModel = DEFAULT_LATENCY_MODEL,
    pruning: PruningConfig = FULL_PRUNING,
    application_name: str = "application",
    algorithm: str = DEFAULT_ALGORITHM,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
    store: Optional[ResultStore] = None,
    batch_runner: Optional[BatchRunner] = None,
    progress=None,
) -> PipelineResult:
    """Run the full enumeration → scoring → selection pipeline.

    The enumeration of the profiled blocks goes through the engine's
    :class:`~repro.engine.batch.BatchRunner` streaming scheduler
    (:meth:`~repro.engine.batch.BatchRunner.iter_run`), so whole-application
    ISE identification parallelizes across worker processes with
    ``jobs >= 2`` while producing results identical to the sequential run,
    and — with a *store* attached — every finished block's result is
    persisted as it completes: a crash mid-application loses none of the
    already-enumerated blocks.

    Parameters
    ----------
    blocks:
        Profiled basic blocks of the application.
    constraints:
        Microarchitectural I/O constraints for the custom instructions.
    selection:
        How many instructions / how much area may be spent.
    latency_model:
        Software/hardware timing model.
    pruning:
        Pruning configuration for the enumerator (ignored by algorithms that
        do not support one).
    application_name:
        Name used in the generated datasheet.
    algorithm:
        Registry name of the enumeration algorithm.
    jobs:
        Number of enumeration worker processes (1 = in-process), or
        ``"auto"`` for the machine's CPU count.
    timeout:
        Optional per-block enumeration budget in seconds, charged from the
        moment the block's task starts (queue wait is excluded).  With
        ``jobs >= 2`` a block still running at its deadline is abandoned and
        contributes no candidate cuts; a block that *completes* over budget
        (always the case with ``jobs == 1``, where the run cannot be
        interrupted) is only flagged and its cuts are kept.
    store:
        Optional persistent memoization store
        (:class:`~repro.memo.store.ResultStore`); previously enumerated
        blocks — including isomorphic ones — skip enumeration.
    batch_runner:
        Pre-configured runner to use instead of building one from the
        preceding arguments (e.g. to reuse its worker pool across calls).
    progress:
        Optional per-block callback ``progress(item, completed, total)``,
        invoked as each block's enumeration finishes (completion order).
    """
    constraints = constraints or Constraints()
    block_list = list(blocks)
    with obs.tracer().span(
        "ise.pipeline",
        cat="ise",
        application=application_name,
        blocks=len(block_list),
    ) as pipeline_span:
        # What the run builds and does not return (an owned runner, the
        # per-block contexts, unselected cuts) is freed when the helper
        # returns, so that teardown is charged to this span.
        outcome = _enumerate_and_select(
            batch_runner
            or BatchRunner(
                algorithm=algorithm,
                constraints=constraints,
                pruning=pruning,
                jobs=jobs,
                timeout=timeout,
                store=store,
            ),
            block_list,
            constraints,
            selection,
            latency_model,
            application_name,
            progress,
            owns_runner=batch_runner is None,
        )
        metrics = obs.metrics()
        metrics.inc(
            "ise.instructions_selected_total", len(outcome.extension.instructions)
        )
        metrics.inc("ise.blocks_total", len(outcome.blocks))
        metrics.set_gauge("ise.application_speedup", outcome.application_speedup)
        pipeline_span.note(
            instructions=len(outcome.extension.instructions),
            speedup=round(outcome.application_speedup, 4),
        )
    return outcome


def _enumerate_and_select(
    runner: BatchRunner,
    block_list: List[BlockProfile],
    constraints: Constraints,
    selection: SelectionConfig,
    latency_model: LatencyModel,
    application_name: str,
    progress,
    owns_runner: bool,
) -> PipelineResult:
    """Enumerate *block_list* with *runner*, then score and select per block."""
    # run() drains the stream (store write-back happens per block inside
    # it) and restores input order: instruction naming below is
    # deterministic.
    try:
        with obs.tracer().span("ise.enumerate", cat="ise"):
            items = runner.run(block_list, progress=progress).items
    finally:
        if owns_runner:
            runner.close()  # release the worker pool of a runner we own

    extension = InstructionSetExtension(application=application_name)
    block_results: List[BlockResult] = []
    instruction_index = 0

    with obs.tracer().span("ise.score_select", cat="ise"):
        for item in items:
            if item.error is not None:
                raise RuntimeError(
                    f"enumeration failed for block {item.graph_name!r}: "
                    f"{item.error}"
                )
            context = item.context or runner.cache.get(item.graph, constraints)
            if item.result is None:  # timed out: the block stays in software
                block_results.append(
                    BlockResult(
                        graph_name=item.graph_name,
                        execution_count=item.execution_count,
                        num_candidate_cuts=0,
                        software_cycles=total_software_cycles(
                            context, latency_model
                        ),
                    )
                )
                continue
            scored = score_masks(
                item.result.masks,
                context,
                execution_count=item.execution_count,
                model=latency_model,
            )
            selected = [  # only the selected cuts become Cut objects
                ScoredCut.from_score(Cut.from_mask(context, score.mask), score)
                for score in select_cuts(scored, selection)
            ]
            result = BlockResult(
                graph_name=item.graph_name,
                execution_count=item.execution_count,
                num_candidate_cuts=len(item.result),
                selected=selected,
                software_cycles=total_software_cycles(context, latency_model),
                saved_cycles=sum(s.saved_cycles_per_execution for s in selected),
            )
            block_results.append(result)
            for scored_cut in selected:
                extension.instructions.append(
                    make_instruction(
                        f"cust{instruction_index}",
                        scored_cut,
                        context,
                        latency_model,
                    )
                )
                instruction_index += 1

    return PipelineResult(extension=extension, blocks=block_results)
