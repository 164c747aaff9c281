"""Configuration of the pruning techniques of Section 5.3.

Every pruning rule can be toggled individually so that the ablation benchmark
(``benchmarks/bench_pruning_ablation.py``) can measure how much each one
contributes.  The bounds of ``prune_while_building`` (the output budget
under the last output and under the one before it, the input budget and the
input-hole bound) are pure optimizations: they drop only subtrees that hold
no cut either acceptance mode takes.  The other rules are not: the
configurations do not all report the same cuts (see
:mod:`repro.core.incremental` for what the test suite checks instead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PruningConfig:
    """Which pruning techniques the incremental enumerator applies.

    Attributes
    ----------
    output_output:
        Output–output pruning: accept cuts whose *internal* outputs (outputs
        that were not explicitly chosen) keep the total within ``Nout``, and
        do not explicitly pick a vertex that is an ancestor of an already
        selected output.
    prune_while_building:
        Inspect the incrementally built ``S`` with the chosen inputs and the
        forbidden vertices it contains masked out, a lower bound on the final
        cut, and reject the branch when

        * more than ``Nout`` of its vertices have a forbidden successor
          (counted as ``too_many_unavoidable_outputs``),
        * once the last output is chosen, its vertices that must stay
          outputs outnumber ``Nout`` plus the inputs still to choose
          (``output_budget``).  A vertex with a forbidden successor, or a
          successor outside ``S`` and the last output's ancestors, stays
          an output unless it is chosen as an input.  Under the output
          before the last, the same count drops the branch only if no
          single output still pickable could take in enough of those
          vertices (one stops being an output only if each of its
          successors outside ``S`` and the output's ancestors is that
          later output or one of its ancestors); with output-output
          pruning on, the later output counts as one more output
          (``next_output_budget``), or
        * a PICK-INPUTS seed's output still has more source-to-output
          paths, sharing no vertex a later input could take, than inputs
          left to cut them, or exactly as many and the seed is on none
          (``input_budget``, the input budget bound).  Paths may share the
          vertices input-input blocks, but only while ``input_input`` is on,
          or
        * a chosen input lies on a path between two vertices of the masked
          ``S`` (a *hole*: the cut is not convex while both stay in it), and
          a hole's vertices above it and those below it both outnumber the
          inputs left to choose; with one input left, no single vertex is
          the whole of one side of every hole, or, under a seed whose output
          the grown input set does not yet dominate, no such vertex is a
          completion that seed could still take (``input_hole``, the
          input-hole bound).  It is tested where a seed or a completion
          grows the input set.
    output_input:
        Skip input candidates whose every pairing with the chosen output is
        doomed: candidates with a forbidden vertex, not already an input, on
        some path to the output.
    input_input:
        Skip seed sets in which a newly added input postdominates an input
        that is already part of the seed (or vice versa).
    connected_recovery:
        When a partially built cut temporarily exceeds the output budget,
        keep searching but only accept additional outputs that are reachable
        from an already selected input (Section 5.3, "Connectedness").
    """

    output_output: bool = True
    prune_while_building: bool = True
    output_input: bool = True
    input_input: bool = True
    connected_recovery: bool = True

    def disable(self, name: str) -> "PruningConfig":
        """Return a copy with the pruning *name* switched off."""
        if not hasattr(self, name):
            raise AttributeError(f"unknown pruning flag {name!r}")
        return replace(self, **{name: False})

    def enabled_names(self) -> list:
        """Names of the pruning rules that are switched on."""
        return [
            name
            for name in (
                "output_output",
                "prune_while_building",
                "output_input",
                "input_input",
                "connected_recovery",
            )
            if getattr(self, name)
        ]


#: All prunings on — the configuration the paper benchmarks.
FULL_PRUNING = PruningConfig()

#: Every pruning off — the plain incremental algorithm of Figure 3.
NO_PRUNING = PruningConfig(
    output_output=False,
    prune_while_building=False,
    output_input=False,
    input_input=False,
    connected_recovery=False,
)
