"""Enumeration context: everything precomputed before the search starts.

The paper's Section 5.4 lists the data structures kept by the implementation:
adjacency lists and matrix, path-presence information annotated with forbidden
vertices, and the dominator/postdominator trees.  :class:`EnumerationContext`
bundles all of them but the dominator tree, which no search reads (each run
derives the dominator arrays of its own input sets).  It is derived once from
a :class:`~repro.dfg.graph.DataFlowGraph` and a
:class:`~repro.core.constraints.Constraints` object, and is shared by every
enumeration algorithm and by the validity checks.

The postdominator tree serves two pruning rules: two vertices where one
postdominates the other are never both outputs of one convex cut (output
admissibility, Section 5.1), and a seed set in which one input
postdominates another is dismissed before the dominator kernel runs
(input–input pruning, Section 5.3).  Postdominators are the dominators of
the reverse graph rooted at the sink, a DAG too, so the search's own kernel
(:func:`~repro.dominators.iterative.immediate_dominators_dag`) builds the
tree over the reversed topological order, with the successor lists as the
reverse graph's predecessor lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..dfg.augment import AugmentedDFG, augment
from ..dfg.graph import DataFlowGraph
from ..dfg.opcodes import is_memory
from ..dfg.reachability import ReachabilityIndex, mask_from_ids
from ..dominators.dominator_tree import DominatorTree
from ..dominators.iterative import immediate_dominators_dag
from .constraints import Constraints


def effective_forbidden(node, constraints: Constraints) -> bool:
    """The forbidden flag of *node* after constraint-driven overrides.

    Memory operations are forbidden unless ``allow_memory_ops``; vertices in
    ``extra_forbidden`` are forbidden unconditionally.  This is the single
    definition of the rule: :meth:`EnumerationContext.build` applies it to
    the working graph, and :mod:`repro.memo.canon` folds it into canonical
    hashes — the two must agree or the memoization store would serve results
    computed under a different forbidden set.
    """
    forbidden = node.forbidden
    if node.is_operation:
        if is_memory(node.opcode):
            forbidden = not constraints.allow_memory_ops
        if node.node_id in constraints.extra_forbidden:
            forbidden = True
    return forbidden


@dataclass(frozen=True)
class EnumerationContext:
    """Precomputed view of a basic block, ready for cut enumeration.

    Use :meth:`build` to construct one.  A context holds only what
    :meth:`build` computes from the graph and the constraints, and no
    enumeration writes to it: the search's own memo (reachable regions,
    dominator arrays, stuck masks and ``B({w}, o)`` rows) lives on the
    :class:`~repro.core.incremental.IncrementalEnumerator` of one run and is
    freed when that run returns.  So one context can serve any number of
    runs (pruning variants, batch re-runs, ``ContextCache`` hits), and each
    run counts exactly what a run on a fresh context counts.
    """

    constraints: Constraints
    original_graph: DataFlowGraph
    augmented: AugmentedDFG
    reach: ReachabilityIndex
    postdom_tree: DominatorTree
    successor_lists: List[List[int]] = field(default_factory=list)
    predecessor_lists: List[List[int]] = field(default_factory=list)
    forbidden_mask: int = 0
    candidate_mask: int = 0
    candidate_nodes: List[int] = field(default_factory=list)
    topo_order: List[int] = field(default_factory=list)
    #: Index of each vertex id in :attr:`topo_order`.
    topo_position: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, graph: DataFlowGraph, constraints: Optional[Constraints] = None) -> "EnumerationContext":
        """Prepare a context for enumerating the cuts of *graph* under *constraints*."""
        constraints = constraints or Constraints()

        working = graph.copy()
        # Apply constraint-driven forbidden flags before augmentation so that
        # the artificial source is wired to the right vertices.
        for node in working.nodes():
            node.forbidden = effective_forbidden(node, constraints)

        augmented = augment(working)
        reach = ReachabilityIndex(augmented.graph, forbidden=augmented.forbidden)

        num_nodes = augmented.graph.num_nodes
        successor_lists = [list(augmented.graph.successors(v)) for v in range(num_nodes)]
        predecessor_lists = [list(augmented.graph.predecessors(v)) for v in range(num_nodes)]

        forbidden_mask = mask_from_ids(augmented.forbidden)
        candidate_nodes = [
            v for v in augmented.original_node_ids() if v not in augmented.forbidden
        ]
        candidate_mask = mask_from_ids(candidate_nodes)
        topo_order = list(augmented.graph.topological_order())
        topo_position = [0] * num_nodes
        for position, vertex in enumerate(topo_order):
            topo_position[vertex] = position
        postdom_tree = DominatorTree(
            immediate_dominators_dag(topo_order[::-1], successor_lists, augmented.sink),
            augmented.sink,
        )

        return cls(
            constraints=constraints,
            original_graph=graph,
            augmented=augmented,
            reach=reach,
            postdom_tree=postdom_tree,
            successor_lists=successor_lists,
            predecessor_lists=predecessor_lists,
            forbidden_mask=forbidden_mask,
            candidate_mask=candidate_mask,
            candidate_nodes=candidate_nodes,
            topo_order=topo_order,
            topo_position=topo_position,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of vertices of the augmented graph (original + source + sink)."""
        return self.augmented.graph.num_nodes

    @property
    def source(self) -> int:
        """Artificial source vertex (root for dominator queries)."""
        return self.augmented.source

    @property
    def sink(self) -> int:
        """Artificial sink vertex (root for postdominator queries)."""
        return self.augmented.sink

    @property
    def max_inputs(self) -> int:
        """``Nin`` of the active constraint set."""
        return self.constraints.max_inputs

    @property
    def max_outputs(self) -> int:
        """``Nout`` of the active constraint set."""
        return self.constraints.max_outputs

    def is_forbidden(self, node_id: int) -> bool:
        """``True`` if the vertex may not belong to any cut."""
        return bool((self.forbidden_mask >> node_id) & 1)

    def is_candidate(self, node_id: int) -> bool:
        """``True`` if the vertex may belong to a cut."""
        return bool((self.candidate_mask >> node_id) & 1)

    def ancestors_mask(self, node_id: int) -> int:
        """Ancestor mask of *node_id* in the augmented graph."""
        return self.reach.ancestors_mask(node_id)

    def graph_name(self) -> str:
        """Name of the underlying basic block."""
        return self.original_graph.name
