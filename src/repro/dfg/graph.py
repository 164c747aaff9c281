"""Basic-block data-flow graph container.

The :class:`DataFlowGraph` is the substrate every other package builds on.  It
stores a directed acyclic graph whose vertices are :class:`~repro.dfg.node.DFGNode`
records identified by dense integer ids, and keeps the two representations the
paper uses simultaneously (Section 5.4): predecessor/successor adjacency lists
for traversal, plus (on demand, see :mod:`repro.dfg.reachability`) a
path-presence matrix for constant-time "is there a path" queries.

Terminology (mirroring the paper):

* ``Iext`` — external inputs: vertices with no predecessors, representing
  values computed outside the basic block.  They are always forbidden.
* ``Oext`` — vertices whose value is live outside the basic block.  This set
  is a superset of the vertices with no successors; additional vertices can
  be flagged with ``live_out=True``.
* forbidden set ``F`` — vertices that may never belong to a cut.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .node import DFGNode
from .opcodes import Opcode, is_forbidden_by_default


class GraphStructureError(ValueError):
    """Raised when an operation would corrupt the DFG structure."""


class DataFlowGraph:
    """A rooted-convertible DAG of data-flow operations.

    Vertices are created through :meth:`add_node` and receive consecutive
    integer identifiers starting at zero; edges are added with
    :meth:`add_edge`.  The class enforces acyclicity lazily: cycles are only
    detected when a topological order is requested or :meth:`validate` is
    called, which keeps edge insertion O(1).
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: List[DFGNode] = []
        self._preds: List[List[int]] = []
        self._succs: List[List[int]] = []
        self._edge_set: Set[Tuple[int, int]] = set()
        self._topo_cache: Optional[List[int]] = None
        self._structural_hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        opcode: Opcode,
        name: Optional[str] = None,
        forbidden: Optional[bool] = None,
        live_out: bool = False,
        **attributes: object,
    ) -> int:
        """Add a vertex and return its identifier.

        Parameters
        ----------
        opcode:
            Operation performed by the vertex.
        name:
            Optional human-readable label.
        forbidden:
            Explicit forbidden flag.  When ``None`` the opcode default is used
            (memory/control/external vertices are forbidden, everything else is
            allowed).  Passing ``False`` for an *always*-forbidden opcode
            (external inputs, source, sink, branches) is rejected.
        live_out:
            ``True`` if the produced value is consumed outside the basic block.
        """
        node_id = len(self._nodes)
        if forbidden is None:
            forbidden = is_forbidden_by_default(opcode)
        node = DFGNode(
            node_id=node_id,
            opcode=opcode,
            name=name,
            forbidden=forbidden,
            live_out=live_out,
            attributes=dict(attributes),
        )
        if not forbidden and node.default_forbidden and not node.is_operation:
            raise GraphStructureError(
                f"vertex {node.label}: opcode {opcode.value} cannot be allowed in cuts"
            )
        self._nodes.append(node)
        self._preds.append([])
        self._succs.append([])
        self._topo_cache = None
        self._structural_hash = None
        return node_id

    def add_edge(self, src: int, dst: int) -> None:
        """Add a data dependence edge ``src -> dst``.

        Parallel edges are collapsed (a vertex reading the same value twice,
        e.g. ``x * x``, contributes a single graph edge, like in the paper's
        graphs); self-loops are rejected.
        """
        self._check_id(src)
        self._check_id(dst)
        if src == dst:
            raise GraphStructureError(f"self-loop on vertex {src} is not allowed")
        if (src, dst) in self._edge_set:
            return
        self._edge_set.add((src, dst))
        self._succs[src].append(dst)
        self._preds[dst].append(src)
        self._topo_cache = None
        self._structural_hash = None

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise GraphStructureError(
                f"vertex id {node_id} out of range (graph has {len(self._nodes)} vertices)"
            )

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edge_set)

    def node(self, node_id: int) -> DFGNode:
        """Return the :class:`DFGNode` record for *node_id*."""
        self._check_id(node_id)
        return self._nodes[node_id]

    def nodes(self) -> Iterator[DFGNode]:
        """Iterate over all node records in id order."""
        return iter(self._nodes)

    def node_ids(self) -> range:
        """Range of all vertex identifiers."""
        return range(len(self._nodes))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all edges as ``(src, dst)`` pairs."""
        for src in self.node_ids():
            for dst in self._succs[src]:
                yield (src, dst)

    def has_edge(self, src: int, dst: int) -> bool:
        """``True`` if the edge ``src -> dst`` exists."""
        return (src, dst) in self._edge_set

    def predecessors(self, node_id: int) -> Sequence[int]:
        """Immediate predecessors of *node_id* (operands)."""
        self._check_id(node_id)
        return tuple(self._preds[node_id])

    def successors(self, node_id: int) -> Sequence[int]:
        """Immediate successors of *node_id* (uses of its value)."""
        self._check_id(node_id)
        return tuple(self._succs[node_id])

    def in_degree(self, node_id: int) -> int:
        """Number of operands of *node_id*."""
        self._check_id(node_id)
        return len(self._preds[node_id])

    def out_degree(self, node_id: int) -> int:
        """Number of uses of the value produced by *node_id*."""
        self._check_id(node_id)
        return len(self._succs[node_id])

    def opcode(self, node_id: int) -> Opcode:
        """Opcode of vertex *node_id*."""
        return self.node(node_id).opcode

    def structural_hash(self) -> str:
        """Cached SHA-256 fingerprint of the graph's full content.

        Covers the name, every node record (opcode, name, forbidden,
        live-out, attributes) and the edge set — everything the stable JSON
        serialization covers — so two graph objects share a hash exactly
        when :func:`repro.dfg.serialization.graph_to_dict` would emit the
        same document.  Unlike the JSON pass this is computed **once** and
        cached; mutations through the graph API (:meth:`add_node`,
        :meth:`add_edge`, :meth:`set_forbidden`, :meth:`set_live_out`)
        invalidate it.  Mutating a :class:`~repro.dfg.node.DFGNode` record
        directly bypasses the invalidation — use the setters.

        This is the fingerprint of the engine's context cache.
        """
        cached = self._structural_hash
        if cached is None:
            parts: List[str] = [repr(self.name)]
            for node in self._nodes:
                parts.append(
                    repr(
                        (
                            node.opcode.value,
                            node.name,
                            node.forbidden,
                            node.live_out,
                            sorted(node.attributes.items()) if node.attributes else (),
                        )
                    )
                )
            parts.append(repr(sorted(self._edge_set)))
            digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
            cached = digest.hexdigest()
            self._structural_hash = cached
        return cached

    # ------------------------------------------------------------------ #
    # Paper-specific vertex sets
    # ------------------------------------------------------------------ #
    def external_inputs(self) -> List[int]:
        """The ``Iext`` set: vertices with no predecessors.

        Per Section 3 of the paper these represent input variables of the
        basic block; they are always forbidden.
        """
        return [v for v in self.node_ids() if not self._preds[v]]

    def live_out_nodes(self) -> List[int]:
        """The ``Oext`` set: sinks of the DAG plus explicitly flagged vertices."""
        result = []
        for v in self.node_ids():
            node = self._nodes[v]
            if node.is_artificial:
                continue
            if not self._succs[v] or node.live_out:
                result.append(v)
        return result

    def forbidden_nodes(self) -> Set[int]:
        """The forbidden set ``F`` (user-forbidden plus external inputs)."""
        return {v for v in self.node_ids() if self._nodes[v].forbidden}

    def operation_nodes(self) -> List[int]:
        """Vertices that represent actual computations."""
        return [v for v in self.node_ids() if self._nodes[v].is_operation]

    def candidate_nodes(self) -> List[int]:
        """Vertices that may belong to a cut (operations that are not forbidden)."""
        return [
            v
            for v in self.node_ids()
            if self._nodes[v].is_operation and not self._nodes[v].forbidden
        ]

    def set_forbidden(self, node_id: int, forbidden: bool = True) -> None:
        """Override the forbidden flag of an operation vertex."""
        node = self.node(node_id)
        if not forbidden and (node.is_external or node.is_artificial):
            raise GraphStructureError(
                f"vertex {node.label} is external/artificial and must stay forbidden"
            )
        node.forbidden = forbidden
        self._structural_hash = None

    def set_live_out(self, node_id: int, live_out: bool = True) -> None:
        """Flag a vertex as live outside the basic block (member of ``Oext``)."""
        self.node(node_id).live_out = live_out
        self._structural_hash = None

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Vertices in a topological order (raises on cycles).

        The order is cached and invalidated whenever the graph is mutated.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        in_deg = [len(self._preds[v]) for v in self.node_ids()]
        ready = [v for v in self.node_ids() if in_deg[v] == 0]
        order: List[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for succ in self._succs[v]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise GraphStructureError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = order
        return list(order)

    def is_dag(self) -> bool:
        """``True`` if the graph is acyclic."""
        try:
            self.topological_order()
        except GraphStructureError:
            return False
        return True

    def ancestors(self, node_id: int) -> Set[int]:
        """All vertices from which *node_id* is reachable (excluding itself)."""
        self._check_id(node_id)
        seen: Set[int] = set()
        stack = list(self._preds[node_id])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._preds[v])
        return seen

    def descendants(self, node_id: int) -> Set[int]:
        """All vertices reachable from *node_id* (excluding itself)."""
        self._check_id(node_id)
        seen: Set[int] = set()
        stack = list(self._succs[node_id])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._succs[v])
        return seen

    def depth(self, node_id: int) -> int:
        """Length (in edges) of the longest path from any root to *node_id*."""
        depths = self.all_depths()
        return depths[node_id]

    def all_depths(self) -> List[int]:
        """Longest-path depth of every vertex, roots having depth 0."""
        depths = [0] * len(self._nodes)
        for v in self.topological_order():
            for succ in self._succs[v]:
                if depths[v] + 1 > depths[succ]:
                    depths[succ] = depths[v] + 1
        return depths

    def critical_path_length(self) -> int:
        """Number of edges on the longest path of the DAG."""
        if not self._nodes:
            return 0
        return max(self.all_depths())

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "DataFlowGraph":
        """Deep copy of the graph (node records are copied)."""
        clone = DataFlowGraph(name=name or self.name)
        clone._nodes = [node.copy() for node in self._nodes]
        clone._preds = [list(p) for p in self._preds]
        clone._succs = [list(s) for s in self._succs]
        clone._edge_set = set(self._edge_set)
        return clone

    def induced_subgraph(self, vertex_ids: Iterable[int]) -> "DataFlowGraph":
        """Return the subgraph induced by *vertex_ids* (re-numbered densely)."""
        keep = sorted(set(vertex_ids))
        for v in keep:
            self._check_id(v)
        remap = {old: new for new, old in enumerate(keep)}
        sub = DataFlowGraph(name=f"{self.name}_sub")
        for old in keep:
            node = self._nodes[old]
            new_id = sub.add_node(
                node.opcode,
                name=node.name,
                forbidden=node.forbidden,
                live_out=node.live_out,
                **node.attributes,
            )
            assert new_id == remap[old]
        for src, dst in self._edge_set:
            if src in remap and dst in remap:
                sub.add_edge(remap[src], remap[dst])
        return sub

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataFlowGraph({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
