"""JSON serialization for data-flow graphs.

The JSON schema is intentionally simple and stable so that workload suites
can be saved to disk and benchmark runs are reproducible::

    {
      "version": 1,
      "name": "crc32_step",
      "nodes": [
        {"id": 0, "opcode": "input", "name": "crc", "forbidden": true,
         "live_out": false},
        ...
      ],
      "edges": [[0, 3], [1, 3], ...]
    }

The ``version`` field is the schema version, validated on load so that stored
graphs (and the memoization store built on top of them) can be migrated
safely: a graph written by a newer schema fails with a clear error instead of
being silently misread.  Dictionaries without the field are treated as
version 1 (the format predating the field).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union, cast

from .graph import DataFlowGraph
from .opcodes import Opcode

#: Version of the DFG JSON schema written by :func:`graph_to_dict`.
SCHEMA_VERSION = 1

#: Schema versions :func:`graph_from_dict` knows how to read.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1})


def graph_to_dict(graph: DataFlowGraph) -> Dict[str, object]:
    """Convert a DFG to a JSON-serialisable dictionary."""
    nodes: List[Dict[str, object]] = []
    for node in graph.nodes():
        entry: Dict[str, object] = {
            "id": node.node_id,
            "opcode": node.opcode.value,
            "forbidden": node.forbidden,
            "live_out": node.live_out,
        }
        if node.name is not None:
            entry["name"] = node.name
        if node.attributes:
            entry["attributes"] = dict(node.attributes)
        nodes.append(entry)
    return {
        "version": SCHEMA_VERSION,
        "name": graph.name,
        "nodes": nodes,
        "edges": sorted(graph.edges()),
    }


def graph_from_dict(data: Dict[str, object]) -> DataFlowGraph:
    """Rebuild a DFG from the dictionary produced by :func:`graph_to_dict`.

    Raises ``ValueError`` (naming the graph) when the dictionary was written
    by a schema version this build cannot read.
    """
    name = str(data.get("name", "dfg"))
    version = data.get("version", 1)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS))
        raise ValueError(
            f"graph {name!r}: unsupported DFG schema version {version!r} "
            f"(this build reads version(s) {supported}); "
            "regenerate the file or migrate it before loading"
        )
    graph = DataFlowGraph(name=name)
    nodes = sorted(
        cast(List[Dict[str, Any]], data["nodes"]),
        key=lambda entry: cast(int, entry["id"]),
    )
    for expected_id, entry in enumerate(nodes):
        if entry["id"] != expected_id:
            raise ValueError(
                f"node ids must be dense: expected {expected_id}, got {entry['id']}"
            )
        node_id = graph.add_node(
            Opcode(entry["opcode"]),
            name=entry.get("name"),
            forbidden=bool(entry.get("forbidden", False)) or None
            if entry.get("forbidden") is None
            else bool(entry.get("forbidden")),
            live_out=bool(entry.get("live_out", False)),
            **entry.get("attributes", {}),
        )
        assert node_id == expected_id
    for src, dst in cast(List[Tuple[int, int]], data["edges"]):
        graph.add_edge(int(src), int(dst))
    return graph


def dumps(graph: DataFlowGraph, indent: int = 2) -> str:
    """Serialize *graph* to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def loads(text: str) -> DataFlowGraph:
    """Deserialize a DFG from a JSON string."""
    return graph_from_dict(json.loads(text))


def save(graph: DataFlowGraph, path: Union[str, Path]) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(dumps(graph), encoding="utf-8")


def load(path: Union[str, Path]) -> DataFlowGraph:
    """Read a DFG from a JSON file."""
    return loads(Path(path).read_text(encoding="utf-8"))
