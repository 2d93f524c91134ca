"""Core labeled-graph data model: typed nodes, directed labeled edges."""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import DuplicateEdge, UnknownNode

_WS = re.compile(r"\s+")

# Node kind tags. Clevr operation nodes use KIND_CLEVR_OP plus an op name
# (and a parameter when the operation is parameterized).
KIND_ACTIVITY = "activity"
KIND_DECISION = "decision"
KIND_CONCEPT = "concept"
KIND_CLEVR_OP = "clevr_op"


@functools.lru_cache(maxsize=1 << 14)
def normalize_label(label: str, case_sensitive: bool = False) -> str:
    """Trim, collapse internal whitespace, and (by default) case-fold.

    Cached: graphs repeat their labels, and edge keys are derived from them
    wherever edges are counted, matched or checked."""
    text = _WS.sub(" ", label.strip())
    return text if case_sensitive else text.casefold()


def edge_key(source: str, target: str, label: str) -> tuple[str, str, str]:
    """The identity of an edge: its endpoints and its normalized label.

    Labels are always case-folded here, whatever a profile says about node
    labels: a graph holds at most one edge per key, so edges whose labels
    differ only in case or spacing are the same edge everywhere they are
    counted, matched or checked.
    """
    return source, target, normalize_label(label)


@dataclass(frozen=True, slots=True)
class NodeKind:
    kind: str
    op: Optional[str] = None
    param: Optional[str] = None

    def __post_init__(self):
        if self.kind == KIND_CLEVR_OP:
            if not self.op:
                raise ValueError("clevr_op kind requires an operation name")
        elif self.op is not None or self.param is not None:
            raise ValueError(f"{self.kind} kind carries no operation fields")

    @property
    def is_clevr(self) -> bool:
        return self.kind == KIND_CLEVR_OP


ACTIVITY = NodeKind(KIND_ACTIVITY)
DECISION = NodeKind(KIND_DECISION)
CONCEPT = NodeKind(KIND_CONCEPT)


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    label: str
    kind: NodeKind


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    label: str = ""


@dataclass
class LabeledGraph:
    """Typed nodes and directed labeled edges; mutable during construction,
    treated as immutable afterwards.

    A graph holds at most one edge per edge_key. add_edge enforces this
    (DuplicateEdge) and has_edge answers by it, from the key set edge_keys()
    derives from `edges` when first called and add_edge keeps up to date
    from then on. A graph whose edges are unique by construction, such as
    ConstraintProblem.induced_graph(), is given its edge list whole and
    holds no key set unless a caller asks.
    """

    nodes: dict[str, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    _edge_keys: set[tuple[str, str, str]] | None = field(default=None, repr=False)
    _next_id: int = field(default=0, repr=False)

    def add_node(self, label: str, kind: NodeKind = ACTIVITY, node_id: str | None = None) -> str:
        """Insert a node and return its id. Ids are identity; labels are data."""
        if not label and not kind.is_clevr:
            raise ValueError("only clevr_op nodes may have an empty label")
        if node_id is None:
            while f"n{self._next_id}" in self.nodes:
                self._next_id += 1
            node_id = f"n{self._next_id}"
            self._next_id += 1
        elif node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = Node(node_id, label, kind)
        return node_id

    def add_edge(self, source: str, target: str, label: str = "") -> None:
        if source not in self.nodes:
            raise UnknownNode(source)
        if target not in self.nodes:
            raise UnknownNode(target)
        keys = self.edge_keys()
        key = edge_key(source, target, label)
        if key in keys:
            raise DuplicateEdge(str(key))
        keys.add(key)
        self.edges.append(Edge(source, target, label))

    def has_edge(self, source: str, target: str, label: str = "") -> bool:
        return edge_key(source, target, label) in self.edge_keys()

    def edge_keys(self) -> set[tuple[str, str, str]]:
        """The edge keys; callers other than add_edge must not change the set."""
        if self._edge_keys is None:
            self._edge_keys = {edge_key(e.source, e.target, e.label) for e in self.edges}
        return self._edge_keys

    def out_edges(self, node_id: str) -> list[Edge]:
        return [e for e in self.edges if e.source == node_id]

    def in_edges(self, node_id: str) -> list[Edge]:
        return [e for e in self.edges if e.target == node_id]
