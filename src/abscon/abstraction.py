"""Incrementally merge matched candidate graphs into a probabilistic partial
model: per-element occurrence counts plus label histograms."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .domains import DomainProfile
from .errors import AbsconError, UnknownNode
from .graph import Edge, LabeledGraph, NodeKind, edge_key
from .matching import match


@dataclass(slots=True)
class PartialElement:
    count: int
    labels: Counter = field(default_factory=Counter)
    kind: NodeKind | None = None  # nodes only

    def add(self, label: str) -> None:
        self.count += 1
        self.labels[label] += 1

    @property
    def representative_label(self) -> str:
        # Most frequent label; ties resolved lexicographically.
        return min(self.labels.items(), key=lambda kv: (-kv[1], kv[0]))[0]


EdgeKey = tuple[str, str, str]  # graph.edge_key over element ids, shared by all the edge's labels


@dataclass
class PartialModel:
    nodes: dict[str, PartialElement] = field(default_factory=dict)
    edges: dict[EdgeKey, PartialElement] = field(default_factory=dict)
    n_candidates: int = 0
    _next_id: int = 0

    def new_node(self, label: str, kind: NodeKind) -> str:
        elem_id = f"p{self._next_id}"
        self._next_id += 1
        self.nodes[elem_id] = PartialElement(1, Counter({label: 1}), kind)
        return elem_id

    def view(self) -> LabeledGraph:
        """Representative-label graph over the partial elements. Every label
        of an edge element has the element's key, so the edges are unique by
        construction and the graph keeps no edge-key set."""
        g = LabeledGraph()
        for elem_id, elem in self.nodes.items():
            g.add_node(elem.representative_label, elem.kind, node_id=elem_id)
        g.edges = [Edge(src, tgt, elem.representative_label)
                   for (src, tgt, _), elem in self.edges.items()]
        return g

    def size(self) -> int:
        return len(self.nodes) + len(self.edges)

    def to_json(self) -> str:
        def kind_json(kind: NodeKind) -> dict:
            data = {"kind": kind.kind}
            if kind.op is not None:
                data["op"] = kind.op
            if kind.param is not None:
                data["param"] = kind.param
            return data

        data = {
            "n_candidates": self.n_candidates,
            "nodes": [
                {"id": elem_id, "kind": kind_json(elem.kind), "count": elem.count,
                 "labels": dict(sorted(elem.labels.items()))}
                for elem_id, elem in self.nodes.items()
            ],
            "edges": [
                {"source": key[0], "target": key[1], "count": elem.count,
                 "labels": dict(sorted(elem.labels.items()))}
                for key, elem in self.edges.items()
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PartialModel":
        """Read what to_json writes. Edge rows that share an edge key are
        summed, which is exact: a candidate contributes to at most one of
        them. A dangling edge endpoint raises UnknownNode; a missing field,
        a duplicate node id, an edge row whose labels are not all one edge
        key's, or an element whose label histogram is empty, or whose count
        is not the histogram's total or lies outside 1..n_candidates, raises
        AbsconError."""
        data = json.loads(text)
        try:
            model = cls(n_candidates=data["n_candidates"])
            for row in data["nodes"]:
                if not isinstance(row["id"], str) or row["id"] in model.nodes:
                    raise AbsconError(f"partial model: bad or duplicate node id {row['id']!r}")
                kind = row["kind"]
                model.nodes[row["id"]] = PartialElement(
                    row["count"], Counter(row["labels"]),
                    NodeKind(kind["kind"], kind.get("op"), kind.get("param")))
            for row in data["edges"]:
                for end in (row["source"], row["target"]):
                    if end not in model.nodes:
                        raise UnknownNode(f"partial model: edge endpoint {end!r} is not a node")
                key = edge_key(row["source"], row["target"], next(iter(row["labels"]), ""))
                if any(edge_key(row["source"], row["target"], l) != key for l in row["labels"]):
                    raise AbsconError(f"partial model: edge {key[0]!r} -> {key[1]!r} has labels of"
                                      f" different edges: {sorted(row['labels'])}")
                elem = model.edges.setdefault(key, PartialElement(0))
                elem.count += row["count"]
                elem.labels.update(row["labels"])
            for name, elem in [*model.nodes.items(), *model.edges.items()]:
                total = sum(elem.labels.values())
                if not elem.labels or elem.count != total or not 1 <= total <= model.n_candidates:
                    raise AbsconError(f"partial model: element {name!r} has count {elem.count} and"
                                      f" {total} labels in {model.n_candidates} candidates")
        except (KeyError, TypeError) as exc:
            raise AbsconError(f"partial model: missing or malformed field {exc}") from None
        ids = [int(i[1:]) for i in model.nodes if i.startswith("p") and i[1:].isdigit()]
        model._next_id = max(ids, default=-1) + 1
        return model


def abstract(candidates: list[LabeledGraph], profile: DomainProfile) -> PartialModel:
    """Fold candidates into a partial model, seeding with the first and
    matching the rest against the representative-label view."""
    if not candidates:
        raise ValueError("at least one candidate is required")
    model = PartialModel(n_candidates=len(candidates))

    first = candidates[0]
    seed_map: dict[str, str] = {}
    for node_id in sorted(first.nodes):
        node = first.nodes[node_id]
        seed_map[node_id] = model.new_node(node.label, node.kind)
    for edge in first.edges:
        key = edge_key(seed_map[edge.source], seed_map[edge.target], edge.label)
        model.edges[key] = PartialElement(1, Counter({edge.label: 1}))

    for candidate in candidates[1:]:
        result = match(candidate, model.view(), profile)
        node_map = dict(result.node_map)
        for node_id in sorted(candidate.nodes):
            node = candidate.nodes[node_id]
            if node_id in node_map:
                model.nodes[node_map[node_id]].add(node.label)
            else:
                node_map[node_id] = model.new_node(node.label, node.kind)
        for edge in candidate.edges:
            key = edge_key(node_map[edge.source], node_map[edge.target], edge.label)
            if key in model.edges:
                model.edges[key].add(edge.label)
            else:
                model.edges[key] = PartialElement(1, Counter({edge.label: 1}))
    return model


def mlc(partial: PartialModel) -> LabeledGraph:
    """Maximum likelihood concretization: strict-majority elements only,
    ignoring all constraints; dangling edges are dropped."""
    g = LabeledGraph()
    for elem_id, elem in partial.nodes.items():
        if elem.count * 2 > partial.n_candidates:
            g.add_node(elem.representative_label, elem.kind, node_id=elem_id)
    for (src, tgt, _), elem in partial.edges.items():
        if elem.count * 2 > partial.n_candidates and src in g.nodes and tgt in g.nodes:
            g.add_edge(src, tgt, elem.representative_label)
    return g
