"""Incrementally merge matched candidate graphs into a probabilistic partial
model: a label histogram per element, whose total is its occurrence count."""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass, field

from .domains import DomainProfile
from .errors import AbsconError, UnknownNode
from .graph import LabeledGraph, NodeKind, edge_key
from .matching import match
from .similarity import SimilarityCache


@dataclass(slots=True)
class PartialElement:
    labels: Counter = field(default_factory=Counter)
    kind: NodeKind | None = None  # nodes only

    @property
    def count(self) -> int:
        """The number of candidates that contain the element: each adds one label."""
        return self.labels.total()

    def add(self, label: str) -> None:
        self.labels[label] += 1

    @property
    def label(self) -> str:
        # Most frequent label; ties resolved lexicographically.
        return min(self.labels.items(), key=lambda kv: (-kv[1], kv[0]))[0]


EdgeKey = tuple[str, str, str]  # graph.edge_key over element ids, shared by all the edge's labels


@dataclass
class PartialModel:
    nodes: dict[str, PartialElement] = field(default_factory=dict)
    edges: dict[EdgeKey, PartialElement] = field(default_factory=dict)
    n_candidates: int = 0

    def new_node(self, label: str, kind: NodeKind) -> str:
        """Add a node seen once, as the first free p<k> from k = the node count,
        so ids run in sequence under abstract() and never repeat a loaded one."""
        k = len(self.nodes)
        while f"p{k}" in self.nodes:
            k += 1
        self.nodes[f"p{k}"] = PartialElement(Counter({label: 1}), kind)
        return f"p{k}"

    def edge_keys(self) -> KeysView[EdgeKey]:
        """The edge keys, read-only: what match() reads of a base's edges."""
        return self.edges.keys()

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
        an n_candidates, count or label count that is not a positive int (a
        bool is not one), a row whose count is not its label total, a
        duplicate node id, an edge row whose labels are not all one edge
        key's, or an element whose count exceeds n_candidates raises
        AbsconError."""
        data = json.loads(text)
        try:
            model = cls(n_candidates=data["n_candidates"])
            counts = [model.n_candidates]
            for row in [*data["nodes"], *data["edges"]]:
                counts += [row["count"], *row["labels"].values()]
                if row["count"] != sum(row["labels"].values()):
                    raise AbsconError(f"partial model: a row's count {row['count']!r} is not"
                                      f" the total of its labels {row['labels']}")
            for k in counts:
                if type(k) is not int or k < 1:  # rejects bools, a subclass of int
                    raise AbsconError(f"partial model: count {k!r} is not a positive integer")
            for row in data["nodes"]:
                if not isinstance(row["id"], str) or row["id"] in model.nodes:
                    raise AbsconError(f"partial model: bad or duplicate node id {row['id']!r}")
                kind = row["kind"]
                model.nodes[row["id"]] = PartialElement(
                    Counter(row["labels"]), NodeKind(kind["kind"], kind.get("op"), kind.get("param")))
            for row in data["edges"]:
                for end in (row["source"], row["target"]):
                    if end not in model.nodes:
                        raise UnknownNode(f"partial model: edge endpoint {end!r} is not a node")
                key = edge_key(row["source"], row["target"], next(iter(row["labels"]), ""))
                if any(edge_key(row["source"], row["target"], l) != key for l in row["labels"]):
                    raise AbsconError(f"partial model: edge {key[0]!r} -> {key[1]!r} has labels of"
                                      f" different edges: {sorted(row['labels'])}")
                model.edges.setdefault(key, PartialElement()).labels.update(row["labels"])
            for name, elem in [*model.nodes.items(), *model.edges.items()]:
                if elem.count > model.n_candidates:
                    raise AbsconError(f"partial model: element {name!r} has count {elem.count}"
                                      f" in {model.n_candidates} candidates")
        except (AttributeError, KeyError, TypeError) as exc:
            raise AbsconError(f"partial model: missing or malformed field {exc}") from None
        return model


def abstract(candidates: list[LabeledGraph], profile: DomainProfile) -> PartialModel:
    """Fold candidates into a partial model: the first seeds it, and each
    later one is matched against the model itself, whose elements read as
    nodes labeled by their most frequent label. The folds share one
    similarity cache, dropped when the call returns."""
    if not candidates:
        raise ValueError("at least one candidate is required")
    model = PartialModel(n_candidates=len(candidates))
    cache = SimilarityCache()
    for i, candidate in enumerate(candidates):
        node_map = dict(match(candidate, model, profile, cache).node_map) if i else {}
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
                model.edges[key] = PartialElement(Counter({edge.label: 1}))
    return model
