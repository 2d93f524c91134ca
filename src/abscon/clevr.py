"""Clevr program-graph execution: operation catalog, scenes, evaluator.

Programs are labeled graphs whose nodes are clevr_op kinds and whose edges
run from the producing operation to the consuming one, labeled with the
argument position ("0", or "0"/"1" for binary operations).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .graph import KIND_CLEVR_OP, LabeledGraph, NodeKind, normalize_label

COLORS = ("gray", "red", "blue", "green", "brown", "purple", "cyan", "yellow")
SHAPES = ("cube", "sphere", "cylinder")
SIZES = ("small", "large")
MATERIALS = ("rubber", "metal")
RELATIONS = ("left", "right", "front", "behind")

ATTRIBUTES = {"color": COLORS, "shape": SHAPES, "size": SIZES, "material": MATERIALS}

# Value type tags used by the catalog and the type-compatibility constraints.
T_OBJECT_SET = "ObjectSet"
T_SINGLE_OBJECT = "SingleObject"
T_COUNT = "Count"
T_TRUTH = "Truth"
T_ATTR = "Attr"


@dataclass(frozen=True)
class OpCatalogEntry:
    name: str
    arity: int
    parameterized: bool
    input_types: tuple[str, ...]
    output_type: str
    commutative: bool = False


def _build_catalog() -> dict[str, OpCatalogEntry]:
    entries = [OpCatalogEntry("scene", 0, False, (), T_OBJECT_SET)]
    for attr in ATTRIBUTES:
        entries.append(OpCatalogEntry(f"filter_{attr}", 1, True, (T_OBJECT_SET,), T_OBJECT_SET))
        entries.append(OpCatalogEntry(f"query_{attr}", 1, False, (T_SINGLE_OBJECT,), T_ATTR))
        entries.append(OpCatalogEntry(f"same_{attr}", 1, False, (T_SINGLE_OBJECT,), T_OBJECT_SET))
        entries.append(
            OpCatalogEntry(f"equal_{attr}", 2, False, (T_ATTR, T_ATTR), T_TRUTH, commutative=True)
        )
    entries += [
        OpCatalogEntry("unique", 1, False, (T_OBJECT_SET,), T_SINGLE_OBJECT),
        OpCatalogEntry("relate", 1, True, (T_SINGLE_OBJECT,), T_OBJECT_SET),
        OpCatalogEntry("count", 1, False, (T_OBJECT_SET,), T_COUNT),
        OpCatalogEntry("exist", 1, False, (T_OBJECT_SET,), T_TRUTH),
        OpCatalogEntry("intersect", 2, False, (T_OBJECT_SET, T_OBJECT_SET), T_OBJECT_SET, commutative=True),
        OpCatalogEntry("union", 2, False, (T_OBJECT_SET, T_OBJECT_SET), T_OBJECT_SET, commutative=True),
        OpCatalogEntry("equal_integer", 2, False, (T_COUNT, T_COUNT), T_TRUTH, commutative=True),
        OpCatalogEntry("less_than", 2, False, (T_COUNT, T_COUNT), T_TRUTH),
        OpCatalogEntry("greater_than", 2, False, (T_COUNT, T_COUNT), T_TRUTH),
    ]
    return {e.name: e for e in entries}


_CATALOG = _build_catalog()


def lookup(op_name: str) -> Optional[OpCatalogEntry]:
    return _CATALOG.get(op_name)


def clevr_op(op_name: str, param: str | None = None) -> NodeKind:
    """Validated constructor for clevr operation node kinds."""
    entry = _CATALOG.get(op_name)
    if entry is None:
        raise ValueError(f"unknown clevr operation {op_name!r}")
    if entry.parameterized and not param:
        raise ValueError(f"operation {op_name!r} requires a parameter")
    if not entry.parameterized and param is not None:
        raise ValueError(f"operation {op_name!r} takes no parameter")
    return NodeKind(KIND_CLEVR_OP, op=op_name, param=param)


# ---------------------------------------------------------------------------
# Scenes


@dataclass(frozen=True)
class SceneObject:
    id: int
    color: str
    shape: str
    size: str
    material: str

    def __post_init__(self):
        for attr, vocab in ATTRIBUTES.items():
            value = getattr(self, attr)
            if value not in vocab:
                raise ValueError(f"invalid {attr} value {value!r}")


class Scene:
    """World state: attributed objects plus explicit spatial relation lists.

    relations[name][i] lists the ids of objects standing in `name` relation
    to object i (e.g. relations["left"][i] = objects to the left of i).
    """

    def __init__(self, objects: list[SceneObject], relations: dict[str, list[list[int]]]):
        self.objects = list(objects)
        self.relations = {r: [sorted(ids) for ids in relations.get(r, [])] for r in RELATIONS}
        self._validate()

    def _validate(self) -> None:
        ids = [o.id for o in self.objects]
        if ids != list(range(len(ids))):
            raise ValueError("object ids must be 0..n-1 in order")
        for name in RELATIONS:
            lists = self.relations[name]
            if len(lists) != len(ids):
                raise ValueError(f"relation {name!r} must have one list per object")
            for i, related in enumerate(lists):
                if i in related:
                    raise ValueError(f"relation {name!r} must be irreflexive")
                if any(j not in range(len(ids)) for j in related):
                    raise ValueError(f"relation {name!r} references unknown object")
        for a, b in (("left", "right"), ("front", "behind")):
            for i in range(len(ids)):
                for j in self.relations[a][i]:
                    if i not in self.relations[b][j]:
                        raise ValueError(f"relations {a!r}/{b!r} are not mutually inverse")

    def attribute(self, obj_id: int, attr: str) -> str:
        return getattr(self.objects[obj_id], attr)

    @classmethod
    def from_json(cls, text: str) -> "Scene":
        """Read what to_json writes; a missing or malformed field raises ValueError."""
        data = json.loads(text)
        try:
            objects = [
                SceneObject(o["id"], o["color"], o["shape"], o["size"], o["material"])
                for o in data["objects"]
            ]
            return cls(objects, data.get("relations", {r: [[] for _ in objects] for r in RELATIONS}))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"scene: missing or malformed field {exc}") from None

    def to_json(self) -> str:
        data = {
            "objects": [
                {"id": o.id, "color": o.color, "shape": o.shape, "size": o.size, "material": o.material}
                for o in self.objects
            ],
            "relations": self.relations,
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Values and answers


@dataclass(frozen=True)
class ObjectSet:
    ids: tuple[int, ...]


@dataclass(frozen=True)
class SingleObject:
    id: int


@dataclass(frozen=True)
class Count:
    value: int


@dataclass(frozen=True)
class Truth:
    value: bool


@dataclass(frozen=True)
class Attr:
    value: str


@dataclass(frozen=True)
class ExecError:
    reason: str


Value = Union[ObjectSet, SingleObject, Count, Truth, Attr]
Answer = Union[Value, ExecError]


def answers_equal(a: Answer, b: Answer) -> bool:
    """Variant-and-value equality; all execution errors compare equal."""
    if isinstance(a, ExecError) or isinstance(b, ExecError):
        return isinstance(a, ExecError) and isinstance(b, ExecError)
    if type(a) is not type(b):
        return False
    if isinstance(a, ObjectSet):
        return set(a.ids) == set(b.ids)
    return a == b


def answer_to_json(a: Answer) -> dict:
    if isinstance(a, ExecError):
        return {"type": "error", "reason": a.reason}
    if isinstance(a, ObjectSet):
        return {"type": "object_set", "value": sorted(a.ids)}
    if isinstance(a, SingleObject):
        return {"type": "object", "value": a.id}
    if isinstance(a, Count):
        return {"type": "count", "value": a.value}
    if isinstance(a, Truth):
        return {"type": "truth", "value": a.value}
    return {"type": "attr", "value": a.value}


def answer_from_json(data: dict) -> Answer:
    kind = data["type"]
    if kind == "error":
        return ExecError(data.get("reason", "error"))
    if kind == "object_set":
        return ObjectSet(tuple(data["value"]))
    if kind == "object":
        return SingleObject(data["value"])
    if kind == "count":
        return Count(data["value"])
    if kind == "truth":
        return Truth(data["value"])
    if kind == "attr":
        return Attr(data["value"])
    raise ValueError(f"unknown answer type {kind!r}")


# ---------------------------------------------------------------------------
# Execution


def _value_type(v: Value) -> str:
    return {
        ObjectSet: T_OBJECT_SET,
        SingleObject: T_SINGLE_OBJECT,
        Count: T_COUNT,
        Truth: T_TRUTH,
        Attr: T_ATTR,
    }[type(v)]


def _topo_order(program: LabeledGraph) -> Optional[list[str]]:
    indeg = {n: 0 for n in program.nodes}
    for e in program.edges:
        indeg[e.target] += 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order: list[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for e in sorted(program.out_edges(n), key=lambda e: e.target):
            indeg[e.target] -= 1
            if indeg[e.target] == 0:
                ready.append(e.target)
        ready.sort()
    return order if len(order) == len(program.nodes) else None


def _gather_args(program: LabeledGraph, node_id: str, entry: OpCatalogEntry,
                 values: dict[str, Value]) -> Union[list[Value], ExecError]:
    incoming = program.in_edges(node_id)
    if len(incoming) != entry.arity:
        return ExecError("arity")
    if entry.arity == 0:
        return []
    if entry.arity == 1:
        return [values[incoming[0].source]]
    by_pos = {normalize_label(e.label): e.source for e in incoming}
    if set(by_pos.keys()) == {"0", "1"}:
        return [values[by_pos["0"]], values[by_pos["1"]]]
    if entry.commutative:
        # Order is irrelevant; tolerate malformed or missing position labels.
        return [values[e.source] for e in sorted(incoming, key=lambda e: e.source)]
    return ExecError("arg_order")


def _apply(entry: OpCatalogEntry, param: Optional[str], args: list[Value],
           scene: Scene) -> Union[Value, ExecError]:
    name = entry.name
    if name == "scene":
        return ObjectSet(tuple(o.id for o in scene.objects))
    if name.startswith("filter_"):
        attr = name.removeprefix("filter_")
        return ObjectSet(tuple(i for i in args[0].ids if scene.attribute(i, attr) == param))
    if name == "unique":
        if len(args[0].ids) != 1:
            return ExecError("non_unique")
        return SingleObject(args[0].ids[0])
    if name == "relate":
        if param not in RELATIONS:
            return ExecError("unknown_relation")
        return ObjectSet(tuple(scene.relations[param][args[0].id]))
    if name == "count":
        return Count(len(args[0].ids))
    if name == "exist":
        return Truth(len(args[0].ids) > 0)
    if name.startswith("query_"):
        return Attr(scene.attribute(args[0].id, name.removeprefix("query_")))
    if name.startswith("same_"):
        attr = name.removeprefix("same_")
        want = scene.attribute(args[0].id, attr)
        return ObjectSet(tuple(
            o.id for o in scene.objects if o.id != args[0].id and getattr(o, attr) == want
        ))
    if name == "intersect":
        return ObjectSet(tuple(sorted(set(args[0].ids) & set(args[1].ids))))
    if name == "union":
        return ObjectSet(tuple(sorted(set(args[0].ids) | set(args[1].ids))))
    if name == "equal_integer":
        return Truth(args[0].value == args[1].value)
    if name == "less_than":
        return Truth(args[0].value < args[1].value)
    if name == "greater_than":
        return Truth(args[0].value > args[1].value)
    if name.startswith("equal_"):
        return Truth(args[0].value == args[1].value)
    return ExecError("unknown_operation")


def execute(program: LabeledGraph, scene: Scene) -> Answer:
    """Topologically evaluate a program graph; every failure is an ExecError."""
    if not program.nodes:
        return ExecError("empty_program")
    for node in program.nodes.values():
        if not node.kind.is_clevr or node.kind.op not in _CATALOG:
            return ExecError("not_a_program")
    order = _topo_order(program)
    if order is None:
        return ExecError("cycle")
    sinks = [n for n in program.nodes if not program.out_edges(n)]
    if len(sinks) != 1:
        return ExecError("multiple_sinks" if sinks else "no_sink")

    values: dict[str, Value] = {}
    for node_id in order:
        kind = program.nodes[node_id].kind
        entry = _CATALOG[kind.op]
        args = _gather_args(program, node_id, entry, values)
        if isinstance(args, ExecError):
            return args
        for value, expected in zip(args, entry.input_types):
            if _value_type(value) != expected:
                return ExecError("arg_type")
        result = _apply(entry, kind.param, args, scene)
        if isinstance(result, ExecError):
            return result
        values[node_id] = result
    return values[sinks[0]]
