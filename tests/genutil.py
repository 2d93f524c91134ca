"""Seeded random generators and small builders shared across tests."""
from __future__ import annotations

import random

from abscon.clevr import _CATALOG, ATTRIBUTES, RELATIONS, Scene, SceneObject, clevr_op
from abscon.errors import TooLarge
from abscon.graph import ACTIVITY, CONCEPT, DECISION, LabeledGraph, NodeKind, normalize_label
from abscon.matching import MatchResult, _exhaustive, _Instance
from abscon.notation import display_label, render_clevr_op

WORDS = [
    "check", "stock", "order", "ship", "refund", "confirm", "review", "pack",
    "invoice", "notify", "close", "record", "approve", "reject", "update",
    "archive", "audit", "assign", "route", "verify",
]

CONDITIONS = ["yes", "no", "ok", "fail", "retry", "done"]


def build_graph(nodes, edges) -> LabeledGraph:
    """nodes: list of (id, label, kind); edges: list of (src, tgt, label)."""
    g = LabeledGraph()
    for node_id, label, kind in nodes:
        g.add_node(label, kind, node_id=node_id)
    for src, tgt, label in edges:
        g.add_edge(src, tgt, label)
    return g


def graph_signature(g: LabeledGraph):
    """Isomorphism proxy: node (label, kind) multiset + label-level triples."""
    nodes = sorted(
        (display_label(n), n.kind.kind, n.kind.op or "", n.kind.param or "")
        for n in g.nodes.values()
    )
    triples = sorted(
        (display_label(g.nodes[e.source]), display_label(g.nodes[e.target]), normalize_label(e.label))
        for e in g.edges
    )
    return nodes, triples


# ---------------------------------------------------------------------------
# Random graphs for round-trip tests (representable, not necessarily valid)


def random_mermaid_graph(rng: random.Random, max_nodes: int = 10) -> LabeledGraph:
    g = LabeledGraph()
    n = rng.randint(1, max_nodes)
    ids = []
    for i in range(n):
        kind = DECISION if rng.random() < 0.3 else ACTIVITY
        label = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
        ids.append(g.add_node(label, kind))
    for _ in range(rng.randint(0, 2 * n)):
        src, tgt = rng.choice(ids), rng.choice(ids)
        label = rng.choice(CONDITIONS) if rng.random() < 0.5 else ""
        if not g.has_edge(src, tgt, label):
            g.add_edge(src, tgt, label)
    return g


def random_taxonomy_graph(rng: random.Random, max_nodes: int = 10) -> LabeledGraph:
    g = LabeledGraph()
    n = rng.randint(1, max_nodes)
    labels = rng.sample([f"{a} {b}" for a in WORDS for b in WORDS[:5]], n)
    ids = [g.add_node(label, CONCEPT) for label in labels]
    for _ in range(rng.randint(0, n)):
        src, tgt = rng.choice(ids), rng.choice(ids)
        if not g.has_edge(src, tgt, ""):
            g.add_edge(src, tgt, "")
    return g


def _random_op_kind(rng: random.Random, name: str) -> NodeKind:
    entry = _CATALOG[name]
    if not entry.parameterized:
        return clevr_op(name)
    if name == "relate":
        return clevr_op(name, rng.choice(RELATIONS))
    attr = name.split("_", 1)[1]
    return clevr_op(name, rng.choice(ATTRIBUTES[attr]))


def random_clevr_graph(rng: random.Random, max_nodes: int = 8) -> LabeledGraph:
    """Arity-respecting DAG wiring; types may be wrong (round-trip only)."""
    g = LabeledGraph()
    names = sorted(_CATALOG)
    ids = [g.add_node("", clevr_op("scene"))]
    for _ in range(rng.randint(0, max_nodes - 1)):
        name = rng.choice(names)
        entry = _CATALOG[name]
        if entry.arity > len(ids):
            continue
        kind = _random_op_kind(rng, name)
        node_id = g.add_node(render_clevr_op(kind), kind)
        sources = rng.sample(ids, entry.arity)
        for pos, src in enumerate(sources):
            g.add_edge(src, node_id, str(pos))
        ids.append(node_id)
    return g


# ---------------------------------------------------------------------------
# Consistent reference models


def random_flowchart(rng: random.Random, n_nodes: int = 6) -> LabeledGraph:
    """Constraint-consistent flowchart: single source, all reachable,
    decisions with >= 2 labeled arms, no self-loops."""
    g = LabeledGraph()
    labels = rng.sample([f"{a} {b}" for a in WORDS for b in WORDS[:6]], n_nodes)
    ids = [g.add_node(labels[0], ACTIVITY)]
    for label in labels[1:]:
        kind = DECISION if rng.random() < 0.35 else ACTIVITY
        node_id = g.add_node(label, kind)
        parent = rng.choice(ids)
        cond = rng.choice(CONDITIONS) if g.nodes[parent].kind == DECISION else (
            rng.choice(CONDITIONS) if rng.random() < 0.3 else ""
        )
        while g.has_edge(parent, node_id, cond):
            cond += "x"
        g.add_edge(parent, node_id, cond)
        ids.append(node_id)
    # Give every decision at least two outgoing labeled arms.
    for node_id in list(ids):
        if g.nodes[node_id].kind != DECISION:
            continue
        while len(g.out_edges(node_id)) < 2:
            target = rng.choice([i for i in ids if i != node_id])
            cond = rng.choice(CONDITIONS)
            while g.has_edge(node_id, target, cond):
                cond += "x"
            g.add_edge(node_id, target, cond)
        for e in g.out_edges(node_id):
            assert normalize_label(e.label) != ""
    return g


def random_taxonomy_tree(rng: random.Random, n_nodes: int = 6) -> LabeledGraph:
    g = LabeledGraph()
    labels = rng.sample([f"{a} {b}" for a in WORDS for b in WORDS[:6]], n_nodes)
    ids = [g.add_node(labels[0], CONCEPT)]
    for label in labels[1:]:
        node_id = g.add_node(label, CONCEPT)
        g.add_edge(rng.choice(ids), node_id, "")
        ids.append(node_id)
    return g


def random_clevr_program(rng: random.Random) -> LabeledGraph:
    """Type-correct single-sink program built from a shape template."""
    g = LabeledGraph()
    scene = g.add_node("", clevr_op("scene"))

    def chain_filters(source, depth):
        for _ in range(depth):
            kind = _random_op_kind(rng, rng.choice(["filter_color", "filter_shape",
                                                    "filter_size", "filter_material"]))
            node = g.add_node(render_clevr_op(kind), kind)
            g.add_edge(source, node, "0")
            source = node
        return source

    shape = rng.choice(["count", "exist", "query", "compare_counts", "set_op"])
    if shape in ("count", "exist"):
        tail = chain_filters(scene, rng.randint(0, 2))
        kind = clevr_op("count" if shape == "count" else "exist")
        sink = g.add_node(render_clevr_op(kind), kind)
        g.add_edge(tail, sink, "0")
    elif shape == "query":
        tail = chain_filters(scene, rng.randint(1, 2))
        unique = g.add_node("unique", clevr_op("unique"))
        g.add_edge(tail, unique, "0")
        kind = _random_op_kind(rng, rng.choice(["query_color", "query_shape",
                                                "query_size", "query_material"]))
        sink = g.add_node(render_clevr_op(kind), kind)
        g.add_edge(unique, sink, "0")
    elif shape == "compare_counts":
        a = chain_filters(scene, 1)
        b = chain_filters(scene, 1)
        ca = g.add_node("count", clevr_op("count"))
        cb = g.add_node("count", clevr_op("count"))
        g.add_edge(a, ca, "0")
        g.add_edge(b, cb, "0")
        kind = clevr_op(rng.choice(["equal_integer", "less_than", "greater_than"]))
        sink = g.add_node(render_clevr_op(kind), kind)
        g.add_edge(ca, sink, "0")
        g.add_edge(cb, sink, "1")
    else:
        a = chain_filters(scene, 1)
        b = chain_filters(scene, 1)
        kind = clevr_op(rng.choice(["intersect", "union"]))
        merge = g.add_node(render_clevr_op(kind), kind)
        g.add_edge(a, merge, "0")
        g.add_edge(b, merge, "1")
        sink = g.add_node("count", clevr_op("count"))
        g.add_edge(merge, sink, "0")
    return g


def random_scene(rng: random.Random, n_objects: int = 5) -> Scene:
    """Objects on a line: left/right from x order, front/behind from y order."""
    objects = []
    xs = rng.sample(range(100), n_objects)
    ys = rng.sample(range(100), n_objects)
    for i in range(n_objects):
        objects.append(SceneObject(
            i,
            rng.choice(ATTRIBUTES["color"]),
            rng.choice(ATTRIBUTES["shape"]),
            rng.choice(ATTRIBUTES["size"]),
            rng.choice(ATTRIBUTES["material"]),
        ))
    relations = {
        "left": [[j for j in range(n_objects) if xs[j] < xs[i]] for i in range(n_objects)],
        "right": [[j for j in range(n_objects) if xs[j] > xs[i]] for i in range(n_objects)],
        "front": [[j for j in range(n_objects) if ys[j] < ys[i]] for i in range(n_objects)],
        "behind": [[j for j in range(n_objects) if ys[j] > ys[i]] for i in range(n_objects)],
    }
    return Scene(objects, relations)


# ---------------------------------------------------------------------------
# Candidate pools (ground truth plus noise)


def clone(g: LabeledGraph) -> LabeledGraph:
    out = LabeledGraph()
    for node in g.nodes.values():
        out.add_node(node.label, node.kind, node_id=node.id)
    for e in g.edges:
        out.add_edge(e.source, e.target, e.label)
    return out


def noisy_candidate(rng: random.Random, truth: LabeledGraph, domain: str) -> LabeledGraph:
    """A partially-correct copy: dropped edges, casing noise, hallucinations."""
    nodes = [(n.id, n.label, n.kind) for n in truth.nodes.values()]
    edges = [(e.source, e.target, e.label) for e in truth.edges]
    if edges and rng.random() < 0.4:
        edges.pop(rng.randrange(len(edges)))
    if rng.random() < 0.4:
        i = rng.randrange(len(nodes))
        node_id, label, kind = nodes[i]
        if not kind.is_clevr:
            nodes[i] = (node_id, label.upper(), kind)
    g = build_graph(nodes, edges)
    if rng.random() < 0.5:
        if domain == "flowchart":
            extra = g.add_node("phantom step", ACTIVITY)
            targets = [i for i in sorted(g.nodes) if i != extra]
            g.add_edge(extra, rng.choice(targets), "")
        elif domain == "taxonomy":
            extra = g.add_node("phantom concept", CONCEPT)
            g.add_edge(extra, rng.choice([i for i in sorted(g.nodes) if i != extra]), "")
        else:
            kind = clevr_op("count")
            extra = g.add_node("count", kind)
            sources = [i for i in sorted(g.nodes) if i != extra]
            g.add_edge(rng.choice(sources), extra, "0")
    return g


def candidate_pool(rng: random.Random, truth: LabeledGraph, domain: str, size: int = 3):
    pool = [clone(truth)]
    for _ in range(size - 1):
        pool.append(noisy_candidate(rng, truth, domain))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# Synthetic partial models for solver/oracle tests


def random_partial_model(rng: random.Random, domain: str, max_vars: int = 14):
    """A partial model with random structure and counts; not derived from
    candidate pools, so infeasible and degenerate shapes occur too."""
    from collections import Counter

    from abscon.abstraction import PartialElement, PartialModel

    n_candidates = rng.randint(2, 6)
    model = PartialModel(n_candidates=n_candidates)
    n_nodes = rng.randint(2, max(2, min(7, max_vars - 2)))

    node_ids = []
    for _ in range(n_nodes):
        if domain == "flowchart":
            kind = DECISION if rng.random() < 0.3 else ACTIVITY
            label = " ".join(rng.sample(WORDS, 2))
        elif domain == "taxonomy":
            kind = CONCEPT
            label = " ".join(rng.sample(WORDS, 2))
        else:
            name = rng.choice(["scene", "filter_color", "unique", "count", "exist",
                               "query_color", "intersect", "equal_integer"])
            kind = _random_op_kind(rng, name)
            label = render_clevr_op(kind)
        elem_id = model.new_node(label, kind)
        model.nodes[elem_id].count = rng.randint(1, n_candidates)
        model.nodes[elem_id].labels = Counter({label: model.nodes[elem_id].count})
        node_ids.append(elem_id)

    budget = max_vars - n_nodes
    attempts = 0
    while budget > 0 and attempts < 4 * max_vars:
        attempts += 1
        src, tgt = rng.choice(node_ids), rng.choice(node_ids)
        if domain == "flowchart":
            label = rng.choice(["", "yes", "no"])
        elif domain == "taxonomy":
            label = ""
        else:
            label = rng.choice(["0", "1"])
        key = (src, tgt, normalize_label(label))
        if key in model.edges:
            continue
        count = rng.randint(1, n_candidates)
        model.edges[key] = PartialElement(count, Counter({label: count}))
        budget -= 1
    return model


def dense_partial_model(rng: random.Random, domain: str, n: int):
    """A flowchart or taxonomy partial model with about three edges per node
    around a planted consistent model, every count uniform in 1..5 of 5
    candidates. Many selections score alike, which is where the solver's
    bound is weakest. Needs n >= 5, so that 3n distinct edges exist."""
    if n < 5:
        raise ValueError(f"dense_partial_model needs n >= 5, got {n}")
    from collections import Counter

    from abscon.abstraction import PartialElement, PartialModel

    truth = random_flowchart(rng, n) if domain == "flowchart" else random_taxonomy_tree(rng, n)
    model = PartialModel(n_candidates=5)
    elem_of = {node.id: model.new_node(node.label, node.kind) for node in truth.nodes.values()}
    edges = {(e.source, e.target, normalize_label(e.label)): e.label for e in truth.edges}
    node_ids = sorted(truth.nodes)
    while len(edges) < 3 * n:
        src, tgt = rng.sample(node_ids, 2)
        label = rng.choice(["", "yes", "no"]) if domain == "flowchart" else ""
        edges.setdefault((src, tgt, label), label)
    for elem in model.nodes.values():
        elem.count = rng.randint(1, 5)
        elem.labels = Counter({next(iter(elem.labels)): elem.count})
    for (src, tgt, norm), label in sorted(edges.items()):
        count = rng.randint(1, 5)
        model.edges[(elem_of[src], elem_of[tgt], norm)] = PartialElement(count, Counter({label: count}))
    return model


# ---------------------------------------------------------------------------
# Oracles


ORACLE_LIMIT = 8


def exhaustive_match(candidate: LabeledGraph, base: LabeledGraph, profile) -> MatchResult:
    """Provably minimal edit cost by enumeration of all partial injections:
    the exact search match() runs at or below EXHAUSTIVE_LIMIT, for graphs
    up to ORACLE_LIMIT nodes per side."""
    if len(candidate.nodes) > ORACLE_LIMIT or len(base.nodes) > ORACLE_LIMIT:
        raise TooLarge(f"exhaustive matching is limited to {ORACLE_LIMIT} nodes per side")
    node_map, total = _exhaustive(_Instance(candidate, base, profile))
    return MatchResult(node_map, total, optimal=True)


def cosine(a, b) -> float:
    """Cosine of two vectors; 0 against a zero vector."""
    import numpy as np  # a test that only solves must not load it

    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
