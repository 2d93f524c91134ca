"""Seeded input generator for the benchmark (standard library only).

Graphs are plain tuples so that generation needs no import of the program
under test: a node is ``(id, label, kind, op, param)`` with kind one of
``activity``, ``decision``, ``concept`` or ``op``; an edge is
``(source, target, label)``. Candidates are rendered to the textual
notations the program parses, so every merge starts from text.

Noise follows the shape of ``tests/genutil.py`` (a dropped edge, a casing
change, a phantom node) but is written here so that the tests' helpers stay
untouched, and so that clevr noise only ever drops the last argument of an
operation: the argument positions of every candidate stay contiguous and
every candidate is parseable text.
"""
from __future__ import annotations

import json
import random

WORDS = [
    "check", "stock", "order", "ship", "refund", "confirm", "review", "pack",
    "invoice", "notify", "close", "record", "approve", "reject", "update",
    "archive", "audit", "assign", "route", "verify",
]
CONDITIONS = ["yes", "no", "ok", "fail", "retry", "done"]

COLORS = ("gray", "red", "blue", "green", "brown", "purple", "cyan", "yellow")
SHAPES = ("cube", "sphere", "cylinder")
SIZES = ("small", "large")
MATERIALS = ("rubber", "metal")
ATTRIBUTES = {"color": COLORS, "shape": SHAPES, "size": SIZES, "material": MATERIALS}

EXTENSION = {"flowchart": ".mmd", "taxonomy": ".tax", "clevr": ".clv"}


def _labels(rng: random.Random, n: int) -> list[str]:
    # Same label space as the tests: the second word comes from a short list,
    # so many labels share a word and embedding similarity has work to do.
    return rng.sample([f"{a} {b}" for a in WORDS for b in WORDS[:6]], n)


def _node(node_id, label, kind, op=None, param=None):
    return (node_id, label, kind, op, param)


# ---------------------------------------------------------------------------
# Ground-truth models (each passes the domain checker)


def flowchart(rng: random.Random, n: int):
    labels = _labels(rng, n)
    nodes = [_node("n0", labels[0], "activity")]
    edges: list[tuple[str, str, str]] = []
    keys = set()

    def add(s, t, label):
        while (s, t, label) in keys:
            label += "x"
        keys.add((s, t, label))
        edges.append((s, t, label))

    for i, label in enumerate(labels[1:], start=1):
        kind = "decision" if rng.random() < 0.35 else "activity"
        nodes.append(_node(f"n{i}", label, kind))
        parent = rng.randrange(i)
        if nodes[parent][2] == "decision" or rng.random() < 0.3:
            add(f"n{parent}", f"n{i}", rng.choice(CONDITIONS))
        else:
            add(f"n{parent}", f"n{i}", "")
    for node_id, _, kind, _, _ in nodes:
        if kind != "decision":
            continue
        while sum(1 for e in edges if e[0] == node_id) < 2:
            target = rng.choice([m[0] for m in nodes if m[0] != node_id])
            add(node_id, target, rng.choice(CONDITIONS))
    return nodes, edges


def taxonomy(rng: random.Random, n: int):
    labels = _labels(rng, n)
    nodes = [_node(f"n{i}", label, "concept") for i, label in enumerate(labels)]
    edges = [(f"n{rng.randrange(i)}", f"n{i}", "") for i in range(1, n)]
    return nodes, edges


def clevr_program(rng: random.Random):
    """Type-correct single-sink program from one of five shape templates."""
    nodes = [_node("n0", "", "op", "scene")]
    edges: list[tuple[str, str, str]] = []

    def op(name, param=None, args=()):
        node_id = f"n{len(nodes)}"
        nodes.append(_node(node_id, "", "op", name, param))
        for pos, arg in enumerate(args):
            edges.append((arg, node_id, str(pos)))
        return node_id

    def filters(source, depth):
        for _ in range(depth):
            attr = rng.choice(sorted(ATTRIBUTES))
            source = op(f"filter_{attr}", rng.choice(ATTRIBUTES[attr]), [source])
        return source

    shape = rng.choice(["count", "exist", "query", "compare_counts", "set_op"])
    if shape in ("count", "exist"):
        op(shape, args=[filters("n0", rng.randint(0, 2))])
    elif shape == "query":
        unique = op("unique", args=[filters("n0", rng.randint(1, 2))])
        op(f"query_{rng.choice(sorted(ATTRIBUTES))}", args=[unique])
    elif shape == "compare_counts":
        a = op("count", args=[filters("n0", 1)])
        b = op("count", args=[filters("n0", 1)])
        op(rng.choice(["equal_integer", "less_than", "greater_than"]), args=[a, b])
    else:
        merged = op(rng.choice(["intersect", "union"]),
                    args=[filters("n0", 1), filters("n0", 1)])
        op("count", args=[merged])
    return nodes, edges


def scene(rng: random.Random, n_objects: int = 5) -> dict:
    """Objects on a plane: left/right from x order, front/behind from y order."""
    xs = rng.sample(range(100), n_objects)
    ys = rng.sample(range(100), n_objects)
    objects = [
        {"id": i, "color": rng.choice(COLORS), "shape": rng.choice(SHAPES),
         "size": rng.choice(SIZES), "material": rng.choice(MATERIALS)}
        for i in range(n_objects)
    ]
    ids = range(n_objects)
    relations = {
        "left": [[j for j in ids if xs[j] < xs[i]] for i in ids],
        "right": [[j for j in ids if xs[j] > xs[i]] for i in ids],
        "front": [[j for j in ids if ys[j] < ys[i]] for i in ids],
        "behind": [[j for j in ids if ys[j] > ys[i]] for i in ids],
    }
    return {"objects": objects, "relations": relations}


def truth(rng: random.Random, domain: str, n: int):
    if domain == "flowchart":
        return flowchart(rng, n)
    if domain == "taxonomy":
        return taxonomy(rng, n)
    return clevr_program(rng)


# ---------------------------------------------------------------------------
# Noise and pools


def noisy(rng: random.Random, graph, domain: str):
    """A partially-correct copy: maybe one dropped edge, one upper-cased
    label and one phantom node."""
    nodes, edges = list(graph[0]), list(graph[1])
    if edges and rng.random() < 0.4:
        if domain == "clevr":
            # Only the last argument of an operation may go, so positions
            # stay contiguous (0..k-1) and the program stays printable.
            last = {}
            for i, (_, t, pos) in enumerate(edges):
                if t not in last or int(pos) > int(edges[last[t]][2]):
                    last[t] = i
            edges.pop(last[rng.choice(sorted(last))])
        else:
            edges.pop(rng.randrange(len(edges)))
    if rng.random() < 0.4 and domain != "clevr":
        i = rng.randrange(len(nodes))
        nodes[i] = nodes[i][:1] + (nodes[i][1].upper(),) + nodes[i][2:]
    if rng.random() < 0.5:
        extra = f"n{len(nodes)}"
        while any(m[0] == extra for m in nodes):
            extra += "x"
        others = sorted(m[0] for m in nodes)
        if domain == "flowchart":
            nodes.append(_node(extra, "phantom step", "activity"))
            edges.append((extra, rng.choice(others), ""))
        elif domain == "taxonomy":
            nodes.append(_node(extra, "phantom concept", "concept"))
            edges.append((extra, rng.choice(others), ""))
        else:
            nodes.append(_node(extra, "", "op", "count"))
            edges.append((rng.choice(others), extra, "0"))
    return nodes, edges


def pool(rng: random.Random, graph, domain: str, size: int) -> list:
    """The truth itself plus size - 1 noisy copies, in shuffled order."""
    members = [graph] + [noisy(rng, graph, domain) for _ in range(size - 1)]
    rng.shuffle(members)
    return members


# ---------------------------------------------------------------------------
# Rendering to candidate text


def render(graph, domain: str) -> str:
    nodes, edges = graph
    if domain == "flowchart":
        lines = ["flowchart TD"]
        for node_id, label, kind, _, _ in nodes:
            lines.append(f"{node_id}{{{label}}}" if kind == "decision" else f"{node_id}[{label}]")
        for s, t, label in edges:
            lines.append(f"{s} -->|{label}| {t}" if label else f"{s} --> {t}")
    elif domain == "taxonomy":
        label_of = {m[0]: m[1] for m in nodes}
        linked = {x for s, t, _ in edges for x in (s, t)}
        lines = [f"{label_of[s]} -> {label_of[t]}" for s, t, _ in edges]
        lines += [m[1] for m in nodes if m[0] not in linked]
    else:
        args: dict[str, dict[int, str]] = {m[0]: {} for m in nodes}
        for s, t, pos in edges:
            args[t][int(pos)] = s
        lines = []
        for node_id, _, _, op, param in nodes:
            rendered = f"{op}[{param}]" if param else op
            joined = ", ".join(args[node_id][p] for p in sorted(args[node_id]))
            lines.append(f"{node_id}: {rendered}({joined})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dense partial models for the solver


def dense_partial(rng: random.Random, domain: str, n: int, n_candidates: int = 5):
    """A partial model with about three edges per node around a planted
    ground truth. Every element count is uniform in 1..n_candidates, so the
    truth is only one of many attractive selections: this is the case where
    the branch-and-bound bound is weak.

    Returns (partial model in PartialModel.to_json form, truth text)."""
    graph = flowchart(rng, n) if domain == "flowchart" else taxonomy(rng, n)
    nodes, truth_edges = graph
    edges = {(s, t, label) for s, t, label in truth_edges}
    ids = [m[0] for m in nodes]
    while len(edges) < 3 * n:
        s, t = rng.sample(ids, 2)
        label = rng.choice(["", "yes", "no"]) if domain == "flowchart" else ""
        edges.add((s, t, label))

    def count():
        return rng.randint(1, n_candidates)

    node_rows = []
    for node_id, label, kind, _, _ in nodes:
        c = count()
        node_rows.append({"id": "p" + node_id[1:], "kind": {"kind": kind}, "count": c,
                          "labels": {label: c}})
    edge_rows = []
    for s, t, label in sorted(edges):
        c = count()
        edge_rows.append({"source": "p" + s[1:], "target": "p" + t[1:], "count": c,
                          "labels": {label: c}})
    partial = {"n_candidates": n_candidates, "nodes": node_rows, "edges": edge_rows}
    return json.dumps(partial, indent=2, sort_keys=True) + "\n", render(graph, domain)


# The solve-dense corpus: a fixed instance set, so that its optima can be
# recorded once (expected.json) and every run times the same solves. The
# instances were drawn from dense_partial in index order per class, and each
# was kept if the seed-commit solver either proved it in under 0.45 s (easy)
# or had not proven it after 3 s but already held a selection (hard); the
# rest were skipped. So no solve sits near the 1.5 s limit, and proven_ratio
# does not flip with the machine's speed. With five hard instances in 85,
# the tail percentile (ten samples beyond it) lies among the proven solves,
# even when a run fits two passes.
DENSE_CORPUS = {
    ("taxonomy", 12): [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 17, 18, 19, 20, 21,
                       22, 24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37, 39, 40,
                       41, 42, 43, 44, 45, 46, 47, 48, 49, 51, 52],
    ("taxonomy", 15): [2, 5, 11, 19, 23],
    ("flowchart", 20): [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 13, 15, 16, 18, 20, 21, 22, 23,
                        24, 25, 26, 27, 28, 29, 31, 32, 33, 35, 36, 38],
    ("taxonomy", 20): [0, 2, 3],  # hard
    ("flowchart", 30): [0, 5],  # hard
}


def dense_corpus() -> list[dict]:
    corpus = []
    for (domain, n), indices in DENSE_CORPUS.items():
        for i in indices:
            name = f"{domain}-{n}-{i}"
            partial, truth_text = dense_partial(random.Random(f"solve-dense/{name}"), domain, n)
            corpus.append({"name": name, "domain": domain, "partial": partial,
                           "truth": truth_text})
    return corpus
