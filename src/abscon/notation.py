"""Parse and serialize candidate models in three textual notations.

Supported forms:
  * Mermaid flowchart subset: header ``flowchart TD|LR``, node declarations
    ``id[label]`` (activity) and ``id{label}`` (decision), edges ``a --> b``
    and ``a -->|cond| b``. A node referenced only by id defaults to an
    activity labeled with the id.
  * Taxonomy edge list: one ``parent -> child`` line per relation; a bare
    label line declares an isolated concept.
  * Clevr program: one ``name: op[param](arg0, arg1)`` line per operation,
    argument order giving edge positions.

Each notation has one node-label rule, which its parser and its serializer
share: a label the parser accepts is one the serializer can write back.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .errors import IncompatibleNotation, ModelSyntaxError
from .graph import (
    ACTIVITY,
    CONCEPT,
    DECISION,
    LabeledGraph,
    Node,
    NodeKind,
    normalize_label,
)


class Notation(enum.Enum):
    MERMAID_FLOWCHART = "mermaid"
    TAXONOMY_EDGES = "taxonomy"
    CLEVR_PROGRAM = "clevr"


EXTENSIONS = {
    ".mmd": Notation.MERMAID_FLOWCHART,
    ".tax": Notation.TAXONOMY_EDGES,
    ".clv": Notation.CLEVR_PROGRAM,
}

EXTENSION_FOR = {n: ext for ext, n in EXTENSIONS.items()}


@dataclass
class ParsedCandidate:
    graph: LabeledGraph
    source_text: str
    warnings: list[str] = field(default_factory=list)


def display_label(node: Node) -> str:
    """Label shown for a node; clevr op labels are derived from the kind."""
    if node.kind.is_clevr:
        return render_clevr_op(node.kind)
    return node.label


def render_clevr_op(kind: NodeKind) -> str:
    if kind.param is not None:
        return f"{kind.op}[{kind.param}]"
    return kind.op or ""


_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code_block(llm_response: str) -> str:
    """Content of the first fenced code block, or the whole text if none."""
    m = _FENCE.search(llm_response)
    if m:
        return m.group(1).strip("\n")
    return llm_response


# ---------------------------------------------------------------------------
# Mermaid flowchart subset

_HEADER = re.compile(r"flowchart\s+(TD|LR)\s*$")
_NODE_DECL = re.compile(r"^(\w+)\s*(\[([^\]]*)\]|\{([^}]*)\})\s*$")
_ENDPOINT = re.compile(r"^(\w+)\s*(\[([^\]]*)\]|\{([^}]*)\})?\s*$")
_EDGE = re.compile(r"^(.*?)\s*-->\s*(?:\|([^|]*)\|\s*)?(.*)$")


def _one_line(label: str) -> bool:
    """Non-empty and free of line breaks of any kind parse splits on."""
    return label.splitlines() == [label]


def _mermaid_label_ok(label: str) -> bool:
    return _one_line(label) and not re.search(r"[\[\]{}|]|-->", label)


def _parse_mermaid(text: str) -> ParsedCandidate:
    g = LabeledGraph()
    warnings: list[str] = []
    declared: dict[str, tuple[str, NodeKind]] = {}
    edges: list[tuple[str, str, str, int]] = []
    lines = text.splitlines()

    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%%"):
            continue
        if not header_seen:
            if not _HEADER.match(line):
                raise ModelSyntaxError("expected 'flowchart TD' or 'flowchart LR' header", lineno)
            header_seen = True
            continue
        m = _EDGE.match(line)
        if m:
            src_id = _mermaid_endpoint(m.group(1), declared, lineno)
            tgt_id = _mermaid_endpoint(m.group(3), declared, lineno)
            edges.append((src_id, tgt_id, m.group(2) or "", lineno))
            continue
        m = _NODE_DECL.match(line)
        if m:
            _mermaid_declare(m, declared, lineno)
            continue
        raise ModelSyntaxError(f"unrecognized statement {line!r}", lineno)
    if not header_seen:
        raise ModelSyntaxError("empty flowchart", 1)

    for node_id, (label, kind) in declared.items():
        g.add_node(label, kind, node_id=node_id)
    for src, tgt, label, lineno in edges:
        if g.has_edge(src, tgt, label):
            warnings.append(f"line {lineno}: duplicate edge {src}->{tgt} collapsed")
            continue
        g.add_edge(src, tgt, label)
    return ParsedCandidate(g, text, warnings)


def _mermaid_declare(m: re.Match, declared: dict, lineno: int) -> str:
    node_id = m.group(1)
    kind = DECISION if m.group(2).startswith("{") else ACTIVITY
    label = (m.group(3) if m.group(3) is not None else m.group(4)) or node_id
    label = label.strip() or node_id
    if not _mermaid_label_ok(label):
        raise ModelSyntaxError(f"label {label!r} not representable in mermaid", lineno)
    if node_id in declared:
        prev_label, prev_kind = declared[node_id]
        if (prev_label, prev_kind) != (label, kind) and (prev_label, prev_kind) != (node_id, ACTIVITY):
            return node_id  # first explicit declaration wins
    declared[node_id] = (label, kind)
    return node_id


def _mermaid_endpoint(text: str, declared: dict, lineno: int) -> str:
    text = text.strip()
    if not text:
        raise ModelSyntaxError("dangling edge", lineno)
    m = _ENDPOINT.match(text)
    if not m:
        raise ModelSyntaxError(f"bad node reference {text!r}", lineno)
    node_id = m.group(1)
    if m.group(2) is None:
        declared.setdefault(node_id, (node_id, ACTIVITY))
        return node_id
    return _mermaid_declare(m, declared, lineno)


def _serialize_mermaid(graph: LabeledGraph) -> str:
    ids = _printable_ids(graph)
    lines = ["flowchart TD"]
    for node_id in sorted(graph.nodes, key=lambda n: ids[n]):
        node = graph.nodes[node_id]
        if node.kind not in (ACTIVITY, DECISION):
            raise IncompatibleNotation(f"node kind {node.kind.kind} not valid in a flowchart")
        if not _mermaid_label_ok(node.label):
            raise IncompatibleNotation(f"label {node.label!r} not representable in mermaid")
        open_b, close_b = ("{", "}") if node.kind == DECISION else ("[", "]")
        lines.append(f"{ids[node_id]}{open_b}{node.label}{close_b}")
    for edge in sorted(graph.edges, key=lambda e: (ids[e.source], ids[e.target], e.label)):
        if re.search(r"[|\n]", edge.label):
            raise IncompatibleNotation(f"edge label {edge.label!r} not representable in mermaid")
        if edge.label:
            lines.append(f"{ids[edge.source]} -->|{edge.label}| {ids[edge.target]}")
        else:
            lines.append(f"{ids[edge.source]} --> {ids[edge.target]}")
    return "\n".join(lines) + "\n"


def _printable_ids(graph: LabeledGraph) -> dict[str, str]:
    """Keep ids that fit the notation's id syntax, remap the rest."""
    ids = {}
    used = set()
    remap = []
    for node_id in sorted(graph.nodes):
        if re.fullmatch(r"\w+", node_id) and node_id not in used:
            ids[node_id] = node_id
            used.add(node_id)
        else:
            remap.append(node_id)
    counter = 0
    for node_id in remap:
        while f"x{counter}" in used:
            counter += 1
        ids[node_id] = f"x{counter}"
        used.add(f"x{counter}")
        counter += 1
    return ids


# ---------------------------------------------------------------------------
# Taxonomy edge list

_TAX_EDGE = re.compile(r"^(.+?)\s*->\s*(.+)$")


def _concept_label_ok(label: str) -> bool:
    """No arrow, and no leading '#', which would make a bare line a comment."""
    return _one_line(label) and "->" not in label and not label.startswith("#")


def _parse_taxonomy(text: str) -> ParsedCandidate:
    g = LabeledGraph()
    warnings: list[str] = []
    by_label: dict[str, str] = {}

    def concept(label: str, lineno: int) -> str:
        label = label.strip()
        if not _concept_label_ok(label):
            raise ModelSyntaxError(f"label {label!r} not representable as a concept", lineno)
        key = normalize_label(label)
        if key not in by_label:
            by_label[key] = g.add_node(label, CONCEPT)
        return by_label[key]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TAX_EDGE.match(line)
        if m:
            parent = concept(m.group(1), lineno)
            child = concept(m.group(2), lineno)
            if g.has_edge(parent, child):
                warnings.append(f"line {lineno}: duplicate edge collapsed")
            else:
                g.add_edge(parent, child)
        elif "->" in line:
            raise ModelSyntaxError("relation is missing a concept", lineno)
        else:
            concept(line, lineno)
    return ParsedCandidate(g, text, warnings)


def _serialize_taxonomy(graph: LabeledGraph) -> str:
    lines = []
    linked = set()
    for node in graph.nodes.values():
        if node.kind != CONCEPT:
            raise IncompatibleNotation(f"node kind {node.kind.kind} not valid in a taxonomy")
        if not _concept_label_ok(node.label):
            raise IncompatibleNotation(f"label {node.label!r} not representable as a concept")
    for edge in graph.edges:
        lines.append(f"{graph.nodes[edge.source].label} -> {graph.nodes[edge.target].label}")
        linked.update((edge.source, edge.target))
    for node_id in graph.nodes:
        if node_id not in linked:
            lines.append(graph.nodes[node_id].label)
    return "\n".join(sorted(lines)) + "\n"


# ---------------------------------------------------------------------------
# Clevr program form

_CLV_LINE = re.compile(r"^(\w+)\s*:\s*(\w+)\s*(?:\[([^\]]*)\])?\s*(?:\(([^)]*)\))?\s*$")


def _parse_clevr(text: str) -> ParsedCandidate:
    from . import clevr  # the op catalog; other notations never load it

    g = LabeledGraph()
    defs: dict[str, tuple[NodeKind, list[str], int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CLV_LINE.match(line)
        if not m:
            raise ModelSyntaxError(f"bad operation statement {line!r}", lineno)
        name, op, param, args = m.group(1), m.group(2), m.group(3), m.group(4)
        if name in defs:
            raise ModelSyntaxError(f"duplicate operation name {name!r}", lineno)
        try:
            kind = clevr.clevr_op(op, param)
        except ValueError as exc:
            raise ModelSyntaxError(str(exc), lineno) from exc
        arg_names = [a.strip() for a in args.split(",") if a.strip()] if args else []
        defs[name] = (kind, arg_names, lineno)

    for name, (kind, _, _) in defs.items():
        g.add_node(render_clevr_op(kind), kind, node_id=name)
    for name, (_, arg_names, lineno) in defs.items():
        for pos, arg in enumerate(arg_names):
            if arg not in defs:
                raise ModelSyntaxError(f"undefined operation reference {arg!r}", lineno)
            g.add_edge(arg, name, str(pos))
    return ParsedCandidate(g, text)


def _serialize_clevr(graph: LabeledGraph) -> str:
    ids = _printable_ids(graph)
    lines = []
    for node_id in sorted(graph.nodes, key=lambda n: ids[n]):
        node = graph.nodes[node_id]
        if not node.kind.is_clevr:
            raise IncompatibleNotation(f"node kind {node.kind.kind} not valid in a clevr program")
        by_pos: dict[int, str] = {}
        for edge in graph.in_edges(node_id):
            try:
                pos = int(normalize_label(edge.label))
            except ValueError:
                raise IncompatibleNotation(f"argument edge label {edge.label!r} is not a position")
            if pos in by_pos:
                raise IncompatibleNotation(f"duplicate argument position {pos} into {node_id}")
            by_pos[pos] = ids[edge.source]
        if by_pos and sorted(by_pos) != list(range(len(by_pos))):
            raise IncompatibleNotation(f"argument positions into {node_id} are not contiguous")
        args = ", ".join(by_pos[p] for p in sorted(by_pos))
        rendered = render_clevr_op(node.kind)
        lines.append(f"{ids[node_id]}: {rendered}({args})" if args else f"{ids[node_id]}: {rendered}()")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry points

_PARSERS = {
    Notation.MERMAID_FLOWCHART: _parse_mermaid,
    Notation.TAXONOMY_EDGES: _parse_taxonomy,
    Notation.CLEVR_PROGRAM: _parse_clevr,
}

_SERIALIZERS = {
    Notation.MERMAID_FLOWCHART: _serialize_mermaid,
    Notation.TAXONOMY_EDGES: _serialize_taxonomy,
    Notation.CLEVR_PROGRAM: _serialize_clevr,
}


def parse(text: str, notation: Notation) -> ParsedCandidate:
    """Parse candidate text; raises ModelSyntaxError when it must be dropped."""
    return _PARSERS[notation](text)


def serialize(graph: LabeledGraph, notation: Notation) -> str:
    """Deterministic text form; parse(serialize(g)) is isomorphic to g."""
    return _SERIALIZERS[notation](graph)
