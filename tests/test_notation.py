from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.clevr import clevr_op
from abscon.errors import IncompatibleNotation, ModelSyntaxError
from abscon.graph import ACTIVITY, CONCEPT, DECISION, LabeledGraph
from abscon.notation import (
    Notation,
    display_label,
    extract_code_block,
    parse,
    render_clevr_op,
    serialize,
)
from genutil import (
    build_graph,
    graph_signature,
    random_clevr_graph,
    random_mermaid_graph,
    random_taxonomy_graph,
)


def test_parse_mermaid_basic():
    text = "flowchart TD\nA[Start] --> B{OK?}\nB -->|yes| C[Done]\nB -->|no| A"
    parsed = parse(text, Notation.MERMAID_FLOWCHART)
    g = parsed.graph
    assert len(g.nodes) == 3
    assert len(g.edges) == 3
    kinds = sorted(n.kind.kind for n in g.nodes.values())
    assert kinds == ["activity", "activity", "decision"]
    assert g.nodes["B"].label == "OK?"
    assert not parsed.warnings


def test_parse_mermaid_dangling_edge():
    with pytest.raises(ModelSyntaxError):
        parse("flowchart TD\nA[Start] --> ", Notation.MERMAID_FLOWCHART)


def test_parse_mermaid_bad_node_reference():
    with pytest.raises(ModelSyntaxError, match="bad node reference 'B\\(y\\)'"):
        parse("flowchart TD\nA[x] --> B(y)", Notation.MERMAID_FLOWCHART)


def test_parse_mermaid_requires_header():
    with pytest.raises(ModelSyntaxError):
        parse("A[Start] --> B[End]", Notation.MERMAID_FLOWCHART)


def test_parse_mermaid_id_only_reference_defaults_to_activity():
    g = parse("flowchart TD\nA --> B", Notation.MERMAID_FLOWCHART).graph
    assert g.nodes["A"].label == "A"
    assert g.nodes["A"].kind == ACTIVITY


@pytest.mark.parametrize("text, label, kind", [
    ("flowchart TD\nA[Check stock] --> B\nA{In stock?}\n", "Check stock", ACTIVITY),
    ("flowchart TD\nA --> B\nA{In stock?}\n", "In stock?", DECISION),
], ids=["first_explicit_wins", "explicit_replaces_implicit"])
def test_parse_mermaid_redeclared_node(text, label, kind):
    g = parse(text, Notation.MERMAID_FLOWCHART).graph
    assert (g.nodes["A"].label, g.nodes["A"].kind) == (label, kind)


def test_serialize_remaps_ids_outside_the_id_syntax():
    g = build_graph([("a-b", "Receive order", ACTIVITY), ("c", "Ship order", ACTIVITY),
                     ("x0", "Notify customer", ACTIVITY)],
                    [("a-b", "c", ""), ("c", "x0", "done")])
    text = serialize(g, Notation.MERMAID_FLOWCHART)
    assert "a-b" not in text and "x1[Receive order]" in text  # x0 is taken
    assert graph_signature(parse(text, Notation.MERMAID_FLOWCHART).graph) == graph_signature(g)


def test_parse_mermaid_duplicate_edge_collapses_with_warning():
    text = "flowchart TD\nA[x] --> B[y]\nA --> B"
    parsed = parse(text, Notation.MERMAID_FLOWCHART)
    assert len(parsed.graph.edges) == 1
    assert len(parsed.warnings) == 1


@pytest.mark.parametrize("text", ["animal -> dog\nanimal -> dog", "animal -> dog\nAnimal -> DOG"],
                         ids=["same", "differs_in_case"])
def test_parse_taxonomy_duplicate_relation_collapses_with_warning(text):
    parsed = parse(text, Notation.TAXONOMY_EDGES)
    assert len(parsed.graph.edges) == 1
    assert parsed.warnings == ["line 2: duplicate edge collapsed"]


def test_parse_taxonomy():
    parsed = parse("animal -> dog\nanimal -> cat", Notation.TAXONOMY_EDGES)
    g = parsed.graph
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert all(n.kind == CONCEPT for n in g.nodes.values())


def test_parse_taxonomy_empty_side_is_error():
    with pytest.raises(ModelSyntaxError):
        parse("animal -> ", Notation.TAXONOMY_EDGES)


@pytest.mark.parametrize("text,notation", [
    ("animal -> dog -> puppy", Notation.TAXONOMY_EDGES),
    ("animal -> #dog", Notation.TAXONOMY_EDGES),
    ("flowchart TD\na[start {now}] --> b[end]", Notation.MERMAID_FLOWCHART),
    ("flowchart TD\na[start|now]", Notation.MERMAID_FLOWCHART),
])
def test_parse_rejects_labels_serialize_cannot_write(text, notation):
    with pytest.raises(ModelSyntaxError, match="not representable"):
        parse(text, notation)


def test_serialize_rejects_isolated_concept_read_as_comment():
    g = LabeledGraph()
    g.add_node("#dog", CONCEPT)
    with pytest.raises(IncompatibleNotation):
        serialize(g, Notation.TAXONOMY_EDGES)


def test_parse_clevr():
    text = "n0: scene()\nn1: filter_color[red](n0)\nn2: exist(n1)"
    g = parse(text, Notation.CLEVR_PROGRAM).graph
    assert len(g.nodes) == 3
    assert g.nodes["n1"].kind == clevr_op("filter_color", "red")
    assert g.nodes["n1"].label == "filter_color[red]"
    edge = [e for e in g.edges if e.target == "n1"][0]
    assert edge.source == "n0" and edge.label == "0"


def test_parse_clevr_unknown_op():
    with pytest.raises(ModelSyntaxError):
        parse("n0: teleport()", Notation.CLEVR_PROGRAM)


def test_parse_clevr_undefined_reference():
    with pytest.raises(ModelSyntaxError):
        parse("n0: scene()\nn1: exist(n9)", Notation.CLEVR_PROGRAM)


def test_parse_clevr_duplicate_operation_name():
    with pytest.raises(ModelSyntaxError, match="duplicate operation name 'n0'"):
        parse("n0: scene()\nn0: exist(n0)", Notation.CLEVR_PROGRAM)


def test_clevr_display_label_render_rule():
    g = LabeledGraph()
    node_id = g.add_node("", clevr_op("filter_color", "red"))
    assert display_label(g.nodes[node_id]) == "filter_color[red]"
    assert render_clevr_op(clevr_op("scene")) == "scene"


def test_serialize_smallest_flowchart():
    g = LabeledGraph()
    g.add_node("Start", ACTIVITY, node_id="n0")
    assert serialize(g, Notation.MERMAID_FLOWCHART) == "flowchart TD\nn0[Start]\n"


def test_serialize_taxonomy_sorted_and_deterministic():
    g = LabeledGraph()
    a = g.add_node("zebra", CONCEPT)
    b = g.add_node("animal", CONCEPT)
    g.add_edge(b, a, "")
    text = serialize(g, Notation.TAXONOMY_EDGES)
    assert text == "animal -> zebra\n"
    assert serialize(g, Notation.TAXONOMY_EDGES) == text


def test_serialize_incompatible_kind():
    g = LabeledGraph()
    g.add_node("x", CONCEPT)
    with pytest.raises(IncompatibleNotation):
        serialize(g, Notation.MERMAID_FLOWCHART)


def _op(name, param=None):
    return "", clevr_op(name, param)


# name: (notation, nodes, edges, text the error names), for build_graph
UNWRITABLE = {
    "mermaid_label_with_bar": (Notation.MERMAID_FLOWCHART, [("a", "a|b", ACTIVITY)], [],
                               "label 'a|b'"),
    "mermaid_edge_label_with_bar": (Notation.MERMAID_FLOWCHART,
                                    [("a", "go", ACTIVITY), ("b", "stop", ACTIVITY)],
                                    [("a", "b", "x|y")], "edge label 'x|y'"),
    "activity_in_taxonomy": (Notation.TAXONOMY_EDGES, [("a", "go", ACTIVITY)], [],
                             "activity not valid in a taxonomy"),
    "activity_in_clevr": (Notation.CLEVR_PROGRAM, [("a", "go", ACTIVITY)], [],
                          "activity not valid in a clevr program"),
    "clevr_argument_not_a_position": (Notation.CLEVR_PROGRAM,
                                      [("s", *_op("scene")), ("c", *_op("count"))],
                                      [("s", "c", "x")], "argument edge label 'x'"),
    "clevr_duplicate_position": (Notation.CLEVR_PROGRAM,
                                 [("s", *_op("scene")), ("t", *_op("scene")), ("u", *_op("union"))],
                                 [("s", "u", "0"), ("t", "u", "0")],
                                 "duplicate argument position 0"),
    "clevr_gap_at_position_0": (Notation.CLEVR_PROGRAM,
                                [("s", *_op("scene")), ("c", *_op("count"))],
                                [("s", "c", "1")], "not contiguous"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_serialize_rejects_what_the_notation_cannot_write(case):
    notation, nodes, edges, named = UNWRITABLE[case]
    with pytest.raises(IncompatibleNotation, match=re.escape(named)):
        serialize(build_graph(nodes, edges), notation)


def test_extract_code_block():
    assert extract_code_block("Here:\n```mermaid\nflowchart TD\nA[x]\n```") == "flowchart TD\nA[x]"
    assert extract_code_block("no fences at all") == "no fences at all"
    two = "```\nfirst\n```\nmiddle\n```\nsecond\n```"
    assert extract_code_block(two) == "first"


@pytest.mark.parametrize(
    "notation,generator",
    [
        (Notation.MERMAID_FLOWCHART, random_mermaid_graph),
        (Notation.TAXONOMY_EDGES, random_taxonomy_graph),
        (Notation.CLEVR_PROGRAM, random_clevr_graph),
    ],
)
def test_round_trip_property(notation, generator):
    rng = random.Random(20240807)
    for _ in range(120):
        g = generator(rng)
        text = serialize(g, notation)
        back = parse(text, notation).graph
        assert graph_signature(back) == graph_signature(g)
        assert serialize(back, notation) == text


# Fragments of each notation's syntax, so that generated texts get past the
# header and line patterns into the graph-building code.
SYNTAX = {
    Notation.MERMAID_FLOWCHART: ["flowchart TD", "flowchart LR", "\n", " ", "-->", "|", "[", "]",
                                 "{", "}", "A", "b_2", "yes", "Yes ", "%%", ";", "é"],
    Notation.TAXONOMY_EDGES: ["->", "-", ">", "\n", " ", "#", "animal", "Dog", "dog ", ":", "é"],
    Notation.CLEVR_PROGRAM: ["n0", "n1", ":", " ", "\n", "#", "(", ")", ",", "[", "]", "scene",
                             "filter_color", "red", "count", "relate", "left", "equal_integer",
                             "unique", "query_shape", "bogus"],
}


@settings(max_examples=500)
@given(notation=st.sampled_from(list(Notation)), data=st.data())
def test_parse_raises_only_syntax_errors(notation, data):
    # ... and whatever it accepts, serialize writes and parse reads back.
    soup = st.lists(st.sampled_from(SYNTAX[notation]), max_size=40).map("".join)
    text = data.draw(st.one_of(st.text(max_size=200), soup))
    try:
        graph = parse(text, notation).graph
    except ModelSyntaxError:
        return
    back = parse(serialize(graph, notation), notation).graph
    assert graph_signature(back) == graph_signature(graph)
