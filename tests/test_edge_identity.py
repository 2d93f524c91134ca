"""Edge identity is graph.edge_key wherever a graph comes from.

Graphs from the parsers and hand-built graphs are grown with add_edge;
ConstraintProblem.induced_graph() is given its edge list whole and holds no
edge-key set until a caller needs one. has_edge and DuplicateEdge must mean
the same on all of them, and the output graphs of concretize() must not
carry a key set (it was 44% of what a retained output graph held).
"""
from __future__ import annotations

from pathlib import Path

import pytest

from abscon.abstraction import abstract
from abscon.concretize import concretize
from abscon.constraints import build_problem, check
from abscon.domains import profile
from abscon.errors import DuplicateEdge
from abscon.graph import DECISION
from abscon.llm import load_candidates
from abscon.notation import Notation, parse, serialize
from genutil import build_graph

DATA = Path(__file__).parent / "data"

MERMAID = """flowchart TD
  A[Receive order] --> B{In stock?}
  B -->|Yes| C[Ship order]
  B -->|No| D[Reorder stock]
  D --> B
"""


def _partial():
    candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    return abstract([c.graph for c in candidates], profile("flowchart"))


def _graph(source: str):
    if source == "parse":
        return parse(MERMAID, Notation.MERMAID_FLOWCHART).graph
    if source == "induced_graph":
        problem = build_problem(_partial(), profile("flowchart"))
        return problem.induced_graph({v: 1 for v in problem.variables})
    return build_graph(
        [("a", "Receive order", DECISION), ("b", "Ship order", DECISION)],
        [("a", "b", "Yes"), ("a", "b", "no"), ("b", "a", "")],
    )


SOURCES = ["parse", "induced_graph", "hand_built"]


@pytest.mark.parametrize("source", SOURCES)
def test_every_edge_is_found_and_rejected_under_its_key(source):
    g = _graph(source)
    assert g.edges
    for e in list(g.edges):
        variant = f"  {e.label.upper()}  "
        assert g.has_edge(e.source, e.target, e.label)
        assert g.has_edge(e.source, e.target, variant)
        with pytest.raises(DuplicateEdge):
            g.add_edge(e.source, e.target, variant)
    assert len(g.edges) == len(_graph(source).edges)


@pytest.mark.parametrize("source", SOURCES)
def test_a_new_key_is_absent_then_added(source):
    g = _graph(source)
    e = g.edges[0]
    assert not g.has_edge(e.source, e.target, "a label no edge has")
    g.add_edge(e.source, e.target, "A label  no edge has")
    assert g.has_edge(e.source, e.target, "a label no edge has")
    assert g.edges[-1].label == "A label  no edge has"
    with pytest.raises(DuplicateEdge):
        g.add_edge(e.source, e.target, "a label no edge has")


@pytest.mark.parametrize("source", ["induced_graph"])
def test_graphs_with_unique_edges_by_construction_hold_no_key_set(source):
    assert _graph(source)._edge_keys is None


def test_concretize_output_carries_no_edge_key_set():
    prof = profile("flowchart")
    final = concretize(_partial(), prof)
    assert final.edges
    assert check(final, prof).consistent
    serialize(final, prof.notation)
    assert final._edge_keys is None
