from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.abstraction import PartialModel, abstract
from abscon.concretize import solve, weights
from abscon.constraints import build_problem, check
from abscon.domains import profile
from abscon.graph import ACTIVITY, LabeledGraph
from abscon.llm import load_candidates
from abscon.notation import Notation
from genutil import build_graph, candidate_pool, clone, graph_signature, mlc, random_flowchart

DATA = Path(__file__).parent / "data"


def load_fig2_graphs():
    candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    return [c.graph for c in candidates]


def _chain(labels):
    g = LabeledGraph()
    ids = [g.add_node(l, ACTIVITY) for l in labels]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, "")
    return g


def test_single_candidate_all_probabilities_one():
    g = _chain(["a b", "c d"])
    model = abstract([g], profile("flowchart"))
    assert model.n_candidates == 1
    for elem in list(model.nodes.values()) + list(model.edges.values()):
        assert elem.count / model.n_candidates == 1.0


def test_identical_candidates_all_counts_equal_n():
    g = _chain(["receive order", "ship order", "close ticket"])
    model = abstract([clone(g), clone(g), clone(g)], profile("flowchart"))
    assert model.n_candidates == 3
    for elem in list(model.nodes.values()) + list(model.edges.values()):
        assert elem.count == 3
        assert elem.count / model.n_candidates == 1.0


def test_fig2_pool_probabilities():
    graphs = load_fig2_graphs()
    model = abstract(graphs, profile("flowchart"))
    by_label = {elem.label: elem for elem in model.nodes.values()}
    assert by_label["Update ledger"].count == 2
    for label in ("Receive order", "In stock?", "Ship order", "Reorder stock", "Notify customer"):
        assert by_label[label].count == 3, label
    # the unlabeled decision arm from candidate 3 stays a separate minority edge
    arm_counts = sorted(
        (key[2], elem.count) for key, elem in model.edges.items()
        if by_label["In stock?"] is model.nodes[key[0]]
    )
    assert arm_counts == [("", 1), ("no", 2), ("yes", 3)]


def test_fig2_mlc_includes_hallucination_and_violates_constraints():
    graphs = load_fig2_graphs()
    flowchart = profile("flowchart")
    model = abstract(graphs, flowchart)
    g = mlc(model)
    labels = {n.label for n in g.nodes.values()}
    assert "Update ledger" in labels
    report = check(g, flowchart)
    assert not report.consistent
    assert any(v.name == "single_source" for v in report.violations)


def test_mlc_strict_majority_excludes_half():
    g1 = _chain(["alpha beta", "gamma delta"])
    g2 = _chain(["alpha beta", "unrelated thing"])
    model = abstract([g1, g2], profile("flowchart"))
    half = [e for e in model.nodes.values() if e.count == 1]
    assert half  # the non-shared nodes sit exactly at P = 0.5
    out = mlc(model)
    labels = {n.label for n in out.nodes.values()}
    assert labels == {"alpha beta"}


def test_abstract_then_mlc_round_trips_single_candidate():
    rng = random.Random(3)
    g = random_flowchart(rng, 6)
    model = abstract([g], profile("flowchart"))
    assert graph_signature(mlc(model)) == graph_signature(g)


def test_count_conservation():
    rng = random.Random(5)
    truth = random_flowchart(rng, 5)
    pool = [clone(truth) for _ in range(4)]
    model = abstract(pool, profile("flowchart"))
    total_nodes = sum(e.count for e in model.nodes.values())
    assert total_nodes == sum(len(g.nodes) for g in pool)
    total_edges = sum(e.count for e in model.edges.values())
    assert total_edges == sum(len(g.edges) for g in pool)


def test_label_histogram_and_distribution():
    a = build_graph([("x", "Ship order", ACTIVITY)], [])
    b = build_graph([("x", "ship order", ACTIVITY)], [])
    c = build_graph([("x", "Ship order", ACTIVITY)], [])
    model = abstract([a, b, c], profile("flowchart"))
    (elem,) = model.nodes.values()
    assert elem.count == 3
    assert elem.labels == {"Ship order": 2, "ship order": 1}
    assert elem.label == "Ship order"
    assert elem.labels["Ship order"] / elem.count == pytest.approx(2 / 3)
    assert sum(elem.labels.values()) == elem.count


def test_json_round_trip():
    graphs = load_fig2_graphs()
    model = abstract(graphs, profile("flowchart"))
    text = model.to_json()
    back = PartialModel.from_json(text)
    assert back.to_json() == text
    assert back.n_candidates == model.n_candidates
    assert set(back.nodes) == set(model.nodes)
    assert set(back.edges) == set(model.edges)
    for key, elem in model.edges.items():
        assert back.edges[key].labels == elem.labels


def test_new_node_takes_the_first_free_id():
    text = json.dumps({"n_candidates": 1, "edges": [], "nodes": [
        {"id": i, "kind": {"kind": "activity"}, "count": 1, "labels": {i: 1}} for i in ("p0", "p2")]})
    model = PartialModel.from_json(text)
    assert [model.new_node("x", ACTIVITY) for _ in range(2)] == ["p3", "p4"]
    assert model.nodes["p3"].count == 1


def _recased(rng: random.Random, g: LabeledGraph) -> LabeledGraph:
    """A copy whose edge labels are each lower-, upper- or title-cased."""
    cases = [str.lower, str.upper, str.capitalize]
    return build_graph([(n.id, n.label, n.kind) for n in g.nodes.values()],
                       [(e.source, e.target, rng.choice(cases)(e.label)) for e in g.edges])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 9), size=st.integers(2, 5),
       case_sensitive=st.booleans())
def test_edge_identity_survives_reload_and_concretization(seed, n_nodes, size, case_sensitive):
    # Edges differing only in the case of their label are one element in
    # every mode: the same keys after a JSON round trip, and one graph edge
    # per selected edge variable.
    rng = random.Random(seed)
    pool = candidate_pool(rng, random_flowchart(rng, n_nodes), "flowchart", size)
    prof = profile("flowchart", case_sensitive_labels=case_sensitive)
    partial = abstract([_recased(rng, g) for g in pool], prof)

    back = PartialModel.from_json(partial.to_json())
    assert list(back.edges) == list(partial.edges)
    for key, elem in partial.edges.items():
        assert (back.edges[key].count, back.edges[key].labels) == (elem.count, elem.labels)

    problem = build_problem(partial, prof)
    problem.weights = weights(partial)
    best = solve(problem, timeout=30.0).assignment
    if best is None:
        return
    selected = {v for v in problem.nodes if best[v]}
    open_edges = [v for v, e in problem.edges.items()
                  if problem.fixed.get(v) != 0 and {e.source, e.target} <= selected]
    widened = [dict(best, **{v: 1 for v in open_edges}),
               dict(best, **{v: 1 for v in open_edges if rng.random() < 0.5})]
    for assignment in [best] + widened:
        if problem.satisfied(assignment):
            graph = problem.induced_graph(assignment)
            assert len(graph.edges) == sum(assignment[v] for v in problem.edges)
