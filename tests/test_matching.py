from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.abstraction import abstract
from abscon.domains import profile
from abscon.errors import TooLarge
from abscon.graph import ACTIVITY, DECISION, Edge, LabeledGraph
from abscon.matching import (
    EXHAUSTIVE_LIMIT,
    _assignment_start,
    _Instance,
    match,
)
from abscon.similarity import SimilarityMode, similarity_rows
from genutil import (build_graph, candidate_pool, exhaustive_match, random_clevr_graph,
                     random_clevr_program, random_flowchart, random_mermaid_graph,
                     random_taxonomy_tree)

FLOWCHART = profile("flowchart")


def _chain(labels, kind=ACTIVITY):
    g = LabeledGraph()
    ids = [g.add_node(label, kind) for label in labels]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, "")
    return g


def test_match_graph_with_itself_is_identity():
    g = _chain(["order received", "check stock", "ship order"])
    result = match(g, g, FLOWCHART)
    assert result.total_cost == 0.0
    assert result.optimal
    assert result.node_map == {i: i for i in g.nodes}


def test_match_against_empty_graph_costs_everything():
    g = _chain(["a b", "c d", "e f"])
    empty = LabeledGraph()
    result = match(g, empty, FLOWCHART)
    assert result.node_map == {}
    assert result.total_cost == len(g.nodes) + len(g.edges)


def test_match_single_relabeled_node_agrees_with_oracle():
    base = build_graph(
        [("b0", "receive order", ACTIVITY), ("b1", "check stock", ACTIVITY),
         ("b2", "ship order", ACTIVITY), ("b3", "notify customer", ACTIVITY)],
        [("b0", "b1", ""), ("b1", "b2", ""), ("b2", "b3", "")],
    )
    cand = build_graph(
        [("c0", "receive order", ACTIVITY), ("c1", "check the stock", ACTIVITY),
         ("c2", "ship order", ACTIVITY), ("c3", "notify customer", ACTIVITY)],
        [("c0", "c1", ""), ("c1", "c2", ""), ("c2", "c3", "")],
    )
    approx = match(cand, base, FLOWCHART)
    oracle = exhaustive_match(cand, base, FLOWCHART)
    assert approx.total_cost == pytest.approx(oracle.total_cost)
    assert oracle.node_map == {"c0": "b0", "c1": "b1", "c2": "b2", "c3": "b3"}
    assert approx.node_map == oracle.node_map


def test_mapping_respects_tau():
    base = build_graph([("b0", "paint the wall", ACTIVITY)], [])
    cand = build_graph([("c0", "review invoice totals", ACTIVITY)], [])
    result = match(cand, base, profile("flowchart", tau=0.5))
    assert result.node_map == {}  # similarity below threshold: delete + insert
    assert result.total_cost == 2.0


def test_kind_mismatch_never_mapped():
    base = build_graph([("b0", "check", DECISION)], [])
    cand = build_graph([("c0", "check", ACTIVITY)], [])
    assert match(cand, base, FLOWCHART).node_map == {}


def test_exhaustive_too_large():
    g = _chain([f"step number {i}" for i in range(9)])
    with pytest.raises(TooLarge):
        exhaustive_match(g, g, FLOWCHART)


def test_oracle_dominance_on_random_pairs():
    rng = random.Random(7)
    for _ in range(25):
        a = random_mermaid_graph(rng, max_nodes=5)
        b = random_mermaid_graph(rng, max_nodes=5)
        approx = match(a, b, FLOWCHART)
        oracle = exhaustive_match(a, b, FLOWCHART)
        assert oracle.total_cost <= approx.total_cost + 1e-9
        if approx.optimal:
            assert approx.total_cost == pytest.approx(oracle.total_cost)
        for c, base_id in oracle.node_map.items():
            (row,) = similarity_rows([a.nodes[c]], [b.nodes[base_id]], FLOWCHART.similarity_mode,
                                     FLOWCHART.provider, FLOWCHART.case_sensitive_labels, 0.0)
            assert row[0] >= FLOWCHART.tau


def test_determinism():
    rng = random.Random(11)
    a = random_mermaid_graph(rng, max_nodes=8)
    b = random_mermaid_graph(rng, max_nodes=8)
    r1 = match(a, b, FLOWCHART)
    r2 = match(a, b, FLOWCHART)
    assert r1.node_map == r2.node_map
    assert r1.total_cost == r2.total_cost


def test_larger_graphs_use_approximate_path():
    g = _chain([f"step {i} of work" for i in range(7)])
    result = match(g, g, FLOWCHART)
    assert not result.optimal
    assert result.total_cost == 0.0
    assert result.node_map == {i: i for i in g.nodes}


def test_alignment_does_not_read_the_clock(monkeypatch):
    # On this pair, and when b is matched against the partial model of a
    # pool [b, a], the local search improves on the assignment warm start.
    # A clock that runs 10 s per read changes neither result.
    rng = random.Random(27)
    a = random_mermaid_graph(rng, max_nodes=10)
    b = random_mermaid_graph(rng, max_nodes=10)
    assert max(len(a.nodes), len(b.nodes)) > EXHAUSTIVE_LIMIT
    for base in (b, abstract([b], FLOWCHART)):
        inst = _Instance(a, base, FLOWCHART)
        assert match(a, base, FLOWCHART).total_cost < inst.mapping_cost(_assignment_start(inst))
    result, partial = match(a, b, FLOWCHART), abstract([b, a], FLOWCHART).to_json()
    with monkeypatch.context() as patch:
        clock = itertools.count(time.monotonic(), 10.0)
        patch.setattr(time, "monotonic", lambda: next(clock))
        raced, raced_partial = match(a, b, FLOWCHART), abstract([b, a], FLOWCHART).to_json()
    assert (raced.node_map, raced.total_cost) == (result.node_map, result.total_cost)
    assert raced_partial == partial


def _representative_graph(model) -> LabeledGraph:
    """The model's representative-label graph: each element under its most
    frequent label, the edge list given whole (unique by construction)."""
    g = LabeledGraph()
    for elem_id, elem in model.nodes.items():
        g.add_node(elem.label, elem.kind, node_id=elem_id)
    g.edges = [Edge(src, tgt, elem.label) for (src, tgt, _), elem in model.edges.items()]
    return g


def _pool(rng: random.Random, shape: str, n: int) -> tuple[str, list[LabeledGraph]]:
    """A seeded pool of about n nodes a graph. "unrelated" pools are
    independent flowcharts; "loops" pools are random graphs with self-loops."""
    if shape == "flowchart":
        return shape, candidate_pool(rng, random_flowchart(rng, n), shape, size=4)
    if shape == "taxonomy":
        return shape, candidate_pool(rng, random_taxonomy_tree(rng, n), shape, size=4)
    if shape == "clevr":
        truth = random_clevr_program(rng) if n < 10 else random_clevr_graph(rng, n)
        return shape, candidate_pool(rng, truth, shape, size=4)
    if shape == "unrelated":
        return "flowchart", [random_flowchart(rng, rng.randint(max(2, n // 2), n)) for _ in range(4)]
    return "flowchart", [random_mermaid_graph(rng, n) for _ in range(4)]


@settings(max_examples=150)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["flowchart", "taxonomy", "clevr", "unrelated", "loops"]),
    # Up to EXHAUSTIVE_LIMIT nodes a side, then either side of SMALL_LIMIT
    # nodes in an alignment.
    n=st.sampled_from([3, 5, 12, 40]),
    mode=st.sampled_from(list(SimilarityMode)),
    tau=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
)
def test_the_model_aligns_as_its_representative_label_graph(seed, shape, n, mode, tau):
    """match() against the partial model reads each element as a node with
    its most frequent label and the model's edge keys, so at every fold it
    aligns the candidate exactly as against that graph."""
    domain, pool = _pool(random.Random(f"model-base/{seed}/{shape}/{n}"), shape, n)
    prof = profile(domain, similarity_mode=mode, tau=tau)
    for i in range(1, len(pool)):
        model = abstract(pool[:i], prof)
        result = match(pool[i], model, prof)
        expected = match(pool[i], _representative_graph(model), prof)
        assert result.node_map == expected.node_map
        assert result.total_cost == expected.total_cost


def test_warm_start_loads_only_the_assignment_extension():
    # A fresh interpreter. A 12-node alignment is at most SMALL_LIMIT nodes,
    # so its warm start runs on the standard library: neither numpy nor
    # scipy loads. A 40-node one (n + m > SMALL_LIMIT) needs scipy's
    # compiled _lsap, but never the scipy.optimize package around it.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                          os.environ.get("PYTHONPATH")]))
    code = (
        "import random, sys\n"
        "from abscon.domains import profile\n"
        "from abscon.matching import SMALL_LIMIT, match\n"
        "from genutil import noisy_candidate, random_flowchart\n"
        "watched = ('numpy', 'scipy', 'scipy.optimize', 'scipy.optimize._lsap')\n"
        "rng = random.Random(4)\n"
        "for n in (12, 40):\n"
        "    truth = random_flowchart(rng, n)\n"
        "    candidate = noisy_candidate(rng, truth, 'flowchart')\n"
        "    result = match(candidate, truth, profile('flowchart'))\n"
        "    assert result.node_map and not result.optimal\n"
        "    size = len(candidate.nodes) + len(truth.nodes)\n"
        "    print(size > SMALL_LIMIT, sorted(m for m in watched if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines() == [
        "False []",
        "True ['numpy', 'scipy.optimize._lsap']",
    ]
