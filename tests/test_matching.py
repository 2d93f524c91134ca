from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from abscon.domains import profile
from abscon.errors import TooLarge
from abscon.graph import ACTIVITY, DECISION, LabeledGraph
from abscon.matching import (
    EXHAUSTIVE_LIMIT,
    _assignment_start,
    _Instance,
    match,
    sub_matrix,
)
from genutil import build_graph, exhaustive_match, random_mermaid_graph

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
            sim = 1.0 - sub_matrix([a.nodes[c]], [b.nodes[base_id]], FLOWCHART)[0, 0]
            assert sim >= FLOWCHART.tau


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


def test_zero_match_timeout_keeps_the_warm_start(monkeypatch):
    # On this pair the local search improves on the assignment warm start.
    rng = random.Random(27)
    a = random_mermaid_graph(rng, max_nodes=10)
    b = random_mermaid_graph(rng, max_nodes=10)
    assert max(len(a.nodes), len(b.nodes)) > EXHAUSTIVE_LIMIT
    rushed = profile("flowchart", match_timeout=0.0)
    start = _assignment_start(_Instance(a, b, rushed))
    with monkeypatch.context() as patch:
        moves = []
        patch.setattr(_Instance, "move_delta", lambda self, *args: moves.append(args) or 0.0)
        result = match(a, b, rushed)
    assert result.node_map == start
    assert moves == []  # _refine ran no round
    assert match(a, b, FLOWCHART).total_cost < result.total_cost


def test_warm_start_loads_only_the_assignment_extension():
    # A fresh interpreter: a 12-node alignment takes the assignment warm
    # start, which needs scipy's compiled _lsap but not scipy.optimize.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                          os.environ.get("PYTHONPATH")]))
    code = (
        "import random, sys\n"
        "from abscon.domains import profile\n"
        "from abscon.matching import match\n"
        "from genutil import noisy_candidate, random_flowchart\n"
        "rng = random.Random(4)\n"
        "truth = random_flowchart(rng, 12)\n"
        "result = match(noisy_candidate(rng, truth, 'flowchart'), truth, profile('flowchart'))\n"
        "assert result.node_map\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.optimize._lsap') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "['scipy.optimize._lsap']"
