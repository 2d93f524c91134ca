from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from abscon.abstraction import PartialModel, abstract
from abscon.concretize import (
    INFEASIBLE,
    OPTIMAL,
    TIMED_OUT_BEST,
    brute_force,
    concretize,
    solve,
    solve_partial,
    weights,
)
from abscon.constraints import build_problem, check, edge_var, node_var
from abscon.domains import profile
from abscon.errors import InfeasibleModel, TooLarge
from abscon.graph import ACTIVITY, DECISION, LabeledGraph
from abscon.llm import load_candidates
from abscon.notation import Notation, serialize
from genutil import build_graph, dense_partial_model, graph_signature, random_partial_model

from pathlib import Path

DATA = Path(__file__).parent / "data"


def _prepared(partial, domain):
    prof = profile(domain)
    problem = build_problem(partial, prof)
    problem.weights = weights(partial)
    return problem, prof


def test_weight_clamping_at_unanimous():
    g = build_graph([("a", "start here", ACTIVITY)], [])
    partial = abstract([g] * 10, profile("flowchart"))
    (var, w), = weights(partial).items()
    assert w == pytest.approx(math.log(19), abs=1e-9)  # P clamped to 0.95


def test_weight_zero_at_half():
    g1 = build_graph([("a", "alpha beta", ACTIVITY), ("b", "gamma delta", ACTIVITY)], [])
    g2 = build_graph([("a", "alpha beta", ACTIVITY), ("b", "other thing", ACTIVITY)], [])
    partial = abstract([g1, g2], profile("flowchart"))
    w = weights(partial)
    halves = [w[f"n:{i}"] for i, e in partial.nodes.items() if e.count == 1]
    assert halves and all(x == pytest.approx(0.0) for x in halves)


def test_weight_one_third_of_three():
    g1 = build_graph([("a", "alpha beta", ACTIVITY), ("b", "unique one", ACTIVITY)], [])
    g2 = build_graph([("a", "alpha beta", ACTIVITY)], [])
    g3 = build_graph([("a", "alpha beta", ACTIVITY)], [])
    partial = abstract([g1, g2, g3], profile("flowchart"))
    w = weights(partial)
    minority = [w[f"n:{i}"] for i, e in partial.nodes.items() if e.count == 1]
    assert minority == [pytest.approx(-math.log(2), abs=1e-9)]


def test_solve_all_positive_and_feasible_selects_everything():
    g = build_graph(
        [("a", "start work", ACTIVITY), ("b", "finish work", ACTIVITY)],
        [("a", "b", "")],
    )
    partial = abstract([g, g, g], profile("flowchart"))
    problem, _ = _prepared(partial, "flowchart")
    solution = solve(problem)
    assert solution.status == OPTIMAL
    assert all(v == 1 for v in solution.assignment.values())


def test_fig2_concretization_excludes_hallucination():
    candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    prof = profile("flowchart")
    partial = abstract([c.graph for c in candidates], prof)
    final = concretize(partial, prof)
    labels = {n.label for n in final.nodes.values()}
    assert labels == {"Receive order", "In stock?", "Ship order",
                      "Reorder stock", "Notify customer"}
    assert "Update ledger" not in labels
    assert check(final, prof).consistent
    edge_labels = sorted(
        (final.nodes[e.source].label, final.nodes[e.target].label, e.label)
        for e in final.edges
    )
    assert edge_labels == [
        ("In stock?", "Reorder stock", "no"),
        ("In stock?", "Ship order", "yes"),
        ("Receive order", "In stock?", ""),
        ("Reorder stock", "Notify customer", ""),
        ("Ship order", "Notify customer", ""),
    ]


def test_infeasible_decision_two_cycles():
    # Every candidate is a 2-cycle of decisions: each decision can reach at
    # most one outgoing arm, so no selection satisfies the minimum of two.
    def two_cycle():
        return build_graph(
            [("a", "ready?", DECISION), ("b", "retry?", DECISION)],
            [("a", "b", "yes"), ("b", "a", "no")],
        )

    prof = profile("flowchart")
    partial = abstract([two_cycle(), two_cycle(), two_cycle()], prof)
    problem, _ = _prepared(partial, "flowchart")
    assert brute_force(problem).status == INFEASIBLE
    assert solve(problem).status == INFEASIBLE
    with pytest.raises(InfeasibleModel):
        concretize(partial, prof)


def test_clevr_without_scene_is_infeasible():
    from abscon.clevr import clevr_op

    g = LabeledGraph()
    c = g.add_node("", clevr_op("count"))
    e = g.add_node("", clevr_op("exist"))
    g.add_edge(c, e, "0")
    prof = profile("clevr")
    partial = abstract([g], prof)
    with pytest.raises(InfeasibleModel):
        concretize(partial, prof)


def test_clevr_non_operation_node_and_its_edges_are_fixed_to_0():
    # A partial.json may hold a node of any kind; in clevr only operations
    # take part, so a concept between scene and count is left out.
    def node(elem_id, kind, label):
        return {"id": elem_id, "kind": kind, "count": 3, "labels": {label: 3}}

    def edge(source, target):
        return {"source": source, "target": target, "count": 3, "labels": {"0": 3}}

    partial = PartialModel.from_json(json.dumps({
        "n_candidates": 3,
        "nodes": [node("p0", {"kind": "clevr_op", "op": "scene"}, "scene"),
                  node("p1", {"kind": "clevr_op", "op": "count"}, "count"),
                  node("p2", {"kind": "concept"}, "stray")],
        "edges": [edge("p0", "p1"), edge("p0", "p2"), edge("p2", "p1")],
    }))
    prof = profile("clevr")
    stray = [node_var("p2"), edge_var(("p0", "p2", "0")), edge_var(("p2", "p1", "0"))]
    assert {v: build_problem(partial, prof).fixed.get(v) for v in stray} == dict.fromkeys(stray, 0)
    solution = solve_partial(partial, prof)
    assert solution.status == OPTIMAL
    assert check(solution.graph, prof).consistent
    assert sorted(n.kind.op for n in solution.graph.nodes.values()) == ["count", "scene"]
    assert len(solution.graph.edges) == 1


# With no time to spend, the solver stops at its first deadline check, at
# search node 128, whatever the machine's speed. The 15-node model has a
# selection by then (it takes 3,916 nodes to prove); the 30-node one has none.
@pytest.mark.parametrize("n, seed, selected", [(15, 1, True), (30, 0, False)])
def test_solve_partial_keeps_a_timed_out_status(n, seed, selected):
    prof = profile("taxonomy")
    partial = dense_partial_model(random.Random(seed), "taxonomy", n)
    solution = solve_partial(partial, prof, solve_timeout=0)
    assert (solution.status, solution.nodes_explored) == (TIMED_OUT_BEST, 128)
    assert (solution.assignment is not None) == (solution.graph is not None) == selected
    if selected:
        assert check(solution.graph, prof).consistent
        final = concretize(partial, prof, solve_timeout=0)
        assert serialize(final, prof.notation) == serialize(solution.graph, prof.notation)
        assert solve_partial(partial, prof).status == OPTIMAL
    else:
        with pytest.raises(InfeasibleModel, match="timed out"):
            concretize(partial, prof, solve_timeout=0)


def test_solve_partial_keeps_proven_statuses():
    prof = profile("flowchart")
    candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    partial = abstract([c.graph for c in candidates], prof)
    solution = solve_partial(partial, prof)
    assert solution.status == OPTIMAL and solution.nodes_explored > 0
    assert serialize(solution.graph, prof.notation) == serialize(concretize(partial, prof),
                                                                 prof.notation)
    candidates, _ = load_candidates(DATA / "infeasible_pool", Notation.MERMAID_FLOWCHART)
    solution = solve_partial(abstract([c.graph for c in candidates], prof), prof)
    assert (solution.status, solution.assignment, solution.graph) == (INFEASIBLE, None, None)


def test_single_consistent_candidate_round_trips():
    g = build_graph(
        [("a", "receive order", ACTIVITY), ("d", "in stock?", DECISION),
         ("b", "ship order", ACTIVITY), ("c", "reorder stock", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes"), ("d", "c", "no")],
    )
    prof = profile("flowchart")
    final = concretize(abstract([g], prof), prof)
    assert graph_signature(final) == graph_signature(g)


def test_brute_force_too_large():
    rng = random.Random(2)
    partial = random_partial_model(rng, "flowchart", max_vars=14)
    problem, _ = _prepared(partial, "flowchart")
    for i in range(21 - len(problem.variables)):
        partial.new_node(f"pad label {i}", ACTIVITY)
    problem, _ = _prepared(partial, "flowchart")
    assert len(problem.variables) >= 21
    with pytest.raises(TooLarge):
        brute_force(problem)


@pytest.mark.parametrize("domain", ["flowchart", "taxonomy", "clevr"])
def test_solver_matches_oracle_on_random_models(domain):
    rng = random.Random(hash(domain) % 100000)
    for i in range(25):
        partial = random_partial_model(rng, domain, max_vars=12)
        problem, _ = _prepared(partial, domain)
        fast = solve(problem, timeout=30.0)
        slow = brute_force(problem)
        assert fast.status != "timed_out_best"
        assert (fast.assignment is None) == (slow.assignment is None), (domain, i)
        if fast.assignment is not None:
            assert fast.objective == pytest.approx(slow.objective, abs=1e-9), (domain, i)
            assert problem.satisfied(fast.assignment)


def bce_objective(partial, assignment: dict[str, int]) -> float:
    """The cross-entropy objective itself, with each probability count / n
    clamped to [1/(2n), 1 - 1/(2n)] as weights() clamps it."""
    n = partial.n_candidates
    total = 0.0
    items = [(node_var(i), e) for i, e in partial.nodes.items()]
    items += [(edge_var(k), e) for k, e in partial.edges.items()]
    for var, elem in items:
        p = min(max(elem.count / n, 1 / (2 * n)), 1 - 1 / (2 * n))
        x = assignment.get(var, 0)
        total += x * math.log(p) + (1 - x) * math.log(1.0 - p)
    return total


def test_objective_ranking_matches_bce():
    rng = random.Random(9)
    partial = random_partial_model(rng, "flowchart", max_vars=8)
    problem, _ = _prepared(partial, "flowchart")
    variables = sorted(problem.variables)
    scored = []
    for bits in itertools.product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        logit_sum = sum(problem.weights[v] * x for v, x in assignment.items())
        scored.append((logit_sum, bce_objective(partial, assignment)))
    scored.sort()
    for (l1, b1), (l2, b2) in zip(scored, scored[1:]):
        if l2 - l1 > 1e-9:
            assert b2 - b1 > 0
        elif l2 - l1 < 1e-12:
            assert abs(b2 - b1) < 1e-9


def test_concretize_output_always_checks(tmp_path):
    rng = random.Random(13)
    prof = profile("flowchart")
    from genutil import candidate_pool, random_flowchart

    for _ in range(10):
        truth = random_flowchart(rng, 5)
        pool = candidate_pool(rng, truth, "flowchart", size=3)
        try:
            final = concretize(abstract(pool, prof), prof)
        except InfeasibleModel:
            continue
        assert check(final, prof).consistent


def test_solve_path_does_not_import_numpy():
    # A fresh interpreter: build, solve, materialize, check and serialize run
    # in pure Python, so a caller that only solves does not pay numpy's
    # import (about 14 MB resident).
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                          os.environ.get("PYTHONPATH")]))
    code = (
        "import random, sys\n"
        "from abscon import build_problem, check, profile, serialize, solve, weights\n"
        "from genutil import dense_partial_model\n"
        "prof = profile('flowchart')\n"
        "partial = dense_partial_model(random.Random(1), 'flowchart', 8)\n"
        "problem = build_problem(partial, prof)\n"
        "problem.weights = weights(partial)\n"
        "graph = problem.induced_graph(solve(problem).assignment)\n"
        "assert check(graph, prof).consistent\n"
        "serialize(graph, prof.notation)\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_dense_partial_model_rejects_too_few_nodes():
    # A 3-node taxonomy has 6 distinct edges, fewer than the 9 asked for;
    # without the check the generator would draw edges forever.
    with pytest.raises(ValueError):
        dense_partial_model(random.Random(0), "taxonomy", 3)
