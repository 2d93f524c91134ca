from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.abstraction import abstract
from abscon.clevr import clevr_op
from abscon.concretize import brute_force, solve, weights
from abscon.constraints import build_problem, check
from abscon.domains import profile
from abscon.errors import UnknownDomain
from abscon.graph import ACTIVITY, CONCEPT, DECISION, LabeledGraph
from genutil import (
    build_graph,
    candidate_pool,
    random_clevr_program,
    random_flowchart,
    random_partial_model,
    random_taxonomy_tree,
)


def _partial_from(graphs, domain):
    return abstract(graphs, profile(domain))


def test_build_problem_two_node_flowchart():
    g = build_graph(
        [("a", "start work", ACTIVITY), ("b", "finish work", ACTIVITY)],
        [("a", "b", "")],
    )
    partial = _partial_from([g, g], "flowchart")  # two candidates: positive weights
    problem = build_problem(partial, profile("flowchart"))
    problem.weights = weights(partial)
    assert len(problem.variables) == 3
    assert problem.global_rules == ("single_source", "reachable_from_source")
    assert any(c.name == "at_least_one_node" for c in problem.linear)

    # An edge needs both endpoints by rule, not by an edge <= endpoint row.
    ((evar, edge),) = problem.edges.items()
    ends = {(-1, edge.source), (-1, edge.target)}
    assert not [c for c in problem.linear
                if len(c.terms) == 2 and (1, evar) in c.terms and ends & set(c.terms)]
    everything = {v: 1 for v in problem.variables}
    assert problem.satisfied(everything)
    for end in (edge.source, edge.target):
        assert not problem.satisfied(dict(everything, **{end: 0}))
    fast, slow = solve(problem), brute_force(problem)
    assert (fast.status, fast.assignment) == (slow.status, slow.assignment)
    assert fast.objective == pytest.approx(slow.objective, abs=1e-9)


def test_flowchart_decision_rules():
    g = build_graph(
        [("a", "start", ACTIVITY), ("d", "ok?", DECISION), ("b", "stop", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes"), ("d", "a", ""), ("d", "d", "loop")],
    )
    problem = build_problem(_partial_from([g], "flowchart"), profile("flowchart"))
    min_out = [c for c in problem.linear if c.name == "decision_min_out"]
    assert len(min_out) == 1
    fixed_edges = {v for v, val in problem.fixed.items() if val == 0}
    assert len(fixed_edges) == 2  # the self-loop and the unlabeled decision arm


def test_taxonomy_self_loop_fixed_to_zero():
    g = LabeledGraph()
    a = g.add_node("animal", CONCEPT)
    b = g.add_node("dog", CONCEPT)
    g.add_edge(a, b, "")
    g.add_edge(b, b, "")
    problem = build_problem(_partial_from([g], "taxonomy"), profile("taxonomy"))
    self_loops = [
        v for v, e in problem.edges.items() if e.source == e.target
    ]
    assert self_loops and all(problem.fixed.get(v) == 0 for v in self_loops)


def test_clevr_type_incompatible_edge_fixed():
    g = LabeledGraph()
    s = g.add_node("", clevr_op("scene"))
    c = g.add_node("", clevr_op("count"))
    f = g.add_node("", clevr_op("filter_color", "red"))
    g.add_edge(s, c, "0")
    g.add_edge(c, f, "0")  # Count output feeding an ObjectSet input
    problem = build_problem(_partial_from([g], "clevr"), profile("clevr"))
    bad = [v for v, e in problem.edges.items()
           if problem.nodes[e.source].kind.op == "count"]
    assert bad and all(problem.fixed.get(v) == 0 for v in bad)


def test_unknown_domain():
    g = build_graph([("a", "x", ACTIVITY)], [])
    partial = _partial_from([g], "flowchart")
    with pytest.raises(UnknownDomain):
        build_problem(partial, profile("flowchart", name="mindmap"))


def test_check_consistent_flowchart():
    g = build_graph(
        [("a", "start", ACTIVITY), ("d", "ok?", DECISION),
         ("b", "ship", ACTIVITY), ("c", "hold", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes"), ("d", "c", "no")],
    )
    report = check(g, profile("flowchart"))
    assert report.consistent
    assert report.violations == []


def test_check_decision_single_exit():
    g = build_graph(
        [("a", "start", ACTIVITY), ("d", "ok?", DECISION), ("b", "done", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes")],
    )
    report = check(g, profile("flowchart"))
    assert not report.consistent
    names = {v.name: v for v in report.violations}
    assert "decision_min_out" in names
    assert names["decision_min_out"].witnesses == ("d",)


def test_check_flowchart_violation_names():
    g = build_graph(
        [("a", "start", ACTIVITY), ("b", "loose end", ACTIVITY),
         ("c", "finish", ACTIVITY), ("d", "ok?", DECISION)],
        [("a", "d", ""), ("d", "c", ""), ("d", "d", "x")],
    )
    report = check(g, profile("flowchart"))
    names = {v.name for v in report.violations}
    assert {"single_source", "no_self_loop", "decision_edge_condition"} <= names


def test_check_taxonomy_two_roots():
    g = build_graph(
        [("a", "animal", CONCEPT), ("b", "plant", CONCEPT), ("c", "dog", CONCEPT)],
        [("a", "c", "")],
    )
    report = check(g, profile("taxonomy"))
    assert not report.consistent
    names = {v.name: v for v in report.violations}
    assert names["single_root"].witnesses == ("a", "b")


def test_check_taxonomy_cycle_and_multi_parent():
    g = build_graph(
        [("a", "animal", CONCEPT), ("b", "dog", CONCEPT), ("c", "pet", CONCEPT)],
        [("a", "b", ""), ("c", "b", ""), ("b", "c", "")],
    )
    report = check(g, profile("taxonomy"))
    names = {v.name for v in report.violations}
    assert "acyclic" in names
    assert "single_parent" in names


def test_check_taxonomy_rootless_cycle_is_unreachable():
    # a -> b plus a rootless cycle c <-> d
    g = build_graph(
        [("a", "animal", CONCEPT), ("b", "dog", CONCEPT),
         ("c", "rock", CONCEPT), ("d", "granite", CONCEPT)],
        [("a", "b", ""), ("c", "d", ""), ("d", "c", "")],
    )
    names = {v.name: v.witnesses for v in check(g, profile("taxonomy")).violations}
    assert names["reachable_from_root"] == ("c", "d")
    assert "acyclic" in names  # which an unreachable node always comes with here


def test_check_empty_graph_inconsistent_everywhere():
    g = LabeledGraph()
    for domain in ("flowchart", "taxonomy", "clevr"):
        assert not check(g, profile(domain)).consistent


def test_check_clevr_valid_program():
    g = LabeledGraph()
    s = g.add_node("", clevr_op("scene"))
    f = g.add_node("", clevr_op("filter_color", "red"))
    e = g.add_node("", clevr_op("exist"))
    g.add_edge(s, f, "0")
    g.add_edge(f, e, "0")
    assert check(g, profile("clevr")).consistent


def test_check_clevr_violations():
    g = LabeledGraph()
    s = g.add_node("", clevr_op("scene"))
    u = g.add_node("", clevr_op("unique"))
    q = g.add_node("", clevr_op("query_color"))
    lt = g.add_node("", clevr_op("less_than"))
    g.add_edge(s, u, "0")
    g.add_edge(u, q, "0")
    g.add_edge(q, lt, "0")  # Attr feeding a Count slot
    report = check(g, profile("clevr"))
    names = {v.name for v in report.violations}
    assert "arg_type" in names
    assert "arity" in names  # less_than is missing its second argument


# ---------------------------------------------------------------------------
# Solver-side problem semantics agree with the concrete-graph checker.


@pytest.mark.parametrize("domain,builder", [
    ("flowchart", random_flowchart),
    ("taxonomy", random_taxonomy_tree),
    pytest.param("clevr", lambda rng, n: random_clevr_program(rng), id="clevr-random_clevr_program"),
])
def test_problem_checker_agreement_small(domain, builder):
    rng = random.Random(17)
    prof = profile(domain)
    for _ in range(4):
        truth = builder(rng, 3)
        pool = candidate_pool(rng, truth, domain, size=3)
        partial = abstract(pool, prof)
        if partial.size() > 11:
            continue
        problem = build_problem(partial, prof)
        variables = sorted(problem.variables)
        for bits in itertools.product((0, 1), repeat=len(variables)):
            assignment = dict(zip(variables, bits))
            lhs = problem.satisfied(assignment)
            graph = problem.induced_graph(assignment)
            rhs = graph is not None and check(graph, prof).consistent
            assert lhs == rhs, (domain, assignment)


@pytest.mark.parametrize("domain", ["flowchart", "taxonomy", "clevr"])
def test_every_problem_states_the_shared_rules(domain):
    rng = random.Random(domain)
    for _ in range(20):
        problem = build_problem(random_partial_model(rng, domain), profile(domain))
        assert problem.global_rules[:2] == ("single_source", "reachable_from_source")
        assert len(set(problem.global_rules)) == len(problem.global_rules)
        assert [c.name for c in problem.linear].count("at_least_one_node") == 1
        loops = [v for v, e in problem.edges.items() if e.source == e.target]
        assert all(problem.fixed.get(v) == 0 for v in loops)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), domain=st.sampled_from(["taxonomy", "clevr"]))
def test_rules_left_out_of_the_encoding_are_implied(seed, domain):
    # The encoding relies on these: an acyclic graph with one source reaches
    # every node from it, arity gives every op but scene a parent, and with
    # one parent each and one root a taxonomy's cycles are unreachable.
    rng = random.Random(seed)
    partial = random_partial_model(rng, domain)
    g = LabeledGraph()
    for elem_id, elem in partial.nodes.items():
        if rng.random() < 0.8:
            g.add_node(elem.representative_label, elem.kind, node_id=elem_id)
    for (src, tgt, _), elem in partial.edges.items():
        if src in g.nodes and tgt in g.nodes and rng.random() < 0.8:
            g.add_edge(src, tgt, elem.representative_label)
    names = {v.name for v in check(g, profile(domain)).violations}
    if names & {"reachable_from_root", "reachable_from_source"}:
        assert names & {"acyclic", "single_root", "single_source"}, names
    if "source_is_scene" in names:
        assert "arity" in names, names
    if domain == "taxonomy" and "acyclic" in names:
        assert names & {"single_root", "single_parent", "reachable_from_root"}, names


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), domain=st.sampled_from(["flowchart", "taxonomy", "clevr"]),
       max_vars=st.integers(3, 12))
def test_recorded_degree_limits_hold_in_every_satisfying_assignment(seed, domain, max_vars):
    # The solver's bound reads each node's degree limits from the problem,
    # so they must hold wherever satisfied() does; and every degree row
    # records its node's limits.
    problem = build_problem(random_partial_model(random.Random(seed), domain, max_vars), profile(domain))
    degree_rows = [c for c in problem.linear if c.name in ("decision_min_out", "single_parent", "arity")]
    limited = {v: nv for v, nv in problem.nodes.items() if (nv.min_in, nv.max_in, nv.min_out) != (0, None, 0)}
    assert {c.terms[-1][1] for c in degree_rows} == set(limited)
    variables = sorted(problem.variables)
    for bits in itertools.product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if not problem.satisfied(assignment):
            continue
        edges = [e for v, e in problem.edges.items() if assignment[v]]
        for var, nv in limited.items():
            if not assignment[var]:
                continue
            n_in = sum(e.target == var for e in edges)
            n_out = sum(e.source == var for e in edges)
            assert nv.min_in <= n_in and n_out >= nv.min_out, (nv, n_in, n_out)
            assert nv.max_in is None or n_in <= nv.max_in, (nv, n_in)
