from __future__ import annotations

import random
from pathlib import Path

import pytest

from abscon.clevr import Count, ExecError
from abscon.constraints import check
from abscon.domains import profile
from abscon.evaluation import (
    RelationTriple,
    Sample,
    _tokenize,
    evaluate_dataset,
    exact_similarity,
    majority_vote,
    relation_triples,
    run_method,
    soft_cardinality,
    soft_prf,
    soft_prf_triples,
    token_overlap,
)
from abscon.graph import ACTIVITY, DECISION, LabeledGraph
from abscon.llm import load_candidates
from abscon.notation import Notation, parse
from genutil import build_graph, clone, random_mermaid_graph, random_scene

DATA = Path(__file__).parent / "data"


def _classical_prf(pred: set, ref: set):
    if not pred and not ref:
        return 1.0, 1.0, 1.0
    if not pred or not ref:
        return 0.0, 0.0, 0.0
    inter = len(pred & ref)
    p = inter / len(pred)
    r = inter / len(ref)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def test_soft_cardinality_reduces_to_cardinality_under_exact_match():
    triples = [RelationTriple(f"s{i}", f"t{i}", "") for i in range(4)]
    assert soft_cardinality(triples, exact_similarity) == 4.0


def test_soft_cardinality_half_similarity():
    e1 = RelationTriple("a", "b", "")
    e2 = RelationTriple("c", "d", "")

    def sim(x, y):
        return 1.0 if x == y else 0.5

    assert soft_cardinality([e1, e2], sim) == pytest.approx(4 / 3, abs=1e-12)


def test_soft_cardinality_empty():
    assert soft_cardinality([], exact_similarity) == 0.0


def test_soft_prf_identical_graphs():
    g = build_graph(
        [("a", "x y", ACTIVITY), ("b", "z w", ACTIVITY)], [("a", "b", "go")]
    )
    assert soft_prf(g, clone(g), exact_similarity) == (1.0, 1.0, 1.0)


def test_soft_prf_half_of_reference():
    ref_triples = {RelationTriple(f"s{i}", f"t{i}", "") for i in range(4)}
    pred_triples = set(sorted(ref_triples)[:2])
    p, r, f1 = soft_prf_triples(pred_triples, ref_triples, exact_similarity)
    assert (p, r) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3)


def test_soft_prf_empty_conventions():
    t = {RelationTriple("a", "b", "")}
    assert soft_prf_triples(set(), set(), exact_similarity) == (1.0, 1.0, 1.0)
    assert soft_prf_triples(set(), t, exact_similarity) == (0.0, 0.0, 0.0)
    assert soft_prf_triples(t, set(), exact_similarity) == (0.0, 0.0, 0.0)


def test_soft_prf_symmetry_swaps_precision_recall():
    rng = random.Random(31)
    for _ in range(20):
        a = random_mermaid_graph(rng, 5)
        b = random_mermaid_graph(rng, 5)
        p1, r1, f1 = soft_prf(a, b, token_overlap)
        p2, r2, f2 = soft_prf(b, a, token_overlap)
        assert p1 == pytest.approx(r2)
        assert r1 == pytest.approx(p2)
        assert f1 == pytest.approx(f2)


def test_exact_soft_prf_equals_classical_on_random_graphs():
    rng = random.Random(37)
    for _ in range(100):
        a = random_mermaid_graph(rng, 6)
        b = random_mermaid_graph(rng, 6)
        pred, ref = relation_triples(a), relation_triples(b)
        assert soft_prf_triples(pred, ref, exact_similarity) == _classical_prf(pred, ref)


def test_exact_intersection_cardinality_bounds():
    rng = random.Random(41)
    for _ in range(50):
        pred = relation_triples(random_mermaid_graph(rng, 6))
        ref = relation_triples(random_mermaid_graph(rng, 6))
        union = sorted(pred | ref)
        inter = (soft_cardinality(sorted(pred), exact_similarity)
                 + soft_cardinality(sorted(ref), exact_similarity)
                 - soft_cardinality(union, exact_similarity))
        assert inter >= 0.0
        assert inter <= min(len(pred), len(ref)) + 1e-12


def test_token_overlap():
    t1 = RelationTriple("check", "stock", "")
    assert token_overlap(t1, t1) == 1.0
    t2 = RelationTriple("pay", "bill", "")
    assert token_overlap(t1, t2) == 0.0
    a = RelationTriple("check", "stock", "")
    b = RelationTriple("check", "order", "")
    assert token_overlap(a, b) == pytest.approx(1 / 3)


def test_default_tokenizer():
    assert _tokenize("Check stock, now!") == ["check", "stock", ",", "now", "!"]


def test_mv_identical_candidates_returns_same_graph():
    g = build_graph(
        [("a", "alpha one", ACTIVITY), ("b", "beta two", ACTIVITY)], [("a", "b", "")]
    )
    out = majority_vote([clone(g), clone(g), clone(g)])
    assert relation_triples(out) == relation_triples(g)


def test_mv_on_fig2_pool_keeps_hallucination_and_fails_check():
    candidates, _ = load_candidates(DATA / "fig2_pool")
    prof = profile("flowchart")
    out = run_method("mv", [c.graph for c in candidates], prof)
    labels = {n.label for n in out.nodes.values()}
    assert "update ledger" in labels  # MV keeps the dangling majority node
    report = check(out, prof)
    assert not report.consistent
    assert any(v.name == "single_source" for v in report.violations)


def test_mv_keeps_majority_isolated_nodes():
    g1 = build_graph([("a", "alpha one", ACTIVITY), ("b", "beta two", ACTIVITY)], [])
    g2 = build_graph([("a", "alpha one", ACTIVITY)], [])
    g3 = build_graph([("a", "alpha one", ACTIVITY)], [])
    out = majority_vote([g1, g2, g3])
    assert {n.label for n in out.nodes.values()} == {"alpha one"}


def test_escf_filters_errors():
    rng = random.Random(5)
    scene = random_scene(rng, 4)
    good = parse("n0: scene()\nn1: count(n0)", Notation.CLEVR_PROGRAM).graph
    bad = LabeledGraph()
    from abscon.clevr import clevr_op

    bad.add_node("", clevr_op("count"))  # missing input: arity error
    prof = profile("clevr")
    answer = run_method("escf", [bad, clone(good), bad], prof, scene=scene)
    assert answer == Count(4)
    esc = run_method("esc", [bad, clone(good), bad], prof, scene=scene)
    assert esc == ExecError("arity")  # errors out-vote the single success
    all_bad = run_method("escf", [bad, bad], prof, scene=scene)
    assert isinstance(all_bad, ExecError)


def test_run_method_greedy_uses_designated_candidate():
    g1 = build_graph([("a", "first one", ACTIVITY)], [])
    g2 = build_graph([("a", "second one", ACTIVITY)], [])
    prof = profile("flowchart")
    assert run_method("greedy", [g1, g2], prof, greedy_index=1) is g2


def test_evaluate_dataset_flowchart_aggregates():
    ref = build_graph(
        [("a", "start", ACTIVITY), ("d", "ok?", DECISION),
         ("b", "ship", ACTIVITY), ("c", "hold", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes"), ("d", "c", "no")],
    )
    samples = [
        Sample("s1", [clone(ref), clone(ref), clone(ref)], reference=clone(ref)),
        Sample("s2", [clone(ref), clone(ref)], reference=clone(ref)),
    ]
    prof = profile("flowchart")
    report = evaluate_dataset(samples, "abscon", prof)
    assert report.consistency_ratio == 1.0
    assert report.mean("f1") == pytest.approx(1.0)
    agg = report.aggregate()
    assert agg["samples"] == 2
    assert agg["precision"] == pytest.approx(1.0)


def test_evaluate_dataset_taxonomy_scores_by_exact_match():
    # Output animal->dog, animal->cat, dog->puppy against reference
    # animal->dog, animal->bird: 1 of 3 relations match exactly, so P = 1/3,
    # R = 1/2 and F1 = 2/5. Token overlap would credit animal->cat too.
    output = parse("animal -> dog\nanimal -> cat\ndog -> puppy\n", Notation.TAXONOMY_EDGES).graph
    reference = parse("animal -> dog\nanimal -> bird\n", Notation.TAXONOMY_EDGES).graph
    sample = Sample("t", [clone(output), clone(output)], reference=reference)
    row = evaluate_dataset([sample], "abscon", profile("taxonomy")).rows[0]
    assert (row.status, row.consistent) == ("ok", True)
    assert (row.precision, row.recall, row.f1) == pytest.approx((1 / 3, 1 / 2, 2 / 5))


def test_evaluate_dataset_counts_inconsistent():
    ok = build_graph([("a", "start here", ACTIVITY), ("b", "stop now", ACTIVITY)],
                     [("a", "b", "")])
    broken = build_graph(
        [("a", "start here", ACTIVITY), ("d", "choice?", DECISION), ("b", "stop now", ACTIVITY)],
        [("a", "d", ""), ("d", "b", "yes")],
    )
    samples = [
        Sample("good", [clone(ok)], reference=clone(ok)),
        Sample("bad", [clone(broken)], reference=clone(ok)),
        Sample("good2", [clone(ok)], reference=clone(ok)),
        Sample("good3", [clone(ok)], reference=clone(ok)),
    ]
    prof = profile("flowchart")
    report = evaluate_dataset(samples, "greedy", prof)
    assert report.consistency_ratio == 0.75


def test_evaluate_clevr_sample_with_gold():
    rng = random.Random(8)
    scene = random_scene(rng, 3)
    prog = parse("n0: scene()\nn1: count(n0)", Notation.CLEVR_PROGRAM).graph
    sample = Sample("q1", [clone(prog), clone(prog)], scene=scene, gold_answer=Count(3))
    prof = profile("clevr")
    report = evaluate_dataset([sample], "abscon", prof)
    row = report.rows[0]
    assert row.executed and row.accurate and row.consistent
    assert report.success_rate == 1.0 and report.accuracy == 1.0


def test_infeasible_counts_as_zero_quality():
    two_cycle = build_graph(
        [("a", "ready?", DECISION), ("b", "retry?", DECISION)],
        [("a", "b", "yes"), ("b", "a", "no")],
    )
    ref = build_graph([("a", "start", ACTIVITY), ("b", "end", ACTIVITY)], [("a", "b", "")])
    sample = Sample("s", [clone(two_cycle)], reference=ref)
    report = evaluate_dataset([sample], "abscon", profile("flowchart"))
    row = report.rows[0]
    assert row.status == "infeasible"
    assert not row.consistent
    assert row.f1 == 0.0
