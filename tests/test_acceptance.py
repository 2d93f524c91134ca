"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""
from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

from abscon.abstraction import abstract
from abscon.clevr import (
    Attr,
    Count,
    ExecError,
    Scene,
    Truth,
    answers_equal,
    execute,
)
from abscon.cli import main as cli_main
from abscon.concretize import (
    INFEASIBLE,
    OPTIMAL,
    brute_force,
    build_problem,
    concretize,
    solve,
    weights,
)
from abscon.constraints import check
from abscon.domains import profile
from abscon.errors import InfeasibleModel
from abscon.evaluation import (
    RelationTriple,
    Sample,
    evaluate_dataset,
    exact_similarity,
    relation_triples,
    soft_cardinality,
    soft_prf_triples,
)
from abscon.graph import ACTIVITY, LabeledGraph
from abscon.llm import load_candidates
from abscon.notation import Notation, parse, serialize
from genutil import (
    build_graph,
    candidate_pool,
    clone,
    graph_signature,
    mlc,
    random_clevr_graph,
    random_clevr_program,
    random_flowchart,
    random_mermaid_graph,
    random_partial_model,
    random_scene,
    random_taxonomy_graph,
    random_taxonomy_tree,
)

DATA = Path(__file__).parent / "data"


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# 1 -------------------------------------------------------------------------


def test_acceptance_1_soundness_on_generated_pools():
    rng = random.Random(101)
    start = time.monotonic()
    checked = infeasible = 0
    failures = []
    plan = [("flowchart", random_flowchart, 100),
            ("taxonomy", random_taxonomy_tree, 50),
            ("clevr", None, 50)]
    for domain, builder, count in plan:
        prof = profile(domain)
        for i in range(count):
            if domain == "clevr":
                truth = random_clevr_program(rng)
            else:
                truth = builder(rng, rng.randint(4, 7))
            pool = candidate_pool(rng, truth, domain, size=3)
            partial = abstract(pool, prof)
            try:
                final = concretize(partial, prof)
            except InfeasibleModel:
                infeasible += 1
                continue
            checked += 1
            if not check(final, prof).consistent:
                failures.append((domain, i))
    elapsed = time.monotonic() - start
    _report(
        "1 soundness",
        not failures and elapsed < 60.0,
        f"{checked} consistent, {infeasible} infeasible, {elapsed:.1f}s",
    )


# 2 -------------------------------------------------------------------------


def test_acceptance_2_solver_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    for domain in ("flowchart", "taxonomy", "clevr"):
        rng = random.Random(sum(map(ord, domain)))
        for i in range(100):
            max_vars = rng.choice([8, 10, 10, 12, 12, 14, 14, 16, 16, 18])
            partial = random_partial_model(rng, domain, max_vars=max_vars)
            problem = build_problem(partial, profile(domain))
            problem.weights = weights(partial)
            fast = solve(problem, timeout=60.0)
            slow = brute_force(problem)
            if fast.status == INFEASIBLE or slow.status == INFEASIBLE:
                if fast.status != slow.status:
                    mismatches.append((domain, i, fast.status, slow.status))
            elif abs(fast.objective - slow.objective) > 1e-9:
                mismatches.append((domain, i, fast.objective, slow.objective))
    elapsed = time.monotonic() - start
    _report(
        "2 oracle equivalence",
        not mismatches and elapsed < 300.0,
        f"300 models, {elapsed:.1f}s" + (f", mismatches: {mismatches[:3]}" if mismatches else ""),
    )


# 3 -------------------------------------------------------------------------


def test_acceptance_3_checker_problem_agreement():
    disagreements = []
    total = 0
    for domain in ("flowchart", "taxonomy", "clevr"):
        rng = random.Random(len(domain))
        prof = profile(domain)
        models = [random_partial_model(rng, domain, max_vars=rng.choice([8, 10, 11]))
                  for _ in range(8)]
        if domain == "flowchart":
            candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
            models.append(abstract([c.graph for c in candidates], prof))
        for partial in models:
            if len(partial.nodes) + len(partial.edges) > 14:
                continue
            problem = build_problem(partial, prof)
            variables = sorted(problem.variables)
            for bits in itertools.product((0, 1), repeat=len(variables)):
                assignment = dict(zip(variables, bits))
                total += 1
                sat = problem.satisfied(assignment)
                graph = problem.induced_graph(assignment)
                ok = graph is not None and check(graph, prof).consistent
                if sat != ok:
                    disagreements.append((domain, assignment))
    _report("3 checker agreement", not disagreements, f"{total} assignments enumerated")


# 4 -------------------------------------------------------------------------


def test_acceptance_4_regression_three_candidate_pool():
    candidates, _ = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    graphs = [c.graph for c in candidates]
    prof = profile("flowchart")
    partial = abstract(graphs, prof)

    halluc = [e for e in partial.nodes.values() if e.label == "Update ledger"]
    ok = len(halluc) == 1 and halluc[0].count == 2

    final = concretize(partial, prof)
    expected = parse((DATA / "fig2_reference.mmd").read_text(), Notation.MERMAID_FLOWCHART).graph
    ok = ok and graph_signature(final) == graph_signature(expected)
    ok = ok and check(final, prof).consistent

    from abscon.evaluation import run_method

    mv_graph = run_method("mv", graphs, prof)
    mv_report = check(mv_graph, prof)
    ok = ok and not mv_report.consistent
    mlc_graph = mlc(partial)
    ok = ok and not check(mlc_graph, prof).consistent
    _report("4 regression pool", ok,
            "abscon == reference, mv and mlc both inconsistent")


# 5 -------------------------------------------------------------------------


def _classical_prf(pred, ref):
    if not pred and not ref:
        return 1.0, 1.0, 1.0
    if not pred or not ref:
        return 0.0, 0.0, 0.0
    inter = len(pred & ref)
    p = inter / len(pred)
    r = inter / len(ref)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def test_acceptance_5_metric_fidelity():
    e1 = RelationTriple("a", "b", "")
    e2 = RelationTriple("c", "d", "")
    card = soft_cardinality([e1, e2], lambda x, y: 1.0 if x == y else 0.5)
    ok = abs(card - 4 / 3) <= 1e-12

    rng = random.Random(55)
    mismatch = 0
    for _ in range(1000):
        a = relation_triples(random_mermaid_graph(rng, 6))
        b = relation_triples(random_mermaid_graph(rng, 6))
        if soft_prf_triples(a, b, exact_similarity) != _classical_prf(a, b):
            mismatch += 1
    _report("5 metric fidelity", ok and mismatch == 0,
            f"card={card!r}, {mismatch} mismatches over 1000 pairs")


# 6 -------------------------------------------------------------------------


def _scene_line(objs):
    objects = [dict(id=i, color=c, shape=s, size=z, material=m)
               for i, (c, s, z, m) in enumerate(objs)]
    n = len(objects)
    relations = {
        "left": [[j for j in range(n) if j < i] for i in range(n)],
        "right": [[j for j in range(n) if j > i] for i in range(n)],
        "front": [[j for j in range(n) if j < i] for i in range(n)],
        "behind": [[j for j in range(n) if j > i] for i in range(n)],
    }
    return Scene.from_json(json.dumps({"objects": objects, "relations": relations}))


S1 = _scene_line([
    ("red", "cube", "small", "rubber"),
    ("blue", "sphere", "large", "metal"),
    ("red", "sphere", "small", "rubber"),
    ("green", "cylinder", "large", "metal"),
    ("red", "cube", "large", "metal"),
])

CLEVR_FIXTURES = [
    ("a: scene()\nb: count(a)", Count(5)),
    ("a: scene()\nb: filter_color[red](a)\nc: count(b)", Count(3)),
    ("a: scene()\nb: filter_color[green](a)\nc: exist(b)", Truth(True)),
    ("a: scene()\nb: filter_color[yellow](a)\nc: exist(b)", Truth(False)),
    ("a: scene()\nb: filter_shape[cylinder](a)\nc: unique(b)\nd: query_color(c)", Attr("green")),
    ("a: scene()\nb: filter_color[blue](a)\nc: unique(b)\nd: query_material(c)", Attr("metal")),
    ("a: scene()\nb: filter_shape[cube](a)\nc: filter_size[small](b)\nd: unique(c)\ne: query_material(d)",
     Attr("rubber")),
    ("a: scene()\nb: filter_color[red](a)\nc: unique(b)", ExecError("non_unique")),
    ("a: scene()\nb: filter_color[blue](a)\nc: unique(b)\nd: relate[left](c)\ne: count(d)", Count(1)),
    ("a: scene()\nb: filter_color[blue](a)\nc: unique(b)\nd: relate[right](c)\ne: count(d)", Count(3)),
    ("a: scene()\nb: filter_color[green](a)\nc: unique(b)\nd: same_size(c)\ne: count(d)", Count(2)),
    ("a: scene()\nb: filter_shape[cube](a)\nc: count(b)\n"
     "d: scene()\ne: filter_shape[sphere](d)\nf: count(e)\ng: equal_integer(c, f)", Truth(True)),
    ("a: scene()\nb: filter_color[green](a)\nc: count(b)\n"
     "d: scene()\ne: filter_color[red](d)\nf: count(e)\ng: less_than(c, f)", Truth(True)),
    ("a: scene()\nb: filter_color[green](a)\nc: count(b)\n"
     "d: scene()\ne: filter_color[red](d)\nf: count(e)\ng: greater_than(c, f)", Truth(False)),
    ("a: scene()\nb: filter_color[red](a)\nc: scene()\nd: filter_shape[cube](c)\n"
     "e: intersect(b, d)\nf: count(e)", Count(2)),
    ("a: scene()\nb: filter_color[blue](a)\nc: scene()\nd: filter_shape[cylinder](c)\n"
     "e: union(b, d)\nf: count(e)", Count(2)),
    ("a: scene()\nb: filter_shape[cylinder](a)\nc: unique(b)\nd: query_color(c)\n"
     "e: scene()\nf: filter_color[blue](e)\ng: unique(f)\nh: query_color(g)\n"
     "i: equal_color(d, h)", Truth(False)),
    ("a: scene()\nb: filter_color[blue](a)\nc: unique(b)\nd: query_material(c)\n"
     "e: scene()\nf: filter_shape[cylinder](e)\ng: unique(f)\nh: query_material(g)\n"
     "i: equal_material(d, h)", Truth(True)),
    ("a: scene()\nb: filter_size[small](a)\nc: filter_material[rubber](b)\nd: count(c)", Count(2)),
    ("a: scene()\nb: filter_color[red](a)\nc: filter_shape[cube](b)\nd: filter_size[large](c)\n"
     "e: unique(d)\nf: query_material(e)", Attr("metal")),
]


def test_acceptance_6_clevr_executor_fixtures():
    assert len(CLEVR_FIXTURES) == 20
    wrong = []
    for i, (text, gold) in enumerate(CLEVR_FIXTURES):
        program = parse(text, Notation.CLEVR_PROGRAM).graph
        answer = execute(program, S1)
        if not answers_equal(answer, gold):
            wrong.append((i, answer, gold))

    # Structurally inconsistent programs: always an ExecError, never a crash.
    from abscon.clevr import clevr_op

    inconsistent = []
    cyc = LabeledGraph()
    a = cyc.add_node("", clevr_op("filter_color", "red"))
    b = cyc.add_node("", clevr_op("filter_color", "blue"))
    cyc.add_edge(a, b, "0")
    cyc.add_edge(b, a, "0")
    inconsistent.append(cyc)

    no_input = LabeledGraph()
    no_input.add_node("", clevr_op("count"))
    inconsistent.append(no_input)

    bad_type = LabeledGraph()
    s = bad_type.add_node("", clevr_op("scene"))
    q = bad_type.add_node("", clevr_op("query_color"))
    bad_type.add_edge(s, q, "0")
    inconsistent.append(bad_type)

    two_sinks = LabeledGraph()
    s2 = two_sinks.add_node("", clevr_op("scene"))
    c1 = two_sinks.add_node("", clevr_op("count"))
    c2 = two_sinks.add_node("", clevr_op("exist"))
    two_sinks.add_edge(s2, c1, "0")
    two_sinks.add_edge(s2, c2, "0")
    inconsistent.append(two_sinks)

    bad_pos = LabeledGraph()
    s3 = bad_pos.add_node("", clevr_op("scene"))
    lt = bad_pos.add_node("", clevr_op("less_than"))
    bad_pos.add_edge(s3, lt, "5")
    inconsistent.append(bad_pos)

    rng = random.Random(66)
    prof = profile("clevr")
    not_error = []
    for i, g in enumerate(inconsistent):
        assert not check(g, prof).consistent
        answer = execute(g, S1)
        if not isinstance(answer, ExecError):
            not_error.append(i)
    # a fuzz pass over arbitrary op graphs: execute must never raise
    for _ in range(200):
        g = random_clevr_graph(rng, 6)
        execute(g, random_scene(rng, 4))

    _report("6 clevr executor", not wrong and not not_error,
            f"20/20 gold answers, {len(inconsistent)} inconsistent programs -> ExecError")


# 7 -------------------------------------------------------------------------


def _ordering_fixture(seed: int, n_samples: int = 20):
    rng = random.Random(seed)
    samples = []
    for i in range(n_samples):
        truth = random_flowchart(rng, rng.randint(4, 6))
        pool = [clone(truth) for _ in range(5)]
        leaf = sorted(truth.nodes)[-1]
        for k in range(3):  # dangling hallucination in a strict majority
            phantom = pool[k].add_node("ghost step", ACTIVITY)
            pool[k].add_edge(phantom, leaf, "")
        for k in (3, 4):  # minority recall noise: drop one edge
            g = pool[k]
            if g.edges:
                victim = rng.randrange(len(g.edges))
                edges = [e for j, e in enumerate(g.edges) if j != victim]
                rebuilt = build_graph(
                    [(n.id, n.label, n.kind) for n in g.nodes.values()],
                    [(e.source, e.target, e.label) for e in edges],
                )
                pool[k] = rebuilt
        rng.shuffle(pool)
        samples.append(Sample(f"s{i}", pool, reference=truth))
    return samples


def test_acceptance_7_baseline_ordering():
    samples = _ordering_fixture(seed=202)
    prof = profile("flowchart")
    abscon_report = evaluate_dataset(samples, "abscon", prof)
    mv_report = evaluate_dataset(samples, "mv", prof)
    cr = abscon_report.consistency_ratio
    f1_abscon = abscon_report.mean("f1")
    f1_mv = mv_report.mean("f1")
    ok = cr == 1.0 and f1_abscon >= f1_mv
    _report("7 baseline ordering", ok,
            f"abscon CR={cr:.2f} F1={f1_abscon:.3f} vs mv CR={mv_report.consistency_ratio:.2f} "
            f"F1={f1_mv:.3f}")


# 8 -------------------------------------------------------------------------


def test_acceptance_8_round_trip():
    plan = [
        (Notation.MERMAID_FLOWCHART, random_mermaid_graph),
        (Notation.TAXONOMY_EDGES, random_taxonomy_graph),
        (Notation.CLEVR_PROGRAM, random_clevr_graph),
    ]
    failures = 0
    for notation, generator in plan:
        rng = random.Random(880 + hash(notation.value) % 1000)
        for _ in range(1000):
            g = generator(rng)
            back = parse(serialize(g, notation), notation).graph
            if graph_signature(back) != graph_signature(g):
                failures += 1
    _report("8 round trip", failures == 0, "3000 graphs")


# 9 -------------------------------------------------------------------------


def _large_partial_model():
    rng = random.Random(909)
    backbone = random_flowchart(rng, 50)
    prof = profile("flowchart")
    partial = abstract([backbone], prof)
    partial.n_candidates = 3
    for elem in list(partial.nodes.values()) + list(partial.edges.values()):
        for label in elem.labels:
            elem.labels[label] = 3
    from collections import Counter

    from abscon.abstraction import PartialElement

    node_ids = sorted(partial.nodes)
    for i in range(5):  # dangling majority hallucinations
        nid = partial.new_node(f"ghost work {i}", ACTIVITY)
        partial.nodes[nid].labels = Counter({f"ghost work {i}": 2})
        target = node_ids[-(i + 1)]
        partial.edges[(nid, target, "")] = PartialElement(Counter({"": 2}))
    while len(partial.edges) < 80:  # minority edge noise
        src, tgt = rng.sample(node_ids, 2)
        if partial.nodes[src].kind is not ACTIVITY:
            continue
        key = (src, tgt, "")
        if key in partial.edges:
            continue
        partial.edges[key] = PartialElement(Counter({"": 1}))
    return partial


def test_acceptance_9_performance_envelope():
    partial = _large_partial_model()
    assert len(partial.nodes) >= 50 and len(partial.edges) >= 80
    prof = profile("flowchart")
    problem = build_problem(partial, prof)
    problem.weights = weights(partial)
    start = time.monotonic()
    solution = solve(problem, timeout=10.0)
    elapsed = time.monotonic() - start
    ok = solution.status in (OPTIMAL, INFEASIBLE) and elapsed < 10.0
    if solution.status == OPTIMAL:
        graph = problem.induced_graph(solution.assignment)
        ok = ok and check(graph, prof).consistent
        ok = ok and not any(n.label.startswith("ghost") for n in graph.nodes.values())
    _report("9 performance", ok,
            f"{len(partial.nodes)} nodes / {len(partial.edges)} edges, "
            f"{solution.status} in {elapsed:.2f}s")


# 10 ------------------------------------------------------------------------


def test_acceptance_10_replay_determinism(tmp_path):
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["pipeline", "--domain", "flowchart",
                         "--candidates", str(DATA / "fig2_pool"), "--out", str(out)])
        assert code == 0
        outputs.append(tuple(
            (out / f).read_bytes() for f in ("final.mmd", "report.json", "partial.json")
        ))
    _report("10 replay determinism", outputs[0] == outputs[1], "byte-identical outputs")
