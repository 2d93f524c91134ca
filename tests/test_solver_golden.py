"""Golden regression: solve() selections are pinned, not only objectives.

The hashes were recorded before the branch-and-bound's bound and per-node
bookkeeping were rewritten. solve() returns the first leaf in DFS order with
the best (objective, element count), so any valid bound must return the
same assignment; a hash covers the status, the objective (to 1e-9) and the
sorted selected variables of every instance in its group.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from abscon.abstraction import abstract
from abscon.concretize import INFEASIBLE, OPTIMAL, solve, weights
from abscon.constraints import build_problem
from abscon.domains import profile
from abscon.llm import load_candidates
from genutil import dense_partial_model, random_partial_model
from test_acceptance import _large_partial_model

DATA = Path(__file__).parent / "data"


def _partials(source: str):
    """"random/<domain>" draws 30 seeded random partial models;
    "dense/<domain>" ten seeded dense_partial_model instances of 12-16
    nodes; "fixture/<dir>" abstracts the tests/data pool; "large" is
    acceptance test 9's 50-node flowchart."""
    origin, name = (source.split("/", 1) + [""])[:2]
    if origin == "dense":
        return [dense_partial_model(random.Random(f"solver-effort/{name}/{i}"), name, 12 + i % 5)
                for i in range(10)]
    if origin == "random":
        rng = random.Random(f"solver-golden/{name}")
        return [random_partial_model(rng, name, max_vars=rng.choice([10, 14, 18, 22, 26]))
                for _ in range(30)]
    if origin == "fixture":
        domain = "clevr" if name.startswith("clevr") else "flowchart"
        candidates, _ = load_candidates(DATA / name, profile(domain).notation)
        return [abstract([c.graph for c in candidates], profile(domain))]
    return [_large_partial_model()]


def _fingerprint(partial, domain: str) -> str:
    problem = build_problem(partial, profile(domain))
    problem.weights = weights(partial)
    solution = solve(problem, timeout=60.0)
    assert solution.status in (OPTIMAL, INFEASIBLE)
    selected = sorted(v for v, x in (solution.assignment or {}).items() if x == 1)
    return f"{solution.status}|{solution.objective:.9f}|{','.join(selected)}\n"


GOLDEN = [
    ("random/flowchart", "flowchart",
     "d00f593f7d8e9d8e82df5292b72e4a1753d1b374424f60657c6b10358119d7af"),
    ("random/taxonomy", "taxonomy",
     "71f37aad95ed3ac491c7356223da646b7ff11b5e79c53a6438f5f4e9654b82c5"),
    ("random/clevr", "clevr",
     "3a757a22e99b2de4acccb6efb1c0f1415fe1bd825dffcc436c19bd50f5f4a3d2"),
    ("fixture/fig2_pool", "flowchart",
     "1ff7584a6fc81d62464a21fb8d772f0681fa2b358dc4cff3e9c4ed691ed17101"),
    ("fixture/simple_pool", "flowchart",
     "4404600956705e5dbe962f931df96d672bd706944464873235ac3c7461450cc4"),
    ("fixture/infeasible_pool", "flowchart",
     "ac1456bdac7280cbe5edf500f650244c55c02544d0418a8cbec4e6d5e952c057"),
    ("fixture/clevr/pool_query", "clevr",
     "eacaaa35b8a6180b72b038308313163bfa8830bd879996a842b403cd9d6d4c60"),
    ("large", "flowchart",
     "f6e08e028eb9cbb376f95b1c66b2e1e4d38f72561d42eb22f6fdd7d6d3dd2157"),
    ("dense/clevr", "clevr",
     "234058dd30b7ab67810570c3918f209f534c8a962cce307b1c73b582274e612f"),
]


@pytest.mark.parametrize("source,domain,expected", GOLDEN)
def test_solver_selections_are_pinned(source, domain, expected):
    text = "".join(_fingerprint(p, domain) for p in _partials(source))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
