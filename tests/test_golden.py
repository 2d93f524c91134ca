"""Golden regression: abstract() output is pinned byte for byte.

The hashes were recorded before the matcher's cost construction and local
search were rewritten; any change to a node map changes a partial model and
so its hash. Pools above matching.EXHAUSTIVE_LIMIT nodes exercise the
assignment warm start and local search; the small ones the exact search.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from abscon.abstraction import abstract
from abscon.domains import profile
from abscon.llm import load_candidates
from abscon.notation import Notation
from abscon.similarity import SimilarityMode
from genutil import candidate_pool, random_clevr_program, random_flowchart, random_taxonomy_tree

DATA = Path(__file__).parent / "data"


def _pool(source: str):
    """"fixture/<dir>" loads tests/data/<dir>; "generated/<domain>" draws a
    seeded genutil pool around one truth; "generated/unrelated" draws
    independent flowcharts, so that embedding similarity alone decides."""
    origin, name = source.split("/", 1)
    if origin == "fixture":
        notation = Notation.CLEVR_PROGRAM if name.startswith("clevr/") else Notation.MERMAID_FLOWCHART
        candidates, _ = load_candidates(DATA / name, notation)
        return [c.graph for c in candidates]
    rng = random.Random(f"golden/{name}")
    if name == "flowchart":
        return candidate_pool(rng, random_flowchart(rng, 14), "flowchart", size=6)
    if name == "unrelated":
        return [random_flowchart(rng, rng.randint(7, 12)) for _ in range(5)]
    if name == "taxonomy":
        return candidate_pool(rng, random_taxonomy_tree(rng, 12), "taxonomy", size=5)
    return candidate_pool(rng, random_clevr_program(rng), "clevr", size=4)


GOLDEN = [
    ("generated/flowchart", "flowchart", {},
     "2c74b432c9cdddc1c10c4da1ba18f09138343d99cd652802552f33377e674153"),
    ("generated/flowchart", "flowchart",
     {"similarity_mode": SimilarityMode.EXACT_LABEL, "case_sensitive_labels": True},
     "0e10cf709c0d0b635cd5584849063e1bf86698e33c941076a54480aea23e48c7"),
    ("generated/unrelated", "flowchart", {},
     "5473adc80c86478853c8e0f2db4535bcc5056b4031b6bfe4c1cde75fdd05bb6e"),
    ("generated/unrelated", "flowchart", {"tau": 0.2},
     "6a66d0d94706ff1e5ba77b4138de4ae344d6a7588080dc9b122cc5ab06447939"),
    ("generated/unrelated", "flowchart", {"tau": 1.0},
     "da6c71f1ce33c4629556ee6040384b347ff40ab8edd7627a59555f858f21dc9f"),
    ("generated/taxonomy", "taxonomy", {},
     "dfcda8c960cf25fb6781897fd0f976c6e75cd1acf498c86f7723f0ee34b92a3f"),
    ("generated/clevr", "clevr", {},
     "6ad75bae52ba0cde46689e38e2861696ae2e734a79ea53722236ea9aeae41ac2"),
    ("fixture/fig2_pool", "flowchart", {},
     "8e1214b34a7aa78dfe95f3a0bac4acf16989919b2dc17a8c490853e9a0ee43df"),
    ("fixture/simple_pool", "flowchart", {},
     "822d1cd55e0c3b40be08b12cca8fe9817e4affe14366950a36b71e9346ff3e43"),
    ("fixture/infeasible_pool", "flowchart", {},
     "4d6c7ca4815791731f3f21ec2a76d40ab6cfd0ddec671a421b24f44c25b8e172"),
    ("fixture/clevr/pool_query", "clevr", {},
     "70ca355b270d48ffce45a823397206637e9feb30ce1b04582dada3eaa2b729bd"),
]


@pytest.mark.parametrize("source,domain,overrides,expected", GOLDEN)
def test_partial_model_bytes_are_pinned(source, domain, overrides, expected):
    text = abstract(_pool(source), profile(domain, **overrides)).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
