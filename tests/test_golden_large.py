"""Golden regression at benchmark scale: abstract() bytes on large pools.

test_golden.py pins pools of at most 14 nodes. These pools are shaped like
the benchmark's pools-large inputs (60- and 100-node flowcharts and
taxonomies, 8 to 12 candidates), so the bipartite warm start and the local
search's remap and swap moves run on partial models of a hundred nodes and
more. The hashes were recorded before the local search was rescored from
indexes; any change to a node map changes a partial model and so its hash.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from abscon.abstraction import abstract
from abscon.domains import profile
from genutil import candidate_pool, random_flowchart, random_taxonomy_tree


def _pool(name: str):
    """"<domain>-<nodes>x<size>" draws a seeded genutil pool around one truth;
    "unrelated-<nodes>x<size>" draws independent flowcharts, so that
    embedding similarity alone decides."""
    shape, dims = name.split("-")
    n, size = (int(x) for x in dims.split("x"))
    rng = random.Random(f"golden-large/{name}")
    if shape == "flowchart":
        return candidate_pool(rng, random_flowchart(rng, n), "flowchart", size=size)
    if shape == "taxonomy":
        return candidate_pool(rng, random_taxonomy_tree(rng, n), "taxonomy", size=size)
    return [random_flowchart(rng, n) for _ in range(size)]


GOLDEN_LARGE = [
    ("flowchart-60x12", "flowchart", {},
     "ec2f201c8025b46dfa26e0957caeb1a0daf99df12b652f31a85cecda18696d4b"),
    ("flowchart-100x10", "flowchart", {"tau": 0.2},
     "eb3c443637b7e54d64d1764a22dd8a08349d670f3c6e00d008d351f607da8eda"),
    ("taxonomy-100x10", "taxonomy", {},
     "f78cdbfcaecf7a8228208ca885919801b3b026b076f3eafa4892f428889c248f"),
    ("unrelated-60x8", "flowchart", {"tau": 0.2},
     "a62f9048e939f36571ed5d1d3ed2c4882cef215ca7ff40884d7915c0fa5e89f4"),
]


@pytest.mark.parametrize("source,domain,overrides,expected", GOLDEN_LARGE)
def test_large_partial_model_bytes_are_pinned(source, domain, overrides, expected):
    text = abstract(_pool(source), profile(domain, **overrides)).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
