"""Properties of the array-built matcher.

- Every entry of the similarity and substitution matrices equals the 1 x 1
  matrix for that pair, and follows the scalar rule (kind, normalized label,
  clipped cosine).
- The local search's move delta equals the change in the full mapping cost.
- One heuristic alignment makes at most one embedding request.
"""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.clevr import clevr_op
from abscon.domains import profile
from abscon.graph import ACTIVITY, CONCEPT, DECISION, Node, normalize_label
from abscon.matching import _Instance, match, sub_matrix
from abscon.similarity import (
    BuiltinProvider,
    CachingProvider,
    SimilarityMode,
    builtin_embed,
    similarity_matrix,
)
from genutil import WORDS, cosine, noisy_candidate, random_flowchart, random_mermaid_graph

KINDS = [ACTIVITY, DECISION, CONCEPT, clevr_op("count"), clevr_op("filter_color", "red"),
         clevr_op("filter_color", "blue")]
# Case and whitespace variants, a word-order variant, and the empty label
# (clevr only) so that equal-after-normalization pairs occur often.
LABELS = ["check stock", "Check  Stock", "stock check", "ship order", "ship", "ok", "zz", ""]
TAUS = [0.0, 0.5, 1.0]


class TableProvider:
    """Fixed small integer vectors per text, zero vectors and negative
    cosines included."""

    def __init__(self, table: dict[str, np.ndarray]):
        self.table = table

    def embed(self, texts):
        return [self.table[t] for t in texts]


@st.composite
def nodes(draw, prefix: str):
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=7))
    out = []
    for i, kind in enumerate(kinds):
        labels = LABELS if kind.is_clevr else [l for l in LABELS if l]
        out.append(Node(f"{prefix}{i}", draw(st.sampled_from(labels)), kind))
    return out


vectors = st.one_of(
    st.just([0, 0, 0]),
    st.lists(st.integers(-2, 3), min_size=3, max_size=3),
)
providers = st.one_of(
    st.just(CachingProvider(BuiltinProvider())),
    st.lists(vectors, min_size=len(LABELS), max_size=len(LABELS)).map(
        lambda vs: TableProvider({l: np.array(v, dtype=float) for l, v in zip(LABELS, vs)})
    ),
)


def _reference_similarity(a: Node, b: Node, mode, provider, case_sensitive) -> float:
    """The scalar rule, written out independently of similarity_matrix."""
    if a.kind != b.kind:
        return 0.0
    if normalize_label(a.label, case_sensitive) == normalize_label(b.label, case_sensitive):
        return 1.0
    if mode == SimilarityMode.EXACT_LABEL:
        return 0.0
    va, vb = provider.embed([a.label, b.label])
    return min(1.0, max(0.0, cosine(va, vb)))


@settings(max_examples=150)
@given(left=nodes("c"), right=nodes("b"), mode=st.sampled_from(list(SimilarityMode)),
       provider=providers, case_sensitive=st.booleans(), tau=st.sampled_from(TAUS))
def test_matrices_agree_with_scalar_similarity(left, right, mode, provider, case_sensitive, tau):
    sim = similarity_matrix(left, right, mode, provider, case_sensitive)
    prof = profile("flowchart", similarity_mode=mode, provider=provider, tau=tau,
                   case_sensitive_labels=case_sensitive)
    sub = sub_matrix(left, right, prof)
    assert sim.shape == sub.shape == (len(left), len(right))
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            assert sim[i, j] == similarity_matrix([a], [b], mode, provider, case_sensitive)[0, 0]
            assert sub[i, j] == sub_matrix([a], [b], prof)[0, 0]
            # cosine() and the matrix sum the dot product in different orders.
            assert sim[i, j] == pytest.approx(
                _reference_similarity(a, b, mode, provider, case_sensitive), abs=1e-12
            )
            assert sub[i, j] == (np.inf if sim[i, j] < tau else 1.0 - sim[i, j])


def test_matrix_entries_do_not_depend_on_matrix_shape():
    # BLAS matrix products round some entries differently at different
    # shapes; at this size that would show against the 1 x 1 case.
    labels = [f"{a} {b}" for a in WORDS for b in WORDS[:6]]
    left = [Node(f"c{i}", label, ACTIVITY) for i, label in enumerate(labels)]
    right = left[::-1]
    provider = CachingProvider(BuiltinProvider())
    mode = SimilarityMode.EMBEDDING
    sim = similarity_matrix(left, right, mode, provider, False)
    for i in range(0, len(left), 9):
        for j, b in enumerate(right):
            assert sim[i, j] == similarity_matrix([left[i]], [b], mode, provider, False)[0, 0]


def _random_injection(rng: random.Random, inst: _Instance) -> dict[str, str]:
    node_map, used = {}, set()
    for c in inst.cand_ids:
        free = [b for b in inst.choices[c] if b not in used]
        if free and rng.random() < 0.8:
            node_map[c] = rng.choice(free)
            used.add(node_map[c])
    return node_map


def _random_move(rng: random.Random, inst: _Instance, node_map: dict[str, str]):
    kind = rng.choice(["remap", "unmap", "swap"])
    if kind == "swap":
        pairs = [(a, b) for a in node_map for b in node_map
                 if a < b and node_map[b] in inst.choices[a] and node_map[a] in inst.choices[b]]
        if pairs:
            a, b = rng.choice(pairs)
            return {a: node_map[b], b: node_map[a]}
    c = rng.choice(inst.cand_ids)
    if kind == "unmap":
        return {c: None}
    used = set(node_map.values()) - {node_map.get(c)}
    free = [b for b in inst.choices[c] if b not in used]
    return {c: rng.choice(free) if free else None}


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(SimilarityMode)),
       tau=st.sampled_from(TAUS), case_sensitive=st.booleans())
def test_move_delta_equals_full_cost_difference(seed, mode, tau, case_sensitive):
    rng = random.Random(seed)
    candidate = random_mermaid_graph(rng, max_nodes=9)
    base = (noisy_candidate(rng, candidate, "flowchart") if rng.random() < 0.5
            else random_mermaid_graph(rng, max_nodes=9))
    prof = profile("flowchart", similarity_mode=mode, tau=tau, case_sensitive_labels=case_sensitive)
    inst = _Instance(candidate, base, prof)
    node_map = _random_injection(rng, inst)
    for _ in range(5):
        moved = _random_move(rng, inst, node_map)
        trial = dict(node_map)
        for c, b in moved.items():
            if b is None:
                trial.pop(c, None)
            else:
                trial[c] = b
        expected = inst.mapping_cost(trial) - inst.mapping_cost(node_map)
        # Summation order differs; costs are at most a few hundred.
        assert inst.move_delta(node_map, moved) == pytest.approx(expected, abs=1e-9)
        node_map = trial


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_heuristic_match_makes_at_most_one_embed_call(seed):
    rng = random.Random(seed)
    truth = random_flowchart(rng, rng.randint(7, 14))
    candidate = noisy_candidate(rng, truth, "flowchart")
    calls = []

    class Counting:
        def embed(self, texts):
            calls.append(list(texts))
            return builtin_embed(texts)

    result = match(candidate, truth, profile("flowchart", provider=Counting()))
    assert not result.optimal
    assert len(calls) <= 1
