"""Properties of the matcher.

- Every similarity equals the 1 x 1 call for that pair and follows the
  scalar rule (kind, normalized label, clipped cosine); tau keeps exactly the
  pairs at or above it, in increasing index.
- A similarity depends neither on the other nodes in the call nor on what
  the cache already holds.
- The local search's move delta equals the change in the full mapping cost.
- One heuristic alignment makes at most one embedding request.
- Every entry of the warm start's assignment matrix follows its definition.
- The warm start's pure-Python assignment returns scipy's rows and columns.
"""
from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.clevr import clevr_op
from abscon.domains import profile
from abscon.graph import ACTIVITY, CONCEPT, DECISION, LabeledGraph, Node, edge_key, normalize_label
from abscon.matching import _assignment_matrix, _Instance, _shortest_augmenting_path, match
from abscon.similarity import (
    BuiltinProvider,
    CachingProvider,
    SimilarityCache,
    SimilarityMode,
    similarity_rows,
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
    """The scalar rule, written out independently of similarity_rows."""
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
    full = similarity_rows(left, right, mode, provider, case_sensitive, 0.0)
    rows = similarity_rows(left, right, mode, provider, case_sensitive, tau)
    assert len(full) == len(rows) == len(left)
    for i, a in enumerate(left):
        assert list(full[i]) == list(range(len(right)))
        assert rows[i] == {j: sim for j, sim in full[i].items() if sim >= tau}
        assert list(rows[i]) == sorted(rows[i])
        for j, b in enumerate(right):
            assert full[i][j] == similarity_rows([a], [b], mode, provider, case_sensitive, 0.0)[0][0]
            # cosine() sums the dot product in another order, not exactly rounded.
            assert full[i][j] == pytest.approx(
                _reference_similarity(a, b, mode, provider, case_sensitive), abs=1e-12
            )


def test_matrix_entries_do_not_depend_on_matrix_shape():
    # Every sum is exactly rounded, so an entry of a large call equals the
    # 1 x 1 call, bit for bit.
    labels = [f"{a} {b}" for a in WORDS for b in WORDS[:6]]
    left = [Node(f"c{i}", label, ACTIVITY) for i, label in enumerate(labels)]
    right = left[::-1]
    provider = CachingProvider(BuiltinProvider())
    mode = SimilarityMode.EMBEDDING
    sim = similarity_rows(left, right, mode, provider, False, 0.0)
    for i in range(0, len(left), 9):
        for j, b in enumerate(right):
            assert sim[i][j] == similarity_rows([left[i]], [b], mode, provider, False, 0.0)[0][0]


@settings(max_examples=150)
@given(left=nodes("c"), right=nodes("b"), others=nodes("o"),
       mode=st.sampled_from(list(SimilarityMode)), provider=providers,
       case_sensitive=st.booleans(), tau=st.sampled_from(TAUS), data=st.data())
def test_similarity_does_not_depend_on_the_call_or_the_cache(left, right, others, mode, provider,
                                                             case_sensitive, tau, data):
    expected = similarity_rows(left, right, mode, provider, case_sensitive, tau)
    # A cache that has already scored other nodes, against each other and
    # against some of these, in both directions.
    cache = SimilarityCache()
    similarity_rows(others + right[::2], left[1::2] + others, mode, provider, case_sensitive, 0.0,
                    cache)
    # The same pairs in a call shared with other nodes, in another order.
    wider = data.draw(st.permutations(right + others))
    rows = similarity_rows(left, wider, mode, provider, case_sensitive, tau, cache)
    position = {id(node): k for k, node in enumerate(wider)}
    index_in_right = {position[id(node)]: j for j, node in enumerate(right)}
    for row, expected_row in zip(rows, expected):
        assert {index_in_right[k]: sim for k, sim in row.items() if k in index_in_right} == expected_row


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
            return BuiltinProvider().embed(texts)

    result = match(candidate, truth, profile("flowchart", provider=Counting()))
    assert not result.optimal
    assert len(calls) <= 1


@st.composite
def graphs(draw, prefix: str):
    """Nodes of every kind, clevr included, or none; edges with self-loops,
    case variants of one label and labels repeated at a node."""
    g = LabeledGraph()
    for node in draw(nodes(prefix)):
        g.add_node(node.label, node.kind, node_id=node.id)
    ids = sorted(g.nodes)
    if ids:
        for s, t, label in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                                   st.sampled_from(["", "yes", "Yes ", "no"])),
                                         max_size=12)):
            if not g.has_edge(s, t, label):
                g.add_edge(s, t, label)
    return g


def _incident_labels(g: LabeledGraph, node_id: str) -> tuple[Counter, Counter]:
    """Outgoing and incoming edge labels of a node, as normalized in edge keys."""
    keys = [edge_key(e.source, e.target, e.label) for e in g.edges]
    return (Counter(l for s, _, l in keys if s == node_id),
            Counter(l for _, t, l in keys if t == node_id))


def _unshared(a: Counter, b: Counter) -> int:
    """Size of the multiset symmetric difference."""
    return a.total() + b.total() - 2 * (a & b).total()


def _degree(out: Counter, inc: Counter) -> int:
    return out.total() + inc.total()


@settings(max_examples=150, deadline=None)
@given(candidate=graphs("c"), base=graphs("b"), mode=st.sampled_from(list(SimilarityMode)),
       tau=st.sampled_from([0.0, 0.2, 0.5]))
def test_assignment_matrix_follows_its_definition(candidate, base, mode, tau):
    prof = profile("flowchart", similarity_mode=mode, tau=tau)
    inst = _Instance(candidate, base, prof)
    cand_ids, base_ids = sorted(candidate.nodes), sorted(base.nodes)
    n, m = len(cand_ids), len(base_ids)
    sims = similarity_rows([candidate.nodes[c] for c in cand_ids], [base.nodes[b] for b in base_ids],
                           mode, prof.provider, prof.case_sensitive_labels, 0.0)
    cand = [_incident_labels(candidate, c) for c in cand_ids]
    bases = [_incident_labels(base, b) for b in base_ids]

    def expected(i: int, j: int) -> float:
        if i < n and j < m:  # substitution of candidate node i by base node j
            if sims[i][j] < tau:
                return 1e6
            (out_c, in_c), (out_b, in_b) = cand[i], bases[j]
            return (1.0 - sims[i][j]) + 0.5 * (_unshared(out_c, out_b) + _unshared(in_c, in_b))
        if i < n:  # deletion of candidate node i
            return 1.0 + 0.5 * _degree(*cand[i]) if j == m + i else 1e6
        if j < m:  # insertion of base node j
            return 1.0 + 0.5 * _degree(*bases[j]) if i == n + j else 1e6
        return 0.0

    size = n + m
    assert list(_assignment_matrix(inst)) == [expected(i, j) for i in range(size) for j in range(size)]


# Entries like the warm start's: small integers and halves, which tie
# often, zeros, and 1e6 for forbidden pairs; or arbitrary floats.
PALETTES = [[0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 1.5, 2.5, 1e6], [0.0, 1e6], [1.0], None]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), extra_columns=st.integers(0, 3),
       palette=st.sampled_from(PALETTES))
def test_pure_assignment_returns_scipys_rows_and_columns(seed, n, extra_columns, palette):
    from scipy.optimize import linear_sum_assignment

    rng = random.Random(seed)
    cost = [[(rng.choice(palette) if palette else rng.uniform(-1.0, 2.0))
             if rng.random() < 0.9 else 1e6 for _ in range(n + extra_columns)] for _ in range(n)]
    rows, cols = linear_sum_assignment(np.array(cost))
    assert rows.tolist() == list(range(n))
    assert _shortest_augmenting_path(cost) == cols.tolist()
