"""The indexed local search makes the decisions of the move-by-move one.

`_reference_refine` is the local search as it was before moves were scored
from indexes: every remap, every unmap and every swap is scored by
`_Instance.move_delta`, in the same order. `match()` must return the same
node map and cost on seeded pools, in both similarity modes, for several
thresholds.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from abscon.abstraction import abstract
from abscon.domains import profile
from abscon.graph import ACTIVITY
from abscon.matching import (EXHAUSTIVE_LIMIT, _assignment_start, _exhaustive, _Instance, _refine,
                             match)
from abscon.similarity import SimilarityMode
from genutil import (build_graph, candidate_pool, random_flowchart, random_mermaid_graph,
                     random_taxonomy_tree)


def _reference_refine(inst: _Instance, node_map: dict[str, str]):
    """Greedy local moves: remap / unmap single nodes, swap image pairs. Each
    move is scored by its cost delta; a move is taken when it lowers the
    cost by more than 1e-12."""
    best = dict(node_map)
    improved = True
    while improved:
        improved = False
        used = set(best.values())
        for c in inst.cand_ids:
            options: list[str | None] = [
                b for b in inst.choices[c] if b not in used or best.get(c) == b
            ]
            options.append(None)
            for b in options:
                old = best.get(c)
                if old == b:
                    continue
                if inst.move_delta(best, {c: b}) < -1e-12:
                    used.discard(old)
                    if b is None:
                        del best[c]
                    else:
                        best[c] = b
                        used.add(b)
                    improved = True
        mapped = sorted(best)
        for i in range(len(mapped)):
            for j in range(i + 1, len(mapped)):
                a, b = mapped[i], mapped[j]
                if best[b] not in inst.choices[a] or best[a] not in inst.choices[b]:
                    continue
                if inst.move_delta(best, {a: best[b], b: best[a]}) < -1e-12:
                    best[a], best[b] = best[b], best[a]
                    improved = True
    return best, inst.mapping_cost(best)


def _reference_match(candidate, base, prof):
    inst = _Instance(candidate, base, prof)
    if len(inst.cand_ids) <= EXHAUSTIVE_LIMIT and len(inst.base_ids) <= EXHAUSTIVE_LIMIT:
        return _exhaustive(inst)
    return _reference_refine(inst, _assignment_start(inst))


def _pairs(seed: int, shape: str, n: int):
    """(candidate, base) pairs from one seeded pool: a member against the
    first, and the last against the partial model of all the others.
    "unrelated" pools are independent flowcharts; "loops" pools are random
    graphs of up to n nodes with self-loops and parallel edges."""
    rng = random.Random(f"refine/{seed}/{shape}/{n}")
    if shape == "flowchart":
        pool = candidate_pool(rng, random_flowchart(rng, n), "flowchart", size=4)
    elif shape == "taxonomy":
        pool = candidate_pool(rng, random_taxonomy_tree(rng, n), "taxonomy", size=4)
    elif shape == "unrelated":
        pool = [random_flowchart(rng, rng.randint(7, n)) for _ in range(4)]
    else:
        pool = [random_mermaid_graph(rng, n) for _ in range(4)]
    domain = "taxonomy" if shape == "taxonomy" else "flowchart"
    merged = abstract(pool[:-1], profile(domain))
    return domain, [(pool[1], pool[0]), (pool[-1], merged)]


SHAPES = ["flowchart", "taxonomy", "unrelated", "loops"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(SHAPES),
    n=st.integers(7, 40),
    mode=st.sampled_from(list(SimilarityMode)),
    tau=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_match_equals_move_by_move_reference(seed, shape, n, mode, tau):
    domain, pairs = _pairs(seed, shape, n)
    prof = profile(domain, similarity_mode=mode, tau=tau)
    for candidate, base in pairs:
        result = match(candidate, base, prof)
        node_map, cost = _reference_match(candidate, base, prof)
        assert result.node_map == node_map
        assert result.total_cost == cost


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(SHAPES),
    n=st.integers(7, 40),
    mode=st.sampled_from(list(SimilarityMode)),
    tau=st.sampled_from([0.2, 0.5, 1.0]),
    share=st.sampled_from([0.3, 0.7, 1.0]),
)
def test_refine_equals_reference_from_random_starts(seed, shape, n, mode, tau, share):
    """From a random injective start, far from the warm start's, many more
    remaps and swaps are taken, with small gains too."""
    domain, pairs = _pairs(seed, shape, n)
    prof = profile(domain, similarity_mode=mode, tau=tau)
    rng = random.Random(seed)
    for candidate, base in pairs:
        inst = _Instance(candidate, base, prof)
        start: dict[str, str] = {}
        for c in rng.sample(inst.cand_ids, len(inst.cand_ids)):
            free = [b for b in inst.choices[c] if b not in start.values()]
            if free and rng.random() < share:
                start[c] = rng.choice(free)
        assert _refine(inst, start) == _reference_refine(inst, start)


def test_refine_counts_a_self_loop_matched_by_a_remap():
    """Remapping a looped node onto an equally similar looped image gains
    the loop: -2, taken by both searches."""
    candidate = build_graph([("a", "check stock", ACTIVITY)], [("a", "a", "retry")])
    base = build_graph([("p", "check stock", ACTIVITY), ("q", "check stock", ACTIVITY)],
                       [("q", "q", "Retry")])
    inst = _Instance(candidate, base, profile("flowchart"))
    assert _refine(inst, {"a": "p"}) == _reference_refine(inst, {"a": "p"})
    assert _refine(inst, {"a": "p"}) == ({"a": "q"}, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(SHAPES),
    n=st.integers(7, 40),
    mode=st.sampled_from(list(SimilarityMode)),
    tau=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_unmapping_a_node_raises_the_cost_by_at_least_1(seed, shape, n, mode, tau):
    """Why the local search never tries to unmap: from the warm start or the
    refined map, unmapping any mapped node costs at least 1."""
    domain, pairs = _pairs(seed, shape, n)
    prof = profile(domain, similarity_mode=mode, tau=tau)
    for candidate, base in pairs:
        inst = _Instance(candidate, base, prof)
        for node_map in (_assignment_start(inst), match(candidate, base, prof).node_map):
            for c in node_map:
                assert inst.move_delta(node_map, {c: None}) >= 1
