"""Align a candidate graph to a base graph by approximate graph edit distance.

The edit model: substituting a node costs 1 - similarity (forbidden below the
threshold tau), inserting or deleting a node costs 1, substituting an edge is
free when the normalized labels agree under the node mapping and forbidden
otherwise, and inserting or deleting an edge costs 1. Small inputs are solved
exactly; larger ones use a bipartite assignment warm start refined by local
search, whose moves are remapping one node to a free image and swapping the
images of two nodes (unmapping a node never lowers the cost). Remaps are
scored from an index of the base edges, swaps by move_delta where a cheap
lower bound leaves room for a gain. The DomainProfile is the only
configuration: similarity mode, embedding provider, label case, tau and the
match timeout.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import LabeledGraph, Node, edge_key
from .similarity import similarity_matrix

if TYPE_CHECKING:
    import numpy as np

    from .domains import DomainProfile

EXHAUSTIVE_LIMIT = 6  # match() falls back to exact search at or below this size


def sub_matrix(left: list[Node], right: list[Node], profile: DomainProfile) -> np.ndarray:
    """Node substitution costs 1 - similarity; inf where the similarity is
    below the profile's tau."""
    import numpy as np

    sim = similarity_matrix(left, right, profile.similarity_mode, profile.provider,
                            profile.case_sensitive_labels)
    return np.where(sim < profile.tau, math.inf, 1.0 - sim)


@dataclass
class MatchResult:
    node_map: dict[str, str]
    total_cost: float
    optimal: bool = False


class _Instance:
    """Precomputed cost data for one (candidate, base) pair."""

    def __init__(self, candidate: LabeledGraph, base: LabeledGraph, profile: DomainProfile):
        import numpy as np

        self.cand_ids = sorted(candidate.nodes)
        self.base_ids = sorted(base.nodes)
        self.sub = sub_matrix(
            [candidate.nodes[c] for c in self.cand_ids], [base.nodes[b] for b in self.base_ids],
            profile,
        )
        # Finite substitutions per candidate node, in base id order.
        self.choices = {c: {} for c in self.cand_ids}
        rows, cols = np.nonzero(np.isfinite(self.sub))
        for i, j, value in zip(rows.tolist(), cols.tolist(), self.sub[rows, cols].tolist()):
            self.choices[self.cand_ids[i]][self.base_ids[j]] = value
        self.cand_edges = [edge_key(e.source, e.target, e.label) for e in candidate.edges]
        self.base_edge_set = {edge_key(e.source, e.target, e.label) for e in base.edges}
        self.n_base_edges = len(base.edges)
        self.incident = {c: [] for c in self.cand_ids}
        for edge in self.cand_edges:
            self.incident[edge[0]].append(edge)
            if edge[1] != edge[0]:
                self.incident[edge[1]].append(edge)

    def mapping_cost(self, node_map: dict[str, str]) -> float:
        total = 0.0
        for c in self.cand_ids:
            b = node_map.get(c)
            total += self.choices[c][b] if b is not None else 1.0
        total += len(self.base_ids) - len(node_map)
        matched = 0
        for s, t, l in self.cand_edges:
            ms, mt = node_map.get(s), node_map.get(t)
            if ms is not None and mt is not None and (ms, mt, l) in self.base_edge_set:
                matched += 1
            else:
                total += 1.0
        total += self.n_base_edges - matched
        return total

    def move_delta(self, node_map: dict[str, str], moved: dict[str, str | None]) -> float:
        """mapping_cost after giving each candidate in `moved` its new image
        (None: unmapped) minus mapping_cost before, from the moved nodes'
        substitutions and incident edges only. A matched edge is worth -2:
        it saves both the candidate edge's deletion and the base edge's
        insertion."""
        delta = 0.0
        for c, new in moved.items():
            old = node_map.get(c)
            delta += (self.choices[c][new] if new is not None else 1.0) - (
                self.choices[c][old] if old is not None else 1.0
            )
            delta += (old is not None) - (new is not None)  # unmatched base nodes
        base_edges = self.base_edge_set
        gained = 0
        # A set, so that an edge between two moved nodes counts once.
        for s, t, l in {e for c in moved for e in self.incident[c]}:
            before = (node_map.get(s), node_map.get(t), l) in base_edges
            after = (moved.get(s, node_map.get(s)), moved.get(t, node_map.get(t)), l) in base_edges
            gained += after - before
        return delta - 2 * gained


def match(candidate: LabeledGraph, base: LabeledGraph, profile: DomainProfile) -> MatchResult:
    """Lowest-cost alignment found within profile.match_timeout; deterministic."""
    inst = _Instance(candidate, base, profile)
    if len(inst.cand_ids) <= EXHAUSTIVE_LIMIT and len(inst.base_ids) <= EXHAUSTIVE_LIMIT:
        node_map, total = _exhaustive(inst)
        return MatchResult(node_map, total, optimal=True)
    deadline = time.monotonic() + profile.match_timeout
    node_map = _assignment_start(inst)
    node_map, total = _refine(inst, node_map, deadline)
    return MatchResult(node_map, total, optimal=False)


def _exhaustive(inst: _Instance) -> tuple[dict[str, str], float]:
    """DFS over partial injections, visiting base choices in id order (then
    'unmapped') so the first minimum found is the canonical tie-break."""
    cand_ids = inst.cand_ids
    best_map: dict[str, str] = {}
    best_cost = math.inf

    # Undecided candidate edges indexed by their later endpoint in DFS order.
    order_of = {c: i for i, c in enumerate(cand_ids)}
    edges_closing_at = {c: [] for c in cand_ids}
    for s, t, l in inst.cand_edges:
        closer = s if order_of[s] >= order_of[t] else t
        edges_closing_at[closer].append((s, t, l))

    current: dict[str, str] = {}
    used: set[str] = set()

    def lower_bound(depth: int, node_cost: float, edge_del: int, matched: int) -> float:
        remaining_cand_edges = sum(
            len(edges_closing_at[cand_ids[i]]) for i in range(depth, len(cand_ids))
        )
        base_ins = max(0, inst.n_base_edges - matched - remaining_cand_edges)
        unmatched_base_nodes = len(inst.base_ids) - len(current)
        remaining_nodes = len(cand_ids) - depth
        # Each side's surplus nodes can only be deleted (resp. inserted) at cost 1.
        node_floor = max(0, remaining_nodes - unmatched_base_nodes)
        base_node_floor = max(0, unmatched_base_nodes - remaining_nodes)
        return node_cost + edge_del + base_ins + node_floor + base_node_floor

    def dfs(depth: int, node_cost: float, edge_del: int, matched: int):
        nonlocal best_map, best_cost
        if depth == len(cand_ids):
            total = (
                node_cost
                + (len(inst.base_ids) - len(current))
                + edge_del
                + (inst.n_base_edges - matched)
            )
            if total < best_cost - 1e-12:
                best_cost = total
                best_map = dict(current)
            return
        if lower_bound(depth, node_cost, edge_del, matched) >= best_cost - 1e-12:
            return
        c = cand_ids[depth]
        pending = edges_closing_at[c]

        def settle(extra_map: dict[str, str]) -> tuple[int, int]:
            d, m = 0, 0
            lookup = {**current, **extra_map}
            for s, t, l in pending:
                ms, mt = lookup.get(s), lookup.get(t)
                if ms is not None and mt is not None and (ms, mt, l) in inst.base_edge_set:
                    m += 1
                else:
                    d += 1
            return d, m

        for b, sub in inst.choices[c].items():
            if b in used:
                continue
            current[c] = b
            used.add(b)
            d, m = settle({c: b})
            dfs(depth + 1, node_cost + sub, edge_del + d, matched + m)
            del current[c]
            used.discard(b)
        d, m = settle({})
        dfs(depth + 1, node_cost + 1.0, edge_del + d, matched + m)

    dfs(0, 0.0, 0, 0)
    return best_map, best_cost


def _assignment_start(inst: _Instance) -> dict[str, str]:
    """Bipartite assignment over nodes with local edge-neighborhood terms."""
    import numpy as np

    linear_sum_assignment = _linear_sum_assignment()

    n, m = len(inst.cand_ids), len(inst.base_ids)
    big = 1e6  # stands in for forbidden substitutions
    labels = sorted({l for _, _, l in inst.cand_edges} | {l for _, _, l in inst.base_edge_set})
    column = {l: k for k, l in enumerate(labels)}
    cand_out, cand_in = _label_counts(inst.cand_edges, inst.cand_ids, column)
    base_out, base_in = _label_counts(inst.base_edge_set, inst.base_ids, column)

    # Local edge term of substituting c by b: half the unshared incident
    # edge labels, in and out, where sharing is multiset intersection.
    local = np.zeros((n, m))
    for cand, base in ((cand_out, base_out), (cand_in, base_in)):
        shared = np.zeros((n, m))
        for k in range(len(labels)):
            shared += np.minimum.outer(cand[:, k], base[:, k])
        local += 0.5 * (cand.sum(axis=1)[:, None] + base.sum(axis=1)[None, :] - 2 * shared)

    cand_degree = (cand_out + cand_in).sum(axis=1)
    base_degree = (base_out + base_in).sum(axis=1)
    matrix = np.zeros((n + m, n + m))
    matrix[:n, :m] = np.where(np.isfinite(inst.sub), inst.sub + local, big)
    matrix[:n, m:] = big
    matrix[np.arange(n), m + np.arange(n)] = 1.0 + 0.5 * cand_degree
    matrix[n:, :m] = big
    matrix[n + np.arange(m), np.arange(m)] = 1.0 + 0.5 * base_degree

    rows, cols = linear_sum_assignment(matrix)
    node_map = {}
    for i, j in zip(rows, cols):
        if i < n and j < m and np.isfinite(inst.sub[i, j]):
            node_map[inst.cand_ids[i]] = inst.base_ids[j]
    return node_map


def _linear_sum_assignment():
    """scipy's linear_sum_assignment, without importing scipy.optimize.

    The function lives in scipy's compiled `_lsap` extension; the
    scipy.optimize package around it costs about 48 MB and 0.45 s to import.
    The extension is loaded from scipy's package directory under its own
    name, so a later `import scipy.optimize` reuses it; the public import is
    the fallback wherever that layout differs.
    """
    import importlib.machinery

    name = "scipy.optimize._lsap"
    if name not in sys.modules:
        try:
            spec = importlib.machinery.PathFinder.find_spec("scipy")
            directory = os.path.join(os.path.dirname(spec.origin), "optimize")
            path = next(os.path.join(directory, "_lsap" + suffix)
                        for suffix in importlib.machinery.EXTENSION_SUFFIXES
                        if os.path.exists(os.path.join(directory, "_lsap" + suffix)))
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = loader.create_module(importlib.machinery.ModuleSpec(name, loader, origin=path))
            loader.exec_module(module)
            sys.modules[name] = module
        except (AttributeError, ImportError, OSError, StopIteration, TypeError):
            sys.modules.pop(name, None)
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
    return sys.modules[name].linear_sum_assignment


def _label_counts(edges, ids: list[str], column: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-node outgoing and incoming edge counts, one column per label."""
    import numpy as np

    row = {node_id: i for i, node_id in enumerate(ids)}
    out = np.zeros((len(ids), len(column)))
    inc = np.zeros((len(ids), len(column)))
    for s, t, l in edges:
        out[row[s], column[l]] += 1
        inc[row[t], column[l]] += 1
    return out, inc


def _refine(inst: _Instance, node_map: dict[str, str], deadline: float) -> tuple[dict[str, str], float]:
    """Greedy local search from the warm start, in rounds, until a round
    takes no move or the deadline passes. A round first remaps each
    candidate node, in id order, to each image it may take (free or its
    own, in base id order), then swaps the images of each pair of mapped
    nodes. A move is taken when it lowers the cost by more than 1e-12.

    Unmapping a node is never a move: it raises the cost by sim(c, old) + 1,
    plus 2 for every matched edge it loses, so by at least 1. All of a
    node's remaps are scored in one pass from the base edges indexed by
    (image of the other end, label). A swap is scored by move_delta only
    when its lower bound, the change in substitution cost less 2 for every
    unmatched edge at either node, leaves room for a gain. Every accept
    decision is the one that scoring each move by move_delta would make.
    """
    base_edges = inst.base_edge_set
    sources: dict[tuple[str, str], list[str]] = {}  # (target, label) -> sources
    targets: dict[tuple[str, str], list[str]] = {}  # (source, label) -> targets
    loops: dict[str, list[str]] = {}  # label -> nodes with that self-loop
    for s, t, l in base_edges:
        sources.setdefault((t, l), []).append(s)
        targets.setdefault((s, l), []).append(t)
        if s == t:
            loops.setdefault(l, []).append(s)

    best = dict(node_map)
    owner = {b: c for c, b in best.items()}  # image -> candidate node

    def unmatched(c: str) -> int:
        return sum((best.get(s), best.get(t), l) not in base_edges for s, t, l in inst.incident[c])

    improved = True
    while improved and time.monotonic() < deadline:
        improved = False
        for c in inst.cand_ids:
            if time.monotonic() >= deadline:
                break
            choices = inst.choices[c]
            # Incident edges of c matched when c maps to each image.
            matched: dict[str, int] = {}
            for s, t, l in inst.incident[c]:
                if s == t:
                    ends = loops.get(l, ())
                elif s == c:
                    ends = sources.get((best.get(t), l), ())
                else:
                    ends = targets.get((best.get(s), l), ())
                for b in ends:
                    matched[b] = matched.get(b, 0) + 1
            old = best.get(c)
            options = [b for b in choices if owner.get(b, c) == c]
            for b in options:
                if b == old:
                    continue
                # move_delta's expression: substitution, unmatched base
                # nodes, then -2 per matched edge gained.
                delta = (choices[b] - choices.get(old, 1.0)) + ((old is not None) - 1) - 2 * (
                    matched.get(b, 0) - matched.get(old, 0))
                if delta < -1e-12:
                    owner.pop(old, None)
                    best[c] = b
                    owner[b] = c
                    old = b
                    improved = True
        mapped = sorted(best)
        rank = {c: i for i, c in enumerate(mapped)}
        open_edges: dict[str, int] = {}  # unmatched incident edges, filled on demand
        for i, a in enumerate(mapped):
            if time.monotonic() >= deadline:
                break
            # Partners whose image a may take, in id order; a swap changes
            # no later partner's image.
            choices_a = inst.choices[a]
            partners = sorted(rank[o] for o in map(owner.get, choices_a) if o is not None and rank[o] > i)
            for j in partners:
                b = mapped[j]
                choices_b = inst.choices[b]
                ya, yb = best[a], best[b]
                if ya not in choices_b:
                    continue
                for x in (a, b):
                    if x not in open_edges:
                        open_edges[x] = unmatched(x)
                bound = (choices_a[yb] - choices_a[ya]) + (choices_b[ya] - choices_b[yb]) - 2 * (
                    open_edges[a] + open_edges[b])
                if bound > 1e-9:
                    continue
                if inst.move_delta(best, {a: yb, b: ya}) < -1e-12:
                    best[a], best[b] = yb, ya
                    owner[yb], owner[ya] = a, b
                    # Only edges at a or b changed: forget their ends' counts.
                    for s, t, _ in inst.incident[a] + inst.incident[b]:
                        open_edges.pop(s, None)
                        open_edges.pop(t, None)
                    improved = True
    return best, inst.mapping_cost(best)
