"""Align a candidate graph to a base graph by approximate graph edit distance.

The edit model: substituting a node costs 1 - similarity (forbidden below the
threshold tau), inserting or deleting a node costs 1, substituting an edge is
free when the normalized labels agree under the node mapping and forbidden
otherwise, and inserting or deleting an edge costs 1. Small inputs are solved
exactly; larger ones use a bipartite assignment warm start refined by local
search. The DomainProfile is the only configuration: similarity mode,
embedding provider, label case, tau and the match timeout.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import TooLarge
from .graph import LabeledGraph, Node, edge_key
from .similarity import similarity_matrix

if TYPE_CHECKING:
    import numpy as np

    from .domains import DomainProfile

EXHAUSTIVE_LIMIT = 6  # match() falls back to exact search at or below this size
ORACLE_LIMIT = 8


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


def exhaustive_match(candidate: LabeledGraph, base: LabeledGraph, profile: DomainProfile) -> MatchResult:
    """Provably minimal edit cost by enumeration of all partial injections."""
    if len(candidate.nodes) > ORACLE_LIMIT or len(base.nodes) > ORACLE_LIMIT:
        raise TooLarge(f"exhaustive matching is limited to {ORACLE_LIMIT} nodes per side")
    inst = _Instance(candidate, base, profile)
    node_map, total = _exhaustive(inst)
    return MatchResult(node_map, total, optimal=True)


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
    """Greedy local moves: remap / unmap single nodes, swap image pairs. Each
    move is scored by its cost delta; a move is taken when it lowers the
    cost by more than 1e-12."""
    best = dict(node_map)
    improved = True
    while improved and time.monotonic() < deadline:
        improved = False
        used = set(best.values())
        for c in inst.cand_ids:
            if time.monotonic() >= deadline:
                break
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
            if time.monotonic() >= deadline:
                break
            for j in range(i + 1, len(mapped)):
                a, b = mapped[i], mapped[j]
                if best[b] not in inst.choices[a] or best[a] not in inst.choices[b]:
                    continue
                if inst.move_delta(best, {a: best[b], b: best[a]}) < -1e-12:
                    best[a], best[b] = best[b], best[a]
                    improved = True
    return best, inst.mapping_cost(best)
