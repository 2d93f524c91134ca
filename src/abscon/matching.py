"""Align a candidate graph to a base, a LabeledGraph or a PartialModel, by
approximate graph edit distance. Of the base, the matcher reads `nodes` (id
-> anything with `kind` and `label`) and `edge_keys()`.

The edit model: substituting a node costs 1 - similarity (forbidden below the
threshold tau), inserting or deleting a node costs 1, substituting an edge is
free when the normalized labels agree under the node mapping and forbidden
otherwise, and inserting or deleting an edge costs 1. Small inputs are solved
exactly; larger ones use a bipartite assignment warm start refined by local
search, whose moves are remapping one node to a free image and swapping the
images of two nodes (unmapping a node never lowers the cost). Remaps are
scored from an index of the base edges, swaps by move_delta where a cheap
lower bound leaves room for a gain. The search runs until a round takes no
move, so an alignment depends on its inputs alone, never on the clock. The
DomainProfile is the only configuration: similarity mode, embedding
provider, label case and tau.

Node similarities come from similarity.similarity_rows and the warm start's
assignment matrix from _assignment_matrix, at every size. One size rule picks
only the solver: at most SMALL_LIMIT nodes (candidate plus base) are solved
with _shortest_augmenting_path, a port of scipy's linear_sum_assignment, so
they load neither numpy nor scipy; larger ones with scipy's compiled
routine, which returns the same columns.
"""
from __future__ import annotations

import math
import os
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import LabeledGraph, edge_key
from .similarity import SimilarityCache, similarity_rows

if TYPE_CHECKING:
    from .abstraction import PartialModel
    from .domains import DomainProfile

EXHAUSTIVE_LIMIT = 6  # match() falls back to exact search at or below this size
SMALL_LIMIT = 64  # alignments of at most this many nodes (n + m) load neither numpy nor scipy


@dataclass
class MatchResult:
    node_map: dict[str, str]
    total_cost: float
    optimal: bool = False


class _Instance:
    """Precomputed cost data for one (candidate, base) pair."""

    def __init__(self, candidate: LabeledGraph, base: LabeledGraph | PartialModel,
                 profile: DomainProfile, cache: SimilarityCache | None = None):
        self.cand_ids = sorted(candidate.nodes)
        self.base_ids = sorted(base.nodes)
        rows = similarity_rows([candidate.nodes[c] for c in self.cand_ids],
                               [base.nodes[b] for b in self.base_ids], profile.similarity_mode,
                               profile.provider, profile.case_sensitive_labels, profile.tau, cache)
        # Allowed substitutions and their costs, per candidate node in base id order.
        self.choices = {c: {self.base_ids[j]: 1.0 - sim for j, sim in row.items()}
                        for c, row in zip(self.cand_ids, rows)}
        self.cand_edges = [edge_key(e.source, e.target, e.label) for e in candidate.edges]
        self.base_edge_set = base.edge_keys()
        self.n_base_edges = len(self.base_edge_set)
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


def match(candidate: LabeledGraph, base: LabeledGraph | PartialModel, profile: DomainProfile,
          cache: SimilarityCache | None = None) -> MatchResult:
    """Lowest-cost alignment found: exact up to EXHAUSTIVE_LIMIT nodes a
    side, otherwise the warm start refined to a local minimum. A function of
    the candidate, base and profile alone; `cache` only saves recomputing
    label vectors and similarities across calls (a fresh one when None)."""
    inst = _Instance(candidate, base, profile, cache)
    if len(inst.cand_ids) <= EXHAUSTIVE_LIMIT and len(inst.base_ids) <= EXHAUSTIVE_LIMIT:
        node_map, total = _exhaustive(inst)
        return MatchResult(node_map, total, optimal=True)
    node_map, total = _refine(inst, _assignment_start(inst))
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
    """Bipartite assignment over nodes with local edge-neighborhood terms.

    The (n + m)-square matrix: substitution cost plus local edge term where
    the substitution is allowed, deletion costs on the diagonal of the top
    right block, insertion costs on that of the bottom left block, 1e6
    standing in for every forbidden entry and 0 in the bottom right block.
    The local edge term of substituting c by b is half the unshared incident
    edge labels, in and out, where sharing is multiset intersection. The
    size rule picks only the solver: _shortest_augmenting_path up to
    SMALL_LIMIT nodes, scipy's routine above it, on the same matrix."""
    n, m = len(inst.cand_ids), len(inst.base_ids)
    size = n + m
    matrix = _assignment_matrix(inst)
    if size <= SMALL_LIMIT:
        rows = [matrix[k:k + size] for k in range(0, size * size, size)]
        pairs = enumerate(_shortest_augmenting_path(rows))
    else:
        # A memoryview takes a shape only in a cast from bytes.
        square = memoryview(matrix).cast("B").cast("d", (size, size))
        pairs = zip(*_linear_sum_assignment()(square))
    node_map = {}
    for i, j in pairs:
        if i < n and j < m and inst.base_ids[j] in inst.choices[inst.cand_ids[i]]:
            node_map[inst.cand_ids[i]] = inst.base_ids[j]
    return node_map


def _assignment_matrix(inst: _Instance) -> array:
    """_assignment_start's matrix, row-major in one array('d'), which scipy
    reads through the buffer protocol without a copy. Only allowed
    substitutions are filled. Every entry other than a substitution cost is
    a small integer or a half, so each entry is rounded once."""
    n, m = len(inst.cand_ids), len(inst.base_ids)
    size = n + m
    cand = _label_counts(inst.cand_edges, inst.cand_ids)
    base = _label_counts(inst.base_edge_set, inst.base_ids)
    column = {b: j for j, b in enumerate(inst.base_ids)}
    matrix = array("d", [1e6]) * (size * size)
    for i, c in enumerate(inst.cand_ids):
        row = i * size
        counts, degree = cand[c]
        labels = counts.items()
        for b, sub in inst.choices[c].items():
            base_counts, base_degree = base[b]
            unshared = degree + base_degree
            # An explicit loop: a generator per entry costs more than the rest.
            for key, k in labels:
                base_k = base_counts.get(key)
                if base_k:
                    unshared -= 2 * (k if k < base_k else base_k)
            matrix[row + column[b]] = sub + 0.5 * unshared
        matrix[row + m + i] = 1.0 + 0.5 * degree
    zeros = array("d", [0.0]) * n
    for j, b in enumerate(inst.base_ids):
        row = (n + j) * size
        matrix[row + j] = 1.0 + 0.5 * base[b][1]
        matrix[row + m:row + size] = zeros
    return matrix


def _label_counts(edges, ids: list[str]) -> dict[str, tuple[dict[tuple[str, str], int], int]]:
    """Per node: its incident edges counted by direction and label, and
    their total, the degree (a self-loop counts once each way)."""
    counts = {node_id: {} for node_id in ids}
    for s, t, l in edges:
        out, inc = counts[s], counts[t]
        out["out", l] = out.get(("out", l), 0) + 1
        inc["in", l] = inc.get(("in", l), 0) + 1
    return {node_id: (c, sum(c.values())) for node_id, c in counts.items()}


def _shortest_augmenting_path(cost: Sequence[Sequence[float]]) -> list[int]:
    """Minimum-cost assignment of a cost matrix with no more rows than
    columns and no NaN or -inf entry: the column of each row.

    A line-by-line port of scipy's linear_sum_assignment (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"): the same scan
    order, tie-breaks and floating-point expressions, so it returns scipy's
    columns, ties included. Raises ValueError when no assignment has a
    finite cost.
    """
    nr, nc = len(cost), len(cost[0]) if cost else 0
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        # Dijkstra-like search for the shortest augmenting path from cur_row.
        # Filling `remaining` in reverse makes a constant matrix's answer
        # the identity.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        visited_rows, visited_cols = [], []
        min_val = 0.0
        i, sink = cur_row, -1
        while sink == -1:
            visited_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # Update the dual variables, then augment along the path.
        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


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


def _refine(inst: _Instance, node_map: dict[str, str]) -> tuple[dict[str, str], float]:
    """Greedy local search from the warm start, in rounds, until a round
    takes no move. A round first remaps each candidate node, in id order,
    to each image it may take (free or its own, in base id order), then
    swaps the images of each pair of mapped nodes. A move is taken when it
    lowers the cost by more than 1e-12, so the search is strict descent over
    finitely many node maps and ends.

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
    while improved:
        improved = False
        for c in inst.cand_ids:
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
