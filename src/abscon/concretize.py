"""Constrained maximum-likelihood selection over a partial model.

The objective is binary cross-entropy over element existence probabilities;
maximizing it is equivalent (up to an additive constant) to maximizing the
sum of logit weights of the selected elements, which is what the solver and
its brute-force oracle both do.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .abstraction import PartialModel
from .constraints import (
    GE,
    LE,
    ConstraintProblem,
    build_problem,
    check,
    edge_var,
    node_var,
)
from .domains import DomainProfile
from .errors import InfeasibleModel, TooLarge
from .graph import LabeledGraph

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMED_OUT_BEST = "timed_out_best"
# The status report.json and per_sample.csv give each solver status.
REPORTED = {OPTIMAL: "ok", INFEASIBLE: "infeasible", TIMED_OUT_BEST: "timed_out"}
# Why a solution holds no checked graph, by solver status.
NO_GRAPH = {OPTIMAL: "the optimal selection fails the domain check",
            INFEASIBLE: "no combination of candidate elements satisfies the domain constraints",
            TIMED_OUT_BEST: "solver timed out before finding any consistent selection"}

BRUTE_FORCE_LIMIT = 20
_TOL = 1e-12


@dataclass
class Solution:
    assignment: dict[str, int] | None
    objective: float
    status: str
    nodes_explored: int = 0
    graph: LabeledGraph | None = None  # the checked selection (solve_partial only)


def weights(partial: PartialModel) -> dict[str, float]:
    """Logit weights of the clamped probabilities (see _clamped)."""
    if partial.n_candidates < 1:
        raise ValueError("partial model has no candidates")
    out: dict[str, float] = {}

    def logit(count: int) -> float:
        p = _clamped(count, partial.n_candidates)
        return math.log(p) - math.log(1.0 - p)

    for elem_id, elem in partial.nodes.items():
        out[node_var(elem_id)] = logit(elem.count)
    for key, elem in partial.edges.items():
        out[edge_var(key)] = logit(elem.count)
    return out


def _clamped(count: int, n: int) -> float:
    """count / n clamped to [eps, 1 - eps] with eps = 1/(2 n): unanimous
    elements stay droppable when constraints demand it, yet remain strictly
    preferred over majority ones."""
    eps = 1.0 / (2 * n)
    return min(max(count / n, eps), 1.0 - eps)


# ---------------------------------------------------------------------------
# Branch and bound


def _best_choice(edges, values, need: int, slots: int) -> tuple[float, int, int, int]:
    """Best admissible choice among edges sorted by weight: the ones fixed
    to 1, then free ones while they help or are needed, at most `slots` free
    ones. Returns (weight, edge count, unmet need, slots left). Zero-weight
    edges count towards the tie count but add no weight."""
    gain = 0.0
    count = 0
    for e, we in edges:
        x = values[e]
        if x == 1:
            gain += we
            count += 1
        elif x == -1 and slots > 0:
            if we > 0.0 or need > 0:
                gain += we
                count += 1
                slots -= 1
                need -= 1
            elif we > -_TOL:
                count += 1
                slots -= 1
    return gain, count, need, slots


class _Solver:
    """Depth-first branch and bound over the binary selection variables.

    A search node costs time in proportion to what changed there. One
    update, _shift(), applies a variable's fixing in assign() and takes it
    back in undo_to(): it keeps the linear-row sums, the node bitmasks and
    per-node counts of in- and out-edges fixed to 1 and to 0, and marks the
    nodes whose bound terms must be recomputed. Only the totals are taken
    over all nodes, with builtin sum and max, so no float total drifts over
    many undos.

    It relies on the rules build_problem() states for every domain: a
    single source, from which every node is reachable. The other whole-graph
    rules (acyclic, single_sink) it reads from the problem.

    The bound charges every edge to its target, or to its source when the
    source has a minimum out-degree (a flowchart decision). Under the single
    source each selected node but one (the root) has at least one selected
    in-edge, and at most as many as its stated in-degree limit. So a node's
    term is its weight plus its best admissible choice of the edges charged
    to it (clipped at 0 while the node is free), and the best root waiver
    (root term minus that term) is added once.
    """

    def __init__(self, problem: ConstraintProblem, timeout: float):
        self.problem = problem
        self.deadline = time.monotonic() + timeout
        # Node variables first, in problem.nodes order, so that a node's
        # variable index is also its bit in the node bitmasks.
        self.vars = list(problem.nodes) + sorted(problem.edges)
        self.index = {v: i for i, v in enumerate(self.vars)}
        # A leaf's assignment and objective go by variable name, so that the
        # float sum does not depend on the index order.
        self.by_name = sorted(range(len(self.vars)), key=self.vars.__getitem__)
        n_vars = len(self.vars)
        self.weights = [float(problem.weights.get(v, 0.0)) for v in self.vars]
        self.order = sorted(
            range(n_vars),
            key=lambda i: (-abs(self.weights[i]), self.vars[i]),
        )
        self.values = [-1] * n_vars
        self.trail: list[int] = []

        self.acyclic = "acyclic" in problem.global_rules
        self.single_sink = "single_sink" in problem.global_rules

        n = len(problem.nodes)
        # An edge's ends are (source, target, its node pair).
        self.ends: list[tuple[int, int, int] | None] = [None] * n_vars
        self.incident: list[list[int]] = [[] for _ in range(n)]
        self.in_edges: list[list[int]] = [[] for _ in range(n)]
        self.out_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        pairs: dict[tuple[int, int], int] = {}
        for var, edge in problem.edges.items():
            e = self.index[var]
            s, t = self.index[edge.source], self.index[edge.target]
            self.ends[e] = (s, t, pairs.setdefault((s, t), len(pairs)))
            self.incident[s].append(e)
            self.incident[t].append(e)
            self.in_edges[t].append(e)
            self.out_adj[s].append((e, t))
        n_in = [len(es) for es in self.in_edges]
        self.n_out = [len(es) for es in self.out_adj]

        # What the problem states about each node: its degree limits.
        nodes = list(problem.nodes.values())
        self.cap_in = [c if nv.max_in is None else min(c, nv.max_in) for c, nv in zip(n_in, nodes)]
        self.min_out = [nv.min_out for nv in nodes]
        min_in = [nv.min_in for nv in nodes]

        self.rows: list[tuple[list[tuple[int, int]], str, int, int]] = []
        self.row_lo: list[int] = []
        self.row_hi: list[int] = []
        self.watch: list[list[tuple[int, int, int]]] = [[] for _ in range(n_vars)]
        for lc in problem.linear:
            terms = [(c, self.index[v]) for c, v in lc.terms]
            ci = len(self.rows)
            max_c = max((abs(c) for c, _ in terms), default=0)
            self.rows.append((terms, lc.relation, lc.bound, max_c))
            self.row_lo.append(sum(min(c, 0) for c, _ in terms))
            self.row_hi.append(sum(max(c, 0) for c, _ in terms))
            for c, vi in terms:
                self.watch[vi].append((ci, max(c, 0), min(c, 0)))
        self.root_ok = [m == 0 for m in min_in]

        # An edge out of a node with an out-degree minimum is charged to its
        # source; every other edge to its target.
        def by_weight(es):
            return [(e, self.weights[e]) for e in sorted(es, key=lambda e: (-self.weights[e], e))]

        self.in_sorted = [by_weight([e for e in es if not self.min_out[self.ends[e][0]]])
                          for es in self.in_edges]
        self.in_foreign = [[e for e in es if self.min_out[self.ends[e][0]]] for es in self.in_edges]
        self.out_sorted = [by_weight([e for e, _ in adj]) if self.min_out[p] else []
                           for p, adj in enumerate(self.out_adj)]
        self.lo_in = [max(m, 1) for m in min_in]

        # Incremental state. Node sets are bitmasks over nodes: alive
        # (not fixed to 0), selected, potential sources, and per node the
        # targets it still has an edge to that is not fixed to 0.
        self.pair_live = [0] * len(pairs)
        self.live_out = [0] * n
        for s, t in pairs:
            self.live_out[s] |= 1 << t
        for ends in self.ends:
            if ends is not None:
                self.pair_live[ends[2]] += 1
        self.alive = (1 << n) - 1
        self.selected = 0
        self.potential = 0
        self.in1 = [0] * n
        self.out1 = [0] * n
        self.out0 = [0] * n
        self.term = [0.0] * n
        self.tie = [0] * n
        self.root_tie = [1] * n
        self.waiver = [-math.inf] * n
        self.must_root: set[int] = set()
        self.flags = [(False, False, False)] * n
        self.n_psink = 0
        self.n_dsink = 0
        self.dirty = set(range(n))
        self.new_ones: list[int] = []

        self.best_assignment: dict[str, int] | None = None
        self.best_obj = -math.inf
        self.best_count = -1
        self.nodes_explored = 0
        self.timed_out = False

    # -- assignment machinery

    def assign(self, vi: int, value: int, queue: list[int]) -> bool:
        current = self.values[vi]
        if current != -1:
            return current == value
        self.values[vi] = value
        self.trail.append(vi)
        queue.append(vi)
        self._shift(vi, value, 1)
        return True

    def undo_to(self, mark: int) -> None:
        trail, values = self.trail, self.values
        while len(trail) > mark:
            vi = trail.pop()
            self._shift(vi, values[vi], -1)
            values[vi] = -1
        self.new_ones.clear()

    def _shift(self, vi: int, value: int, d: int) -> None:
        """Apply (d = 1) or take back (d = -1) the effect of fixing variable
        vi to value, and mark the nodes whose bound terms it changes."""
        row_lo, row_hi = self.row_lo, self.row_hi
        if value:
            for ci, pos, neg in self.watch[vi]:
                row_lo[ci] += d * pos
                row_hi[ci] += d * neg
        else:
            for ci, pos, neg in self.watch[vi]:
                row_lo[ci] -= d * neg
                row_hi[ci] -= d * pos
        ends = self.ends[vi]
        if ends is None:
            if value:
                self.selected ^= 1 << vi
            else:
                self.alive ^= 1 << vi
            self.dirty.add(vi)
            return
        s, t, k = ends
        if value:
            self.in1[t] += d
            self.out1[s] += d
            if d > 0 and self.acyclic:  # only the acyclic check reads them
                self.new_ones.append(vi)
        else:
            self.out0[s] += d
            self.pair_live[k] -= d
            if self.pair_live[k]:
                self.live_out[s] |= 1 << t
            else:
                self.live_out[s] &= ~(1 << t)
        self.dirty.add(t)
        if self.single_sink or self.min_out[s]:
            self.dirty.add(s)

    def propagate(self, queue: list[int]) -> bool:
        touched = queue
        values, ends_of, assign = self.values, self.ends, self.assign
        while touched:
            next_rows = set()
            while touched:
                vi = touched.pop()
                value = values[vi]
                ends = ends_of[vi]
                if ends is None:
                    if value == 0:
                        for e in self.incident[vi]:
                            if not assign(e, 0, touched):
                                return False
                elif value == 1:
                    if not assign(ends[0], 1, touched) or not assign(ends[1], 1, touched):
                        return False
                for ci, _, _ in self.watch[vi]:
                    next_rows.add(ci)
            for ci in next_rows:
                if not self._propagate_linear(ci, touched):
                    return False
        return True

    def _propagate_linear(self, ci: int, queue: list[int]) -> bool:
        terms, relation, bound, max_c = self.rows[ci]
        return ((relation == GE or self._tighten(terms, max_c, bound - self.row_lo[ci], 0, queue))
                and (relation == LE or self._tighten(terms, max_c, self.row_hi[ci] - bound, 1, queue)))

    def _tighten(self, terms, max_c: int, slack: int, forced: int, queue: list[int]) -> bool:
        """One side of a row: fails when its slack is negative, else fixes
        each free term whose coefficient exceeds the slack, a positive one
        to forced and a negative one to 1 - forced. Forcing a term never
        moves the sum the slack was taken from, so the slack holds while
        the terms are scanned."""
        if slack < 0:
            return False
        if max_c > slack:
            values = self.values
            for c, vi in terms:
                if values[vi] == -1 and (c > slack or -c > slack):
                    self.assign(vi, forced if c > 0 else 1 - forced, queue)
        return True

    # -- per-node state, recomputed for the nodes marked dirty

    def _flush(self) -> None:
        for p in self.dirty:
            self._refresh(p)
        self.dirty.clear()

    def _refresh(self, p: int) -> None:
        values = self.values
        val = values[p]
        in1 = self.in1[p]
        sel = val == 1
        if self.single_sink:
            psink = val != 0 and self.out1[p] == 0
            dsink = sel and self.out0[p] == self.n_out[p]
        else:
            psink = dsink = False
        flags = (val != 0 and in1 == 0, psink, dsink)
        old = self.flags[p]
        if flags != old:
            self.flags[p] = flags
            if flags[0] != old[0]:
                self.potential ^= 1 << p
            self.n_psink += psink - old[1]
            self.n_dsink += dsink - old[2]

        if val == 0:
            self.term[p], self.tie[p], self.waiver[p] = 0.0, 0, -math.inf
            self.root_tie[p] = 0
            self.must_root.discard(p)
            return
        # The out-edges this node is charged for, then its in-edges as a
        # non-root node; a free in-edge charged to its source meets the need
        # for one at no cost here.
        w = self.weights[p]
        total, count, dead = w, 1, False
        if self.out_sorted[p]:
            gain, n_out, unmet, _ = _best_choice(
                self.out_sorted[p], values, self.min_out[p] - self.out1[p], self.n_out[p])
            total += gain
            count += n_out
            dead = unmet > 0
        root = total if in1 == 0 and self.root_ok[p] and not dead else -math.inf
        root_tie = count
        need = self.lo_in[p] - in1
        slots = self.cap_in[p] - in1
        if need > 0 and self.in_foreign[p]:
            spare = min(need, slots, sum(1 for e in self.in_foreign[p] if values[e] == -1))
            need -= spare
            slots -= spare
        gain, n_in, need, slots = _best_choice(self.in_sorted[p], values, need, slots)
        total += gain
        count += n_in
        if need > 0 or slots < 0 or dead:  # can only be the root
            term, tie = 0.0, 0
            if sel:
                self.must_root.add(p)
            else:
                self.must_root.discard(p)
        else:
            self.must_root.discard(p)
            if sel:
                term, tie = total, count
            else:
                term = total if total > 0.0 else 0.0
                tie = count if total > -_TOL else 0
        self.term[p], self.tie[p], self.waiver[p] = term, tie, root - term
        self.root_tie[p] = root_tie

    def bound(self) -> float:
        """Upper bound on the objective of any completion that satisfies
        the problem."""
        if self.dirty:
            self._flush()
        must = self.must_root
        if must:
            if len(must) > 1:
                return -math.inf
            (p,) = must
            return sum(self.term) + self.waiver[p]
        return sum(self.term) + max(self.waiver, default=-math.inf)

    def tie_count(self) -> int:
        """Upper bound on the element count of any completion whose
        objective reaches bound() (to within the pruning tolerance). Call
        after bound(), which brings the per-node terms up to date."""
        tie = sum(self.tie)
        if self.must_root:
            return tie + max(self.root_tie[p] for p in self.must_root)
        # The root counts its root choice instead of its non-root one.
        top = max(self.waiver, default=-math.inf) - 2 * _TOL
        return tie + max(
            (r - t for r, t, w in zip(self.root_tie, self.tie, self.waiver) if w >= top),
            default=0,
        )

    # -- structural pruning (sound: prunes only provably doomed subtrees)

    def structural_conflict(self) -> bool:
        if self.dirty:
            self._flush()
        if self.acyclic and self.new_ones:
            for e in self.new_ones:
                if self._reaches(self.ends[e][1], self.ends[e][0]):
                    return True
            self.new_ones.clear()
        # Two selected nodes that can only be the root; a selection with no
        # potential source at all fails the reachability test below.
        if len(self.must_root) > 1:
            return True
        if self.selected and not self._all_reachable():
            return True
        if self.single_sink:
            if self.n_dsink > 1 or (self.selected and not self.n_psink):
                return True
        return False

    def _reaches(self, start: int, goal: int) -> bool:
        """Is there a path start -> goal over edges fixed to 1?"""
        if start == goal:
            return True
        values, out1 = self.values, self.out1
        seen = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            if not out1[p]:
                continue
            for e, t in self.out_adj[p]:
                if values[e] == 1 and t not in seen:
                    if t == goal:
                        return True
                    seen.add(t)
                    stack.append(t)
        return False

    def _all_reachable(self) -> bool:
        """Optimistic reachability: every selected node is reachable from
        some potential source via edges and nodes not yet excluded."""
        live_out, alive, selected = self.live_out, self.alive, self.selected
        reached = frontier = self.potential
        while frontier and selected & ~reached:
            targets = 0
            while frontier:
                low = frontier & -frontier
                targets |= live_out[low.bit_length() - 1]
                frontier ^= low
            frontier = targets & alive & ~reached
            reached |= frontier
        return not selected & ~reached

    # -- search

    def search(self) -> None:
        # Each fixed variable is assigned once, before propagation: none can fail.
        queue: list[int] = []
        for var, value in self.problem.fixed.items():
            self.assign(self.index[var], value, queue)
        if not self.propagate(queue):
            return
        if self.structural_conflict():
            return
        self._dfs(0)

    def _dfs(self, start: int) -> None:
        """Search below the current node; every variable before position
        start of the branching order is already assigned."""
        self.nodes_explored += 1
        if self.nodes_explored % 128 == 0 and time.monotonic() > self.deadline:
            self.timed_out = True
        if self.timed_out:
            return

        bound = self.bound()
        if bound < self.best_obj - _TOL or bound == -math.inf:  # -inf: no completion
            return
        if bound <= self.best_obj + _TOL and self.tie_count() <= self.best_count:
            return

        values, order = self.values, self.order
        while start < len(order) and values[order[start]] != -1:
            start += 1
        if start == len(order):
            assignment = {self.vars[i]: values[i] for i in self.by_name}
            if not self.problem.satisfied(assignment):
                return
            obj = float(sum(self.weights[i] for i in self.by_name if values[i] == 1))
            selected = values.count(1)
            if (
                obj > self.best_obj + _TOL
                or (abs(obj - self.best_obj) <= _TOL and selected > self.best_count)
            ):
                self.best_obj = obj
                self.best_count = selected
                self.best_assignment = assignment
            return

        branch_var = order[start]
        preferred = 1 if self.weights[branch_var] >= 0 else 0
        for value in (preferred, 1 - preferred):
            mark = len(self.trail)
            queue: list[int] = []
            if self.assign(branch_var, value, queue) and self.propagate(queue):
                if not self.structural_conflict():
                    self._dfs(start + 1)
            self.undo_to(mark)
            if self.timed_out:
                return


def solve(problem: ConstraintProblem, timeout: float = 60.0) -> Solution:
    """Branch-and-bound over the binary selection variables.

    Returns a provably optimal solution, INFEASIBLE when no assignment
    satisfies the constraints, or the best solution found at timeout.
    """
    solver = _Solver(problem, timeout)
    solver.search()
    if solver.timed_out:
        status = TIMED_OUT_BEST
    elif solver.best_assignment is None:
        return Solution(None, -math.inf, INFEASIBLE, solver.nodes_explored)
    else:
        status = OPTIMAL
    return Solution(solver.best_assignment, solver.best_obj, status, solver.nodes_explored)


# ---------------------------------------------------------------------------
# Brute-force oracle


def brute_force(problem: ConstraintProblem) -> Solution:
    """Enumerate all assignments, filtering with the graph-level checker.

    Independent verification path for solve(): the domain rules are applied
    to the induced concrete graph with the problem's own profile, not to the
    encoded constraints.
    """
    import numpy as np

    variables = sorted(problem.variables)
    k = len(variables)
    if k > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force is limited to {BRUTE_FORCE_LIMIT} variables")

    codes = np.arange(1 << k, dtype=np.int64)
    bits = {v: (codes >> (k - 1 - i)) & 1 for i, v in enumerate(variables)}

    mask = np.ones(1 << k, dtype=bool)
    for var, value in problem.fixed.items():
        mask &= bits[var] == value
    for var, edge in problem.edges.items():
        mask &= bits[var] <= bits[edge.source] & bits[edge.target]
    for lc in problem.linear:
        lhs = np.zeros(1 << k, dtype=np.int64)
        for c, v in lc.terms:
            lhs += c * bits[v]
        if lc.relation == LE:
            mask &= lhs <= lc.bound
        elif lc.relation == GE:
            mask &= lhs >= lc.bound
        else:
            mask &= lhs == lc.bound

    weight_vec = np.zeros(1 << k)
    for i, v in enumerate(variables):
        weight_vec += problem.weights.get(v, 0.0) * bits[v]

    survivors = np.nonzero(mask)[0]
    if survivors.size == 0:
        return Solution(None, -math.inf, INFEASIBLE)
    # Visit candidates best-objective first; ties in ascending code order,
    # which is lexicographic over the assignment tuple.
    order = survivors[np.argsort(-weight_vec[survivors], kind="stable")]
    for code in order:
        assignment = {v: int((code >> (k - 1 - i)) & 1) for i, v in enumerate(variables)}
        if check(problem.induced_graph(assignment), problem.profile).consistent:
            return Solution(assignment, float(weight_vec[code]), OPTIMAL)
    return Solution(None, -math.inf, INFEASIBLE)


# ---------------------------------------------------------------------------
# End-to-end concretization


def solve_partial(partial: PartialModel, profile: DomainProfile,
                  solve_timeout: float | None = None) -> Solution:
    """build problem -> weights -> solve -> materialize -> check. The
    solution keeps the solver's status and node count; its graph is the
    selection's induced graph when that passes the domain checker."""
    problem = build_problem(partial, profile)
    problem.weights = weights(partial)
    solution = solve(problem, solve_timeout if solve_timeout is not None else profile.solve_timeout)
    if solution.assignment is not None:
        graph = problem.induced_graph(solution.assignment)
        # Every selection the solver keeps has passed problem.satisfied(),
        # so this is a safety net whatever the status.
        if check(graph, profile).consistent:
            solution.graph = graph
    return solution


def concretize(partial: PartialModel, profile: DomainProfile,
               solve_timeout: float | None = None) -> LabeledGraph:
    """solve_partial()'s graph: the optimum, or the best selection found when
    the solve timed out (solve_partial() gives the status). Raises
    InfeasibleModel when there is no checked selection."""
    solution = solve_partial(partial, profile, solve_timeout)
    if solution.graph is None:
        raise InfeasibleModel(NO_GRAPH[solution.status])
    return solution.graph
