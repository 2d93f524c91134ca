"""The branch-and-bound's pruning is sound at every search node.

Under any partial assignment that survives propagation, against every
completion that satisfies the problem:
- bound() is at least the best completion's objective;
- tie_count() is at least the element count of every completion whose
  objective is within _TOL of the bound (the tie-break prune relies on it);
- structural_conflict() does not fire.

The fixing is applied step by step, with state refreshed after each step and
some steps undone, and the incrementally kept state must equal that of a
solver given the same assignment anew.
"""
from __future__ import annotations

import copy
import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abscon.concretize import OPTIMAL, _TOL, _Solver, solve, weights
from abscon.constraints import build_problem
from abscon.domains import profile
from genutil import dense_partial_model, random_partial_model


def _fixed_solver(partial, domain: str, picks):
    """A solver after the problem's own fixings and every pick (variable
    position, value, undo afterwards) whose propagation succeeds without a
    structural conflict (the search never goes below one), with the
    incremental state refreshed after each step; None when the problem's
    fixings alone fail or conflict."""
    problem = build_problem(partial, profile(domain))
    problem.weights = weights(partial)
    solver = _Solver(problem, timeout=60.0)
    queue: list[int] = []
    for var, value in problem.fixed.items():
        if not solver.assign(solver.index[var], value, queue):
            return None
    if not solver.propagate(queue) or solver.structural_conflict():
        return None
    for position, value, undo in picks:
        vi = position % len(solver.vars)
        mark = len(solver.trail)
        queue = []
        if solver.assign(vi, value, queue) and solver.propagate(queue):
            solver.bound()
            if not solver.structural_conflict() and not undo:
                continue
        solver.undo_to(mark)
    return solver


def _state(solver):
    return (solver.bound(), solver.tie_count(), solver.structural_conflict(),
            solver.alive, solver.selected, solver.potential, solver.live_out)


def _rebuilt(solver):
    fresh = _Solver(solver.problem, timeout=60.0)
    for vi, value in enumerate(solver.values):
        if value != -1:
            fresh.assign(vi, value, [])
    return fresh


def _completions(solver):
    """(objective, element count) of every satisfying completion."""
    problem = solver.problem
    free = [i for i, v in enumerate(solver.values) if v == -1]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        values = list(solver.values)
        for i, b in zip(free, bits):
            values[i] = b
        assignment = dict(zip(solver.vars, values))
        if problem.satisfied(assignment):
            objective = sum(problem.weights[v] for v, x in assignment.items() if x == 1)
            out.append((objective, sum(values)))
    return out


@settings(max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    domain=st.sampled_from(["flowchart", "taxonomy", "clevr"]),
    max_vars=st.integers(3, 12),
    picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 1), st.booleans()), max_size=8),
)
def test_bound_and_tie_count_cover_every_completion(seed, domain, max_vars, picks):
    partial = random_partial_model(random.Random(seed), domain, max_vars=max_vars)
    solver = _fixed_solver(partial, domain, picks)
    assume(solver is not None)
    assert _state(solver) == _state(_rebuilt(solver))
    completions = _completions(solver)
    assume(completions)
    bound, tie = solver.bound(), solver.tie_count()
    assert bound >= max(obj for obj, _ in completions) - 1e-9
    for obj, count in completions:
        if abs(obj - bound) <= _TOL:
            assert tie >= count, (obj, bound, count, tie)
    assert not solver.structural_conflict()


def test_dense_taxonomy_is_proven_within_a_node_cap():
    # 1299 search nodes when this test was written; the sum-of-positive-
    # weights bound it replaced did not prove this instance in 20 s.
    partial = dense_partial_model(random.Random(5), "taxonomy", 20)
    assert (len(partial.nodes), len(partial.edges)) == (20, 60)
    problem = build_problem(partial, profile("taxonomy"))
    problem.weights = weights(partial)
    solution = solve(problem, timeout=30.0)
    assert solution.status == OPTIMAL
    assert 0 < solution.nodes_explored <= 2 * 1299


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    domain=st.sampled_from(["flowchart", "taxonomy"]),
    n=st.integers(5, 9),
    picks=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 1), st.booleans()), max_size=20),
)
def test_incremental_state_matches_a_fresh_solver(seed, domain, n, picks):
    # Dense models give decisions many labeled arms, so edges charged to
    # their source change often; no enumeration, so larger models fit.
    solver = _fixed_solver(dense_partial_model(random.Random(seed), domain, n), domain, picks)
    assume(solver is not None)
    assert _state(solver) == _state(_rebuilt(solver))


# Everything assign() changes that undo_to() must take back exactly.
_UNDONE = ("values", "row_lo", "row_hi", "in1", "in0", "out1", "out0", "pair_live", "live_out",
           "alive", "selected")


def _undone_state(solver) -> dict:
    return {name: copy.copy(getattr(solver, name)) for name in _UNDONE}


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    domain=st.sampled_from(["flowchart", "taxonomy", "clevr"]),
    max_vars=st.integers(3, 14),
    steps=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 1)), min_size=1, max_size=10),
)
def test_undo_to_restores_the_state_at_its_mark(seed, domain, max_vars, steps):
    problem = build_problem(random_partial_model(random.Random(seed), domain, max_vars),
                            profile(domain))
    solver = _Solver(problem, timeout=60.0)
    marks = []
    for position, value in steps:
        marks.append((len(solver.trail), _undone_state(solver)))
        queue: list[int] = []
        if not (solver.assign(position % len(solver.vars), value, queue)
                and solver.propagate(queue)):
            break  # a failed step leaves a partial trail, which is undone too
    for mark, state in reversed(marks):
        solver.undo_to(mark)
        assert _undone_state(solver) == state
