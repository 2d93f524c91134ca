"""abscon: merge partially-correct candidate graph models into a single
output graph that satisfies domain well-formedness constraints while
maximizing agreement with the candidates.

The root exports the pipeline (parse, abstract, concretize or solve_partial,
check, serialize), the solver steps behind concretize (build_problem,
weights, solve, and brute_force, the exact oracle) and the types and errors
these take, return or raise. Everything else stays in its own module.
"""

from .abstraction import PartialModel, abstract
from .concretize import Solution, brute_force, concretize, solve, solve_partial, weights
from .constraints import ConsistencyReport, ConstraintProblem, build_problem, check
from .domains import DomainProfile, profile
from .errors import AbsconError, InfeasibleModel, ModelSyntaxError
from .graph import LabeledGraph
from .notation import Notation, parse, serialize

__all__ = [
    "AbsconError",
    "ConsistencyReport",
    "ConstraintProblem",
    "DomainProfile",
    "InfeasibleModel",
    "LabeledGraph",
    "ModelSyntaxError",
    "Notation",
    "PartialModel",
    "Solution",
    "abstract",
    "brute_force",
    "build_problem",
    "check",
    "concretize",
    "parse",
    "profile",
    "serialize",
    "solve",
    "solve_partial",
    "weights",
]
