"""abscon: merge partially-correct candidate graph models into a single
output graph that satisfies domain well-formedness constraints while
maximizing agreement with the candidates."""

from .abstraction import PartialElement, PartialModel, abstract, mlc
from .concretize import Solution, brute_force, concretize, solve, weights
from .constraints import (
    ConsistencyReport,
    ConstraintProblem,
    GlobalConstraint,
    LinearConstraint,
    build_problem,
    check,
)
from .domains import DomainProfile, profile
from .errors import (
    AbsconError,
    DuplicateEdge,
    EmptyPool,
    EndpointError,
    IncompatibleNotation,
    InfeasibleModel,
    ModelSyntaxError,
    ProviderFailure,
    TooLarge,
    UnknownDomain,
    UnknownNode,
)
from .graph import ACTIVITY, CONCEPT, DECISION, Edge, LabeledGraph, Node, NodeKind, normalize_label
from .matching import MatchResult, exhaustive_match, match
from .notation import Notation, ParsedCandidate, extract_code_block, parse, serialize
from .similarity import SimilarityMode, builtin_embed

__all__ = [
    "ACTIVITY",
    "CONCEPT",
    "DECISION",
    "AbsconError",
    "ConsistencyReport",
    "ConstraintProblem",
    "DomainProfile",
    "DuplicateEdge",
    "Edge",
    "EmptyPool",
    "EndpointError",
    "GlobalConstraint",
    "IncompatibleNotation",
    "InfeasibleModel",
    "LabeledGraph",
    "LinearConstraint",
    "MatchResult",
    "ModelSyntaxError",
    "Node",
    "NodeKind",
    "Notation",
    "ParsedCandidate",
    "PartialElement",
    "PartialModel",
    "ProviderFailure",
    "SimilarityMode",
    "Solution",
    "TooLarge",
    "UnknownDomain",
    "UnknownNode",
    "abstract",
    "brute_force",
    "build_problem",
    "builtin_embed",
    "check",
    "concretize",
    "exhaustive_match",
    "extract_code_block",
    "match",
    "mlc",
    "normalize_label",
    "parse",
    "profile",
    "serialize",
    "solve",
    "weights",
]
