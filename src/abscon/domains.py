"""Per-domain configuration bundles tying together notation, similarity, and
constraint checking defaults."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import UnknownDomain
from .notation import Notation
from .similarity import BuiltinProvider, CachingProvider, EmbeddingProvider, SimilarityMode

FLOWCHART = "flowchart"
TAXONOMY = "taxonomy"
CLEVR = "clevr"

DOMAINS = (FLOWCHART, TAXONOMY, CLEVR)


@dataclass
class DomainProfile:
    name: str
    notation: Notation
    similarity_mode: SimilarityMode
    provider: EmbeddingProvider = field(default_factory=lambda: CachingProvider(BuiltinProvider()))
    tau: float = 0.5
    match_timeout: float = 5.0
    solve_timeout: float = 60.0
    case_sensitive_labels: bool = False
    taxonomy_require_connected: bool = True

    def __post_init__(self):
        # Every profile, overrides included (dataclasses.replace re-runs
        # this), is checked here, so a bad config value never reaches a stage.
        if not _is_number(self.tau) or not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be a number in [0, 1], not {self.tau!r}")
        for name in ("match_timeout", "solve_timeout"):
            value = getattr(self, name)
            if not _is_number(value) or not value >= 0.0:
                raise ValueError(f"{name} must be a non-negative number, not {value!r}")
        for name in ("case_sensitive_labels", "taxonomy_require_connected"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def profile(domain: str, **overrides) -> DomainProfile:
    if domain == FLOWCHART:
        p = DomainProfile(FLOWCHART, Notation.MERMAID_FLOWCHART, SimilarityMode.EMBEDDING)
    elif domain == TAXONOMY:
        p = DomainProfile(TAXONOMY, Notation.TAXONOMY_EDGES, SimilarityMode.EXACT_LABEL)
    elif domain == CLEVR:
        p = DomainProfile(CLEVR, Notation.CLEVR_PROGRAM, SimilarityMode.EXACT_LABEL)
    else:
        raise UnknownDomain(domain)
    return replace(p, **overrides) if overrides else p
