"""Label and element similarity used by graph matching.

Node labels are compared either by exact (normalized) match or by cosine
similarity of text embeddings. Edges are compared by graph.edge_key.
similarity_rows scores every alignment, whatever its size, on the standard
library: exactly rounded cosines, kept for a run of alignments in a
SimilarityCache.
"""
from __future__ import annotations

import enum
import math
import operator
import os
from array import array
from typing import Protocol, Sequence

from .errors import ProviderFailure
from .graph import Node, NodeKind, normalize_label

try:  # hashlib's md5 maps OpenSSL's libcrypto: about 3.6 MB more resident memory
    from _md5 import md5
except ImportError:  # an interpreter built without the builtin module
    from hashlib import md5

EMBED_DIM = 256


class SimilarityMode(enum.Enum):
    EMBEDDING = "embedding"
    EXACT_LABEL = "exact"


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]:
        """Return one vector per text, all of equal dimension. A vector is
        any sequence of floats (a list, an array('d'), a 1-D ndarray). Any
        norm will do: the similarities divide by the norms themselves, and
        score a zero vector 0 against everything."""
        ...


def _bucket(feature: str) -> int:
    # md5 keeps the hash stable across runs and platforms.
    digest = md5(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % EMBED_DIM


def _hashed_vectors(texts: Sequence[str]) -> list[array]:
    """Hashed character-trigram + word-unigram term-frequency vectors of
    unit length, as array('d'); empty text maps to the zero vector. The
    counts are small integers, so the sum of their squares is exact and the
    length is the one any summation order gives."""
    out = []
    for text in texts:
        norm = normalize_label(text)
        features = ["w:" + word for word in norm.split()]
        features += ["t:" + norm[i : i + 3] for i in range(len(norm) - 2)]
        counts: dict[int, float] = {}
        for feature in features:
            bucket = _bucket(feature)
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        vec = array("d", bytes(8 * EMBED_DIM))
        if counts:
            length = math.sqrt(math.fsum(c * c for c in counts.values()))
            for bucket, c in counts.items():
                vec[bucket] = c / length
        out.append(vec)
    return out


class BuiltinProvider:
    """Deterministic offline substitute for a sentence-embedding service."""

    def embed(self, texts: Sequence[str]) -> list[array]:
        return _hashed_vectors(texts)


class RemoteProvider:
    """HTTP embedding service: POST {"texts": [...]} -> {"vectors": [[...]]}.

    The auth token is taken from the ABSCON_EMBED_TOKEN environment variable.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        import requests

        headers = {}
        token = os.environ.get("ABSCON_EMBED_TOKEN")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            resp = requests.post(
                self.endpoint, json={"texts": list(texts)}, headers=headers, timeout=self.timeout
            )
            resp.raise_for_status()
            vectors = resp.json()["vectors"]
        except Exception as exc:
            raise ProviderFailure(str(exc)) from exc
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProviderFailure("provider returned wrong number of vectors")
        out = [_floats(v) for v in vectors]
        if len({len(v) for v in out}) > 1:
            raise ProviderFailure("provider returned vectors of mixed dimension")
        return out


def _floats(vector) -> list[float]:
    """A provider's vector as a list of floats; ProviderFailure unless it is
    a list of finite JSON numbers."""
    try:
        if isinstance(vector, list) and all(
                type(x) in (int, float) and math.isfinite(x) for x in vector):
            return [float(x) for x in vector]
    except OverflowError:  # an integer beyond the float range
        pass
    raise ProviderFailure("provider returned a vector that is not a list of finite numbers")


class CachingProvider:
    """Memoizes embeddings; optionally falls back to the builtin provider."""

    def __init__(self, inner: EmbeddingProvider, fallback_to_builtin: bool = False):
        self.inner = inner
        self.fallback_to_builtin = fallback_to_builtin
        self._cache: dict[str, Sequence[float]] = {}

    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]:
        missing = sorted({t for t in texts if t not in self._cache})
        if missing:
            try:
                vectors = self.inner.embed(missing)
            except ProviderFailure:
                if not self.fallback_to_builtin:
                    raise
                vectors = _hashed_vectors(missing)
            self._cache.update(zip(missing, vectors))
        return [self._cache[t] for t in texts]


class SimilarityCache(dict):
    """Label vectors and label-pair similarities for alignments that share a
    provider, such as the folds of one abstract() call. cache[a][b] is the
    clipped cosine of labels a and b, computed on first lookup from the
    vectors that add() keeps: each label's nonzero coordinates and norm."""

    def __init__(self):
        self.vectors: dict[str, tuple[dict[int, float], float]] = {}
        self.dim: int | None = None

    def add(self, texts: Sequence[str], vectors: Sequence[Sequence[float]]) -> None:
        """Keep the texts' vectors. ProviderFailure when a vector's length
        differs from the first vector this cache saw, as when a provider
        falls back to builtin vectors after serving remote ones."""
        for text, vector in zip(texts, vectors):
            if self.dim is None:
                self.dim = len(vector)
            if len(vector) != self.dim:
                raise ProviderFailure(f"embedding of {text!r} has {len(vector)} dimensions,"
                                      f" not {self.dim} like the ones before it")
            entries = {k: float(x) for k, x in enumerate(vector) if x}
            norm = math.sqrt(math.fsum(x * x for x in entries.values()))
            self.vectors[text] = entries, norm or math.inf  # a zero vector scores 0

    def __missing__(self, text: str) -> _Cosines:
        cosines = self[text] = _Cosines(self, text)
        return cosines


class _Cosines(dict):
    def __init__(self, cache: SimilarityCache, text: str):
        self.cache, self.text = cache, text

    def __missing__(self, other: str) -> float:
        # The products commute and fsum is exactly rounded, so a pair scores
        # the same either way round, whichever vector the sum runs over.
        value = self.cache.get(other, {}).get(self.text)
        if value is None:
            (a, norm_a), (b, norm_b) = self.cache.vectors[self.text], self.cache.vectors[other]
            if len(b) < len(a):
                a, b = b, a
            products = (map(operator.mul, a.values(), b.values()) if len(a) == self.cache.dim
                        else (x * b[k] for k, x in a.items() if k in b))  # dense: same coordinates
            value = min(1.0, max(0.0, math.fsum(products) / (norm_a * norm_b)))
        self[other] = value
        return value


def similarity_rows(
    left: Sequence[Node],
    right: Sequence[Node],
    mode: SimilarityMode,
    provider: EmbeddingProvider,
    case_sensitive: bool,
    tau: float,
    cache: SimilarityCache | None = None,
) -> list[dict[int, float]]:
    """For each left node, {j: similarity} over the right nodes j whose
    similarity is at least tau, in increasing j. A node is anything with a
    `kind` and a `label`, such as a partial element, whose label is computed
    on each read, so each is read once. A similarity is 0 across node kinds
    and 1 for equal normalized labels; other pairs score 0 in exact mode,
    else their labels' clipped cosine (0 against a zero vector) from exactly
    rounded sums (math.fsum), so an entry depends neither on the other nodes
    in the call nor on the cache. The vectors come from at most one provider
    call, over the raw labels that need one and are not in the cache (a
    fresh one when None)."""
    cache = SimilarityCache() if cache is None else cache
    # (kind, normalized label, label) per node.
    left_keys, right_keys = [[(kind, normalize_label(label, case_sensitive), label)
                              for kind, label in [(n.kind, n.label) for n in nodes]]
                             for nodes in (left, right)]
    embedding = mode == SimilarityMode.EMBEDDING
    if embedding:
        # A label needs a vector when the other side has a node of its kind
        # with a different normalized label.
        texts = set()
        for keys, others in (left_keys, right_keys), (right_keys, left_keys):
            labels_of: dict[NodeKind, set[str]] = {}
            for kind, label, _ in others:
                labels_of.setdefault(kind, set()).add(label)
            texts.update(text for kind, label, text in keys
                         if not labels_of.get(kind, set()) <= {label})
        missing = sorted(texts.difference(cache.vectors))
        if missing:
            cache.add(missing, provider.embed(missing))

    # Each left node is scored against the right nodes of its kind, and in
    # exact mode only those with its normalized label: every other pair
    # scores 0, which only tau 0 allows.
    groups: dict = {}
    for j, (kind, label, text) in enumerate(right_keys):
        groups.setdefault(kind if embedding else (kind, label), []).append((j, label, text))
    rows = []
    for kind, label, text in left_keys:
        cosines = cache[text] if embedding else {}
        sims = {j: 1.0 if other == label else cosines[other_text]
                for j, other, other_text in groups.get(kind if embedding else (kind, label), ())}
        rows.append({**dict.fromkeys(range(len(right)), 0.0), **sims} if tau <= 0
                    else {j: sim for j, sim in sims.items() if sim >= tau})
    return rows
