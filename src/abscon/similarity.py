"""Label and element similarity used by graph matching.

Node labels are compared either by exact (normalized) match or by cosine
similarity of text embeddings. Edges are compared by graph.edge_key.
"""
from __future__ import annotations

import enum
import math
import os
from array import array
from typing import TYPE_CHECKING, Protocol, Sequence

from .errors import ProviderFailure
from .graph import Node, NodeKind, normalize_label

try:  # hashlib's md5 maps OpenSSL's libcrypto: about 3.6 MB more resident memory
    from _md5 import md5
except ImportError:  # an interpreter built without the builtin module
    from hashlib import md5

if TYPE_CHECKING:  # numpy is imported only above matching.SMALL_LIMIT: about 14 MB, 0.1 s
    import numpy as np

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


def similarity_matrix(
    left: Sequence[Node],
    right: Sequence[Node],
    mode: SimilarityMode,
    provider: EmbeddingProvider,
    case_sensitive: bool,
) -> np.ndarray:
    """len(left) x len(right) similarities in [0, 1].

    0 whenever the node kinds differ, 1 for equal normalized labels; other
    pairs score 0 in exact mode and the clipped cosine of their label
    embeddings otherwise (0 against a zero vector). All embeddings come from
    a single provider call over the distinct labels that need one.
    similarity_rows gives the same entries on the standard library; its
    cosines are exactly rounded sums (math.fsum), so the two agree to within
    a few ulps, not bit for bit.
    """
    import numpy as np

    kinds: dict[NodeKind, int] = {}
    labels: dict[str, int] = {}

    def intern(nodes: Sequence[Node]) -> tuple[np.ndarray, np.ndarray]:
        kind_ids = [kinds.setdefault(n.kind, len(kinds)) for n in nodes]
        label_ids = [
            labels.setdefault(normalize_label(n.label, case_sensitive), len(labels)) for n in nodes
        ]
        return np.array(kind_ids, dtype=np.intp), np.array(label_ids, dtype=np.intp)

    left_kind, left_label = intern(left)
    right_kind, right_label = intern(right)
    same_kind = left_kind[:, None] == right_kind[None, :]
    same_label = left_label[:, None] == right_label[None, :]
    sim = (same_kind & same_label).astype(float)
    pending = same_kind & ~same_label
    if mode == SimilarityMode.EXACT_LABEL or not pending.any():
        return sim

    rows = np.flatnonzero(pending.any(axis=1))
    cols = np.flatnonzero(pending.any(axis=0))
    texts = sorted({left[i].label for i in rows} | {right[j].label for j in cols})
    vectors = provider.embed(texts)
    vector_of = dict(zip(texts, vectors))
    a = np.array([vector_of[left[i].label] for i in rows], dtype=float)
    b = np.array([vector_of[right[j].label] for j in cols], dtype=float)
    norm_a = np.array([np.linalg.norm(v) for v in a])
    norm_b = np.array([np.linalg.norm(v) for v in b])
    # einsum without optimization sums each pair's products in the same
    # order whatever the matrix shape (BLAS matmul does not), so an entry
    # never depends on which other nodes were in the call.
    dots = np.einsum("ik,jk->ij", a, b, optimize=False)
    nonzero = (norm_a[:, None] > 0) & (norm_b[None, :] > 0)
    cos = np.zeros_like(dots)
    np.divide(dots, np.outer(norm_a, norm_b), out=cos, where=nonzero)
    block = np.ix_(rows, cols)
    sim[block] = np.where(pending[block], np.clip(cos, 0.0, 1.0), sim[block])
    return sim


def similarity_rows(
    left: Sequence[Node],
    right: Sequence[Node],
    mode: SimilarityMode,
    provider: EmbeddingProvider,
    case_sensitive: bool,
) -> list[list[float]]:
    """similarity_matrix's rule and provider call, as nested lists and on
    the standard library only. A cosine is math.fsum of the products over
    the coordinates where both vectors are nonzero, divided by the product
    of the two norms math.sqrt(math.fsum(x * x)); 0 against a zero vector.
    """
    left_keys = [(n.kind, normalize_label(n.label, case_sensitive)) for n in left]
    right_keys = [(n.kind, normalize_label(n.label, case_sensitive)) for n in right]
    sim = [[float(a == b) for b in right_keys] for a in left_keys]
    pending = [(i, j) for i, (kind, label) in enumerate(left_keys)
               for j, (other_kind, other_label) in enumerate(right_keys)
               if kind == other_kind and label != other_label]
    if mode == SimilarityMode.EXACT_LABEL or not pending:
        return sim

    texts = sorted({left[i].label for i, _ in pending} | {right[j].label for _, j in pending})
    sparse = {}  # text -> (nonzero coordinates, norm)
    for text, vector in zip(texts, provider.embed(texts)):
        entries = {k: x for k, x in enumerate(vector) if x}
        sparse[text] = entries, math.sqrt(math.fsum(x * x for x in entries.values()))
    for i, j in pending:
        (a, norm_a), (b, norm_b) = sparse[left[i].label], sparse[right[j].label]
        if norm_a > 0 and norm_b > 0:
            dot = math.fsum(x * b[k] for k, x in a.items() if k in b)
            sim[i][j] = min(1.0, max(0.0, dot / (norm_a * norm_b)))
    return sim
