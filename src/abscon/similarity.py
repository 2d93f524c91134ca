"""Label and element similarity used by graph matching.

Node labels are compared either by exact (normalized) match or by cosine
similarity of text embeddings. Edges are compared by graph.edge_key.
"""
from __future__ import annotations

import enum
import os
from typing import TYPE_CHECKING, Protocol, Sequence

from .errors import ProviderFailure
from .graph import Node, NodeKind, normalize_label

try:  # hashlib's md5 maps OpenSSL's libcrypto: about 3.6 MB more resident memory
    from _md5 import md5
except ImportError:  # an interpreter built without the builtin module
    from hashlib import md5

if TYPE_CHECKING:  # numpy is imported where vectors are built: about 14 MB, 0.1 s
    import numpy as np

EMBED_DIM = 256


class SimilarityMode(enum.Enum):
    EMBEDDING = "embedding"
    EXACT_LABEL = "exact"


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Return one unit-norm vector per text, all of equal dimension."""
        ...


def _bucket(feature: str) -> int:
    # md5 keeps the hash stable across runs and platforms.
    digest = md5(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % EMBED_DIM


def builtin_embed(texts: Sequence[str]) -> list[np.ndarray]:
    """Hashed character-trigram + word-unigram term-frequency vectors.

    Deterministic offline substitute for a sentence-embedding service.
    Empty text maps to the zero vector (similarity 0 to everything).
    """
    import numpy as np

    out = []
    for text in texts:
        vec = np.zeros(EMBED_DIM)
        norm = normalize_label(text)
        for word in norm.split():
            vec[_bucket("w:" + word)] += 1.0
        for i in range(len(norm) - 2):
            vec[_bucket("t:" + norm[i : i + 3])] += 1.0
        length = np.linalg.norm(vec)
        if length > 0:
            vec /= length
        out.append(vec)
    return out


class BuiltinProvider:
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return builtin_embed(texts)


class RemoteProvider:
    """HTTP embedding service: POST {"texts": [...]} -> {"vectors": [[...]]}.

    The auth token is taken from the ABSCON_EMBED_TOKEN environment variable.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
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
        if len(vectors) != len(texts):
            raise ProviderFailure("provider returned wrong number of vectors")
        import numpy as np

        out = [np.asarray(v, dtype=float) for v in vectors]
        dims = {v.shape for v in out}
        if len(dims) > 1:
            raise ProviderFailure("provider returned vectors of mixed dimension")
        return out


class CachingProvider:
    """Memoizes embeddings; optionally falls back to the builtin provider."""

    def __init__(self, inner: EmbeddingProvider, fallback_to_builtin: bool = False):
        self.inner = inner
        self.fallback_to_builtin = fallback_to_builtin
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        missing = sorted({t for t in texts if t not in self._cache})
        if missing:
            try:
                vectors = self.inner.embed(missing)
            except ProviderFailure:
                if not self.fallback_to_builtin:
                    raise
                vectors = builtin_embed(missing)
            self._cache.update(zip(missing, vectors))
        return [self._cache[t] for t in texts]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np

    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity_matrix(
    left: Sequence[Node],
    right: Sequence[Node],
    mode: SimilarityMode = SimilarityMode.EMBEDDING,
    provider: EmbeddingProvider | None = None,
    case_sensitive: bool = False,
) -> np.ndarray:
    """len(left) x len(right) similarities in [0, 1].

    0 whenever the node kinds differ, 1 for equal normalized labels; other
    pairs score 0 in exact mode and the clipped cosine of their label
    embeddings otherwise (0 against a zero vector). All embeddings come from
    a single provider call over the distinct labels that need one; without a
    provider, from the builtin embedding, uncached.
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
    vectors = (provider or BuiltinProvider()).embed(texts)
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


def node_similarity(
    a: Node,
    b: Node,
    mode: SimilarityMode = SimilarityMode.EMBEDDING,
    provider: EmbeddingProvider | None = None,
    case_sensitive: bool = False,
) -> float:
    """Similarity in [0, 1]; 0 whenever the node kinds differ."""
    return float(similarity_matrix([a], [b], mode, provider, case_sensitive)[0, 0])
