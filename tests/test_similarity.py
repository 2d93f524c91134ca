from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from abscon.errors import ProviderFailure
from abscon.graph import ACTIVITY, DECISION, Node, normalize_label
from abscon.similarity import (
    EMBED_DIM,
    CachingProvider,
    RemoteProvider,
    BuiltinProvider,
    SimilarityMode,
    builtin_embed,
    similarity_matrix,
)
from genutil import cosine

BUILTIN = BuiltinProvider()


def _oracle_embed(text: str) -> np.ndarray:
    """Independent reimplementation of the hashing scheme."""
    vec = np.zeros(EMBED_DIM)
    norm = normalize_label(text)
    features = ["w:" + w for w in norm.split()]
    features += ["t:" + norm[i : i + 3] for i in range(len(norm) - 2)]
    for f in features:
        idx = int.from_bytes(hashlib.md5(f.encode()).digest()[:4], "big") % EMBED_DIM
        vec[idx] += 1
    n = np.linalg.norm(vec)
    return vec / n if n else vec


def test_builtin_embed_deterministic():
    a1, = builtin_embed(["abc"])
    a2, = builtin_embed(["abc"])
    assert np.array_equal(a1, a2)
    assert a1.shape == (EMBED_DIM,)
    assert abs(np.linalg.norm(a1) - 1.0) < 1e-9


def test_builtin_embed_empty_is_zero_vector():
    z, = builtin_embed([""])
    assert np.linalg.norm(z) == 0
    other, = builtin_embed(["anything"])
    assert cosine(z, other) == 0.0


def test_builtin_embed_matches_oracle():
    for text in ["check stock", "stock check", "paint wall", "Verify  Inventory"]:
        mine, = builtin_embed([text])
        assert np.allclose(mine, _oracle_embed(text))


def test_word_order_similarity_ranking():
    e = {t: _oracle_embed(t) for t in ["check stock", "stock check", "paint wall"]}
    close = cosine(e["check stock"], e["stock check"])
    far = cosine(e["check stock"], e["paint wall"])
    v1, v2, v3 = builtin_embed(["check stock", "stock check", "paint wall"])
    assert cosine(v1, v2) == pytest.approx(close)
    assert cosine(v1, v3) == pytest.approx(far)
    assert close > far


def test_node_similarity_exact_mode():
    a = Node("1", "Start", ACTIVITY)
    b = Node("2", " start ", ACTIVITY)
    assert similarity_matrix([a], [b], SimilarityMode.EXACT_LABEL, BUILTIN, False)[0, 0] == 1.0
    c = Node("3", "Stop", ACTIVITY)
    assert similarity_matrix([a], [c], SimilarityMode.EXACT_LABEL, BUILTIN, False)[0, 0] == 0.0


def test_node_similarity_kind_mismatch_is_zero():
    a = Node("1", "Start", ACTIVITY)
    b = Node("2", "Start", DECISION)
    for mode in SimilarityMode:
        assert similarity_matrix([a], [b], mode, BUILTIN, False)[0, 0] == 0.0


def test_node_similarity_embedding_symmetric_in_range():
    a = Node("1", "check stock", ACTIVITY)
    b = Node("2", "verify inventory", ACTIVITY)
    s1 = similarity_matrix([a], [b], SimilarityMode.EMBEDDING, BUILTIN, False)[0, 0]
    s2 = similarity_matrix([b], [a], SimilarityMode.EMBEDDING, BUILTIN, False)[0, 0]
    assert s1 == s2
    assert 0.0 < s1 < 1.0
    assert similarity_matrix([a], [a], SimilarityMode.EMBEDDING, BUILTIN, False)[0, 0] == 1.0


class _StubEmbedHandler(BaseHTTPRequestHandler):
    fail = False

    def do_POST(self):
        if self.fail:
            self.send_response(500)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = [_oracle_embed(t).tolist() for t in texts]
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubEmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    server.server_close()


def test_remote_provider_round_trip(stub_server):
    provider = RemoteProvider(stub_server, timeout=5)
    _StubEmbedHandler.fail = False
    vecs = provider.embed(["check stock", "paint wall"])
    assert len(vecs) == 2
    assert np.allclose(vecs[0], _oracle_embed("check stock"))


def test_remote_provider_failure_and_fallback(stub_server):
    provider = RemoteProvider(stub_server, timeout=5)
    _StubEmbedHandler.fail = True
    try:
        with pytest.raises(ProviderFailure):
            provider.embed(["x"])
        caching = CachingProvider(provider, fallback_to_builtin=True)
        vecs = caching.embed(["check stock"])
        assert np.allclose(vecs[0], builtin_embed(["check stock"])[0])
    finally:
        _StubEmbedHandler.fail = False


def test_caching_provider_calls_inner_once():
    calls = []

    class Counting:
        def embed(self, texts):
            calls.append(list(texts))
            return builtin_embed(texts)

    provider = CachingProvider(Counting())
    provider.embed(["a", "b", "a"])
    provider.embed(["b", "a"])
    assert calls == [["a", "b"]]
