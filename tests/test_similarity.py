from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from array import array
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from abscon.abstraction import abstract
from abscon.cli import main
from abscon.domains import profile
from abscon.errors import ProviderFailure
from abscon.graph import ACTIVITY, DECISION, Node, normalize_label
from abscon.similarity import (
    EMBED_DIM,
    CachingProvider,
    RemoteProvider,
    BuiltinProvider,
    SimilarityMode,
    similarity_rows,
)
from genutil import cosine, random_flowchart

BUILTIN = BuiltinProvider()
DATA = Path(__file__).parent / "data"


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


def _builtin_arrays(texts) -> list[np.ndarray]:
    return [np.array(v) for v in BUILTIN.embed(texts)]


def test_builtin_embed_deterministic():
    a1, = _builtin_arrays(["abc"])
    a2, = _builtin_arrays(["abc"])
    assert np.array_equal(a1, a2)
    assert a1.shape == (EMBED_DIM,)
    assert abs(np.linalg.norm(a1) - 1.0) < 1e-9


def test_builtin_embed_empty_is_zero_vector():
    z, = _builtin_arrays([""])
    assert np.linalg.norm(z) == 0
    other, = _builtin_arrays(["anything"])
    assert cosine(z, other) == 0.0


def test_builtin_embed_matches_oracle():
    # Bit for bit, so that alignments see the vectors the earlier numpy
    # implementation gave, and the pinned outputs keep their bytes.
    for text in ["check stock", "stock check", "paint wall", "Verify  Inventory",
                 "aaaa aaaa aaaa", "", "x"]:
        provided, = BUILTIN.embed([text])
        assert isinstance(provided, array)
        assert np.array_equal(np.array(provided), _oracle_embed(text))


def test_word_order_similarity_ranking():
    e = {t: _oracle_embed(t) for t in ["check stock", "stock check", "paint wall"]}
    close = cosine(e["check stock"], e["stock check"])
    far = cosine(e["check stock"], e["paint wall"])
    v1, v2, v3 = _builtin_arrays(["check stock", "stock check", "paint wall"])
    assert cosine(v1, v2) == pytest.approx(close)
    assert cosine(v1, v3) == pytest.approx(far)
    assert close > far


def _similarity(a: Node, b: Node, mode: SimilarityMode) -> float:
    (row,) = similarity_rows([a], [b], mode, BUILTIN, False, 0.0)
    return row[0]


def test_node_similarity_exact_mode():
    a = Node("1", "Start", ACTIVITY)
    b = Node("2", " start ", ACTIVITY)
    assert _similarity(a, b, SimilarityMode.EXACT_LABEL) == 1.0
    c = Node("3", "Stop", ACTIVITY)
    assert _similarity(a, c, SimilarityMode.EXACT_LABEL) == 0.0


def test_node_similarity_kind_mismatch_is_zero():
    a = Node("1", "Start", ACTIVITY)
    b = Node("2", "Start", DECISION)
    for mode in SimilarityMode:
        assert _similarity(a, b, mode) == 0.0


def test_node_similarity_embedding_symmetric_in_range():
    a = Node("1", "check stock", ACTIVITY)
    b = Node("2", "verify inventory", ACTIVITY)
    s1 = _similarity(a, b, SimilarityMode.EMBEDDING)
    s2 = _similarity(b, a, SimilarityMode.EMBEDDING)
    assert s1 == s2
    assert 0.0 < s1 < 1.0
    assert _similarity(a, a, SimilarityMode.EMBEDDING) == 1.0


class _StubEmbedHandler(BaseHTTPRequestHandler):
    fail = False
    vectors = None  # the reply's vectors when set; else the oracle's

    def do_POST(self):
        if self.fail:
            self.send_response(500)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = self.vectors or [_oracle_embed(t).tolist() for t in texts]
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _OnceThenFailsHandler(BaseHTTPRequestHandler):
    """Serves one reply of 3-d vectors, then answers 500 like an endpoint
    that went down."""

    served = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        if _OnceThenFailsHandler.served:
            self.send_response(500)
            self.end_headers()
            return
        _OnceThenFailsHandler.served += 1
        body = json.dumps({"vectors": [[1.0, float(len(t)), 0.5] for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def stub_server():
    with _serving(_StubEmbedHandler) as url:
        yield url


def test_remote_provider_round_trip(stub_server):
    provider = RemoteProvider(stub_server, timeout=5)
    _StubEmbedHandler.fail = False
    vecs = provider.embed(["check stock", "paint wall"])
    assert len(vecs) == 2
    assert all(type(v) is list and all(type(x) is float for x in v) for v in vecs)
    assert vecs[0] == _oracle_embed("check stock").tolist()


@pytest.mark.parametrize("vectors", [
    [["0.5", 1.0], [1.0, 0.0]],
    [[True, 1.0], [1.0, 0.0]],
    [[None, 1.0], [1.0, 0.0]],
    [[float("inf"), 1.0], [1.0, 0.0]],
    [[10**400, 1.0], [1.0, 0.0]],
    [5, [1.0, 0.0]],
    [{"x": 1.0}, [1.0, 0.0]],
    [[1.0, 0.0], [1.0]],
    {"a": [1.0], "b": [1.0]},
    [[1.0]],
], ids=["text_entry", "bool_entry", "null_entry", "infinite_entry", "huge_integer_entry",
        "number_vector", "object_vector", "mixed_lengths", "object_of_vectors", "too_few"])
def test_remote_provider_rejects_a_malformed_reply(stub_server, vectors):
    provider = RemoteProvider(stub_server, timeout=5)
    _StubEmbedHandler.vectors = vectors
    try:
        with pytest.raises(ProviderFailure):
            provider.embed(["a", "b"])
        caching = CachingProvider(provider, fallback_to_builtin=True)
        assert caching.embed(["a", "b"]) == BUILTIN.embed(["a", "b"])
    finally:
        _StubEmbedHandler.vectors = None


def test_remote_provider_pipeline_loads_no_numpy(stub_server, tmp_path):
    # A fresh interpreter: every alignment of fig2_pool is at most
    # matching.SMALL_LIMIT nodes, and the remote vectors stay lists.
    _StubEmbedHandler.fail = False
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"domain": "flowchart", "embedding_endpoint": stub_server}))
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys; from abscon.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'requests' in sys.modules, 'numpy' in sys.modules)")
    argv = ["pipeline", "--config", str(config), "--candidates", str(DATA / "fig2_pool"),
            "--out", str(tmp_path / "run")]
    result = subprocess.run([sys.executable, "-c", code, *argv],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "0 True False"


def test_remote_provider_failure_and_fallback(stub_server):
    provider = RemoteProvider(stub_server, timeout=5)
    _StubEmbedHandler.fail = True
    try:
        with pytest.raises(ProviderFailure):
            provider.embed(["x"])
        caching = CachingProvider(provider, fallback_to_builtin=True)
        vecs = caching.embed(["check stock"])
        assert vecs == BUILTIN.embed(["check stock"])
    finally:
        _StubEmbedHandler.fail = False


class _OnceThenFails:
    """Serves 3-d vectors once, then fails."""

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        if self.calls > 1:
            raise ProviderFailure("endpoint went down")
        return [[1.0, float(len(t)), 0.5] for t in texts]


def test_embeddings_of_mixed_dimension_fail():
    # The fallback serves 256-d builtin vectors after the provider's 3-d
    # ones; scoring them against each other would be meaningless.
    rng = random.Random("mixed-dimension")
    pool = [random_flowchart(rng, 8) for _ in range(3)]
    prof = profile("flowchart",
                   provider=CachingProvider(_OnceThenFails(), fallback_to_builtin=True))
    with pytest.raises(ProviderFailure, match="dimensions"):
        abstract(pool, prof)


def test_embeddings_of_mixed_dimension_exit_1(tmp_path, capsys):
    _OnceThenFailsHandler.served = 0
    config = tmp_path / "cfg.json"
    with _serving(_OnceThenFailsHandler) as url:
        config.write_text(json.dumps({"domain": "flowchart", "embedding_endpoint": url,
                                      "embedding_fallback": True}))
        code = main(["pipeline", "--config", str(config), "--candidates", str(DATA / "fig2_pool"),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    (line,) = err.splitlines()
    assert "dimensions" in json.loads(line)["error"]
    assert _OnceThenFailsHandler.served == 1


def test_caching_provider_calls_inner_once():
    calls = []

    class Counting:
        def embed(self, texts):
            calls.append(list(texts))
            return BUILTIN.embed(texts)

    provider = CachingProvider(Counting())
    provider.embed(["a", "b", "a"])
    provider.embed(["b", "a"])
    assert calls == [["a", "b"]]
