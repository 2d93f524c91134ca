"""End-to-end CLI runs against stub HTTP services (no real network)."""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from abscon.cli import main

DATA = Path(__file__).parent / "data"

FLOWCHART_ANSWER = """Here is the model:
```mermaid
flowchart TD
A[Take order] --> B{Paid?}
B -->|yes| C[Ship goods]
B -->|no| D[Send reminder]
C --> E[Close case]
D --> E
```
Hope this helps."""


class _Handler(BaseHTTPRequestHandler):
    temperatures: list[float] = []  # of every chat request, in arrival order
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        if "texts" in payload:  # embedding service
            import hashlib

            import numpy as np

            vectors = []
            for text in payload["texts"]:
                vec = np.zeros(16)
                for i, ch in enumerate(text.encode()):
                    vec[(ch + i) % 16] += 1.0
                n = np.linalg.norm(vec)
                vectors.append((vec / n if n else vec).tolist())
            body = json.dumps({"vectors": vectors}).encode()
        else:  # chat completions
            with _Handler.lock:
                _Handler.temperatures.append(payload["temperature"])
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": FLOWCHART_ANSWER}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    _Handler.temperatures = []
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()


def test_pipeline_with_sampling(server, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": "flowchart",
        "description": "an order handling process",
        "sampling": {"endpoint": f"{server}/v1/chat/completions", "model": "stub",
                     "n_candidates": 3, "max_retries": 0},
    }))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    assert len(list((out / "raw").iterdir())) == 3
    assert len(list((out / "candidates").iterdir())) == 3
    final = (out / "final.mmd").read_text()
    assert "Ship goods" in final
    report = json.loads((out / "report.json").read_text())
    assert report["consistent"] is True
    # the persisted candidates replay to the same final model offline
    replay = tmp_path / "replay"
    assert main(["pipeline", "--domain", "flowchart",
                 "--candidates", str(out / "candidates"), "--out", str(replay)]) == 0
    assert (replay / "final.mmd").read_text() == final


def test_generate_command(server, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": "flowchart",
        "description": "an order handling process",
        "sampling": {"endpoint": f"{server}/v1/chat/completions", "model": "stub",
                     "n_candidates": 2, "max_retries": 0},
    }))
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in (out / "candidates").iterdir())
    assert names == ["greedy.mmd", "sample_00.mmd", "sample_01.mmd"]


def test_generate_flags_override_the_sampling_config(server, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": "flowchart",
        "description": "an order handling process",
        "sampling": {"endpoint": f"{server}/v1/chat/completions", "model": "stub",
                     "n_candidates": 5, "temperature": 0.9, "greedy_temperature": 0.05,
                     "max_retries": 0},
    }))
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(config), "--out", str(out),
                 "--n", "2", "--temperature", "0.3"]) == 0
    # The greedy request comes first, at greedy_temperature; then the samples.
    assert _Handler.temperatures == [0.05, 0.3, 0.3]
    names = sorted(p.name for p in (out / "candidates").iterdir())
    assert names == ["greedy.mmd", "sample_00.mmd", "sample_01.mmd"]


def test_pipeline_with_remote_embeddings(server, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": "flowchart",
        "embedding_endpoint": f"{server}/embed",
    }))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config),
                 "--candidates", str(DATA / "fig2_pool"), "--out", str(out)]) == 0
    assert "Update ledger" not in (out / "final.mmd").read_text()
