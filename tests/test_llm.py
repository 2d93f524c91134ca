from __future__ import annotations

import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from abscon.cli import main
from abscon.errors import EmptyPool, EndpointError, IoError
from abscon.llm import PromptBundle, SamplingConfig, build_bundle, load_candidates, sample_candidates
from abscon.notation import Notation

DATA = Path(__file__).parent / "data"

GOOD_MERMAID = "Sure:\n```mermaid\nflowchart TD\nA[Start] --> B[End]\n```"
GARBAGE = "I cannot draw that, sorry."


class _StubChatHandler(BaseHTTPRequestHandler):
    responses: list[str] = []
    calls = 0
    lock = threading.Lock()

    def do_POST(self):
        cls = _StubChatHandler
        with cls.lock:
            idx = cls.calls
            cls.calls += 1
        if idx >= len(cls.responses):
            idx = len(cls.responses) - 1
        content = cls.responses[idx]
        if content == "<fail>":
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubChatHandler.calls = 0
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _config(endpoint, n=3, retries=0):
    return SamplingConfig(
        endpoint=endpoint, model="stub", n_candidates=n,
        max_retries=retries, retry_backoff=0.01, request_timeout=5.0,
    )


def _bundle():
    return PromptBundle(system="sys", specification="draw a flowchart")


def test_sample_candidates_happy_path(chat_server, tmp_path):
    _StubChatHandler.responses = [GOOD_MERMAID]
    candidates = sample_candidates(_bundle(), _config(chat_server), Notation.MERMAID_FLOWCHART,
                                   run_dir=tmp_path)
    assert len(candidates) == 3
    assert all(len(c.graph.nodes) == 2 for c in candidates)
    raws = sorted(p.name for p in (tmp_path / "raw").iterdir())
    assert raws == ["candidate_00.txt", "candidate_01.txt", "candidate_02.txt"]
    assert (tmp_path / "raw" / "candidate_00.txt").read_text() == GOOD_MERMAID


def test_sample_candidates_filters_garbage(chat_server):
    _StubChatHandler.responses = [GOOD_MERMAID, GARBAGE, GARBAGE]
    candidates = sample_candidates(_bundle(), _config(chat_server), Notation.MERMAID_FLOWCHART)
    assert len(candidates) == 1


def test_sample_candidates_all_garbage_is_empty_pool(chat_server):
    _StubChatHandler.responses = [GARBAGE]
    with pytest.raises(EmptyPool):
        sample_candidates(_bundle(), _config(chat_server), Notation.MERMAID_FLOWCHART)


def test_sample_candidates_unreachable_endpoint():
    cfg = _config("http://127.0.0.1:9/v1/chat/completions")
    with pytest.raises(EndpointError):
        sample_candidates(_bundle(), cfg, Notation.MERMAID_FLOWCHART)


def test_partial_batch_failure_keeps_pool(chat_server):
    _StubChatHandler.responses = ["<fail>", GOOD_MERMAID, GOOD_MERMAID]
    cfg = _config(chat_server)
    cfg.max_parallel = 1  # keep response order aligned with the failure script
    candidates = sample_candidates(_bundle(), cfg, Notation.MERMAID_FLOWCHART)
    assert len(candidates) == 2


def test_retry_recovers(chat_server):
    _StubChatHandler.responses = ["<fail>", GOOD_MERMAID]
    cfg = _config(chat_server, n=1, retries=2)
    candidates = sample_candidates(_bundle(), cfg, Notation.MERMAID_FLOWCHART)
    assert len(candidates) == 1
    assert _StubChatHandler.calls == 2


def test_prompt_bundle_requires_specification():
    with pytest.raises(ValueError):
        PromptBundle(system="s", specification="   ")


def test_build_bundle_fills_template():
    bundle = build_bundle("flowchart", "a coffee ordering process", ["EXAMPLE-ONE"])
    text = bundle.messages()[1]["content"]
    assert "a coffee ordering process" in text
    assert "flowchart TD" in text  # metamodel text mentions the header
    assert "{metamodel}" not in text
    assert text.count("EXAMPLE-ONE") == 1  # in the template's {examples} slot only


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(endpoint="x", model="m", n_candidates=0)
    with pytest.raises(ValueError):
        SamplingConfig(endpoint="x", model="m", temperature=-1)


def test_load_candidates_order_and_greedy(tmp_path):
    (tmp_path / "b.mmd").write_text("flowchart TD\nB[b]\n")
    (tmp_path / "a.mmd").write_text("flowchart TD\nA[a]\n")
    (tmp_path / "greedy.mmd").write_text("flowchart TD\nG[g]\n")
    candidates, greedy_index = load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    labels = [next(iter(c.graph.nodes.values())).label for c in candidates]
    assert labels == ["a", "b", "g"]
    assert greedy_index == 2


def test_load_candidates_skips_unparsable(tmp_path):
    (tmp_path / "a.mmd").write_text("flowchart TD\nA[a]\n")
    (tmp_path / "broken.mmd").write_text("not mermaid at all")
    candidates, _ = load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    assert len(candidates) == 1


def test_load_candidates_drops_a_file_that_is_not_utf8(tmp_path, caplog):
    (tmp_path / "a.mmd").write_text("flowchart TD\nA[a]\n")
    (tmp_path / "zz.mmd").write_bytes(b"flowchart TD\nA[\xff\xfe] --> B")
    candidates, _ = load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    assert [c.source_text for c in candidates] == ["flowchart TD\nA[a]\n"]
    assert "candidate zz.mmd dropped: 'utf-8' codec can't decode" in caplog.text


def test_load_candidates_with_no_utf8_file_is_an_empty_pool(tmp_path):
    (tmp_path / "zz.mmd").write_bytes(b"flowchart TD\nA[\xff\xfe] --> B")
    with pytest.raises(EmptyPool):
        load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)


def test_load_candidates_empty_dir(tmp_path):
    with pytest.raises(EmptyPool):
        load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)


def _fig2_with_a_directory(tmp_path) -> Path:
    pool = tmp_path / "pool"
    shutil.copytree(DATA / "fig2_pool", pool)
    (pool / "zz.mmd").mkdir()
    return pool


def test_load_candidates_ignores_a_directory_with_a_candidate_extension(tmp_path):
    got = load_candidates(_fig2_with_a_directory(tmp_path), Notation.MERMAID_FLOWCHART)
    want = load_candidates(DATA / "fig2_pool", Notation.MERMAID_FLOWCHART)
    assert ([c.source_text for c in got[0]], got[1]) == ([c.source_text for c in want[0]], want[1])


def test_pipeline_ignores_a_directory_in_its_pool(tmp_path):
    outputs = []
    for name, pool in [("a", _fig2_with_a_directory(tmp_path)), ("b", DATA / "fig2_pool")]:
        out = tmp_path / name
        assert main(["pipeline", "--domain", "flowchart", "--candidates", str(pool),
                     "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("partial.json", "final.mmd")])
    assert outputs[0] == outputs[1]


def test_a_pool_holding_only_a_directory_is_empty(tmp_path, capsys):
    (tmp_path / "zz.mmd").mkdir()
    with pytest.raises(EmptyPool):
        load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    assert main(["pipeline", "--domain", "flowchart", "--candidates", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"].startswith("no candidate files in ")


def test_load_candidates_missing_dir(tmp_path):
    with pytest.raises(IoError):
        load_candidates(tmp_path / "nope", Notation.MERMAID_FLOWCHART)


def test_replay_reproduces_pool(tmp_path):
    (tmp_path / "a.mmd").write_text("flowchart TD\nA[a] --> B[b]\n")
    (tmp_path / "b.mmd").write_text("flowchart TD\nA[a] --> C[c]\n")
    first, _ = load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    second, _ = load_candidates(tmp_path, Notation.MERMAID_FLOWCHART)
    assert [c.source_text for c in first] == [c.source_text for c in second]
