"""Sample candidate models from a chat-completions style HTTP endpoint,
or load them from a directory for offline and replay runs."""
from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyPool, EndpointError, IoError, ModelSyntaxError
from .notation import EXTENSIONS, Notation, ParsedCandidate, extract_code_block, parse

logger = logging.getLogger(__name__)

TOKEN_ENV = "ABSCON_LLM_TOKEN"


@dataclass
class SamplingConfig:
    endpoint: str
    model: str
    n_candidates: int = 10
    temperature: float = 0.7
    greedy_temperature: float = 0.01
    request_timeout: float = 60.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    max_parallel: int = 4

    def __post_init__(self):
        # Checked here, so a bad sampling config fails before any request.
        for name in ("endpoint", "model"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, not {getattr(self, name)!r}")
        for name in ("n_candidates", "max_retries", "max_parallel"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name in ("temperature", "greedy_temperature", "request_timeout", "retry_backoff"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if self.temperature < 0 or self.greedy_temperature < 0:
            raise ValueError("temperatures must be non-negative")


@dataclass
class PromptBundle:
    system: str
    specification: str

    def __post_init__(self):
        if not self.specification.strip():
            raise ValueError("specification text must be non-empty")

    def messages(self) -> list[dict]:
        return [
            {"role": "system", "content": self.system},
            {"role": "user", "content": self.specification},
        ]


def _asset(name: str) -> str:
    from importlib import resources  # only prompt building needs it

    return resources.files("abscon.assets").joinpath(name).read_text(encoding="utf-8")


def build_bundle(domain: str, description: str, examples: list[str] | None = None) -> PromptBundle:
    """Fill the editable prompt template with the domain's metamodel and
    constraint texts, the few-shot examples and the task description."""
    specification = _asset("prompt_template.txt").format(
        metamodel=_asset(f"metamodel_{domain}.txt").strip(),
        constraints=_asset(f"constraints_{domain}.txt").strip(),
        description=description.strip(),
        examples="\n\n".join(examples or []),
    )
    return PromptBundle(
        system="You are a precise modeling assistant. Answer with a single fenced code block.",
        specification=specification,
    )


def _request_completion(cfg: SamplingConfig, messages: list[dict], temperature: float) -> str:
    import requests  # slow to import; only online sampling needs it

    payload = {
        "model": cfg.model,
        "messages": messages,
        "temperature": temperature,
        "n": 1,
    }
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    last_error: Exception | None = None
    for attempt in range(cfg.max_retries + 1):
        try:
            resp = requests.post(
                cfg.endpoint, json=payload, headers=headers, timeout=cfg.request_timeout
            )
            resp.raise_for_status()
            data = resp.json()
            return data["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - any failure is retried
            last_error = exc
            if attempt < cfg.max_retries:
                time.sleep(cfg.retry_backoff * (2 ** attempt))
    raise EndpointError(str(last_error))


def sample_candidates(
    bundle: PromptBundle,
    cfg: SamplingConfig,
    notation: Notation,
    run_dir: str | Path | None = None,
    temperature: float | None = None,
) -> list[ParsedCandidate]:
    """Issue independent completion requests, persist transcripts, and return
    the syntactically valid candidates. Individual request failures shrink
    the pool; only a fully failed batch raises EndpointError."""
    from concurrent.futures import ThreadPoolExecutor  # only online sampling needs it

    messages = bundle.messages()
    temp = cfg.temperature if temperature is None else temperature
    raw_dir = None
    if run_dir is not None:
        raw_dir = Path(run_dir) / "raw"
        raw_dir.mkdir(parents=True, exist_ok=True)

    def one(index: int) -> str | None:
        try:
            return _request_completion(cfg, messages, temp)
        except EndpointError as exc:
            logger.warning("candidate %d request failed: %s", index, exc)
            return None

    with ThreadPoolExecutor(max_workers=max(1, min(cfg.max_parallel, cfg.n_candidates))) as pool:
        responses = list(pool.map(one, range(cfg.n_candidates)))

    if raw_dir is not None:
        for i, text in enumerate(responses):
            if text is not None:
                (raw_dir / f"candidate_{i:02d}.txt").write_text(text, encoding="utf-8")

    if all(r is None for r in responses):
        raise EndpointError("all completion requests failed")

    candidates = []
    for i, text in enumerate(responses):
        if text is None:
            continue
        block = extract_code_block(text)
        try:
            candidates.append(parse(block, notation))
        except ModelSyntaxError as exc:
            logger.warning("candidate %d dropped: %s", i, exc)
    if not candidates:
        raise EmptyPool("no candidate survived parsing")
    return candidates


def load_candidates(
    directory: str | Path, notation: Notation | None = None
) -> tuple[list[ParsedCandidate], int]:
    """Parse every candidate file in filename order; returns the candidates
    and the index of the designated low-temperature candidate (a file named
    greedy.* when present, the first file otherwise)."""
    path = Path(directory)
    if not path.is_dir():
        raise IoError(f"not a directory: {path}")
    files = sorted(p for p in path.iterdir() if p.suffix in EXTENSIONS)
    if notation is not None:
        files = [p for p in files if EXTENSIONS[p.suffix] == notation]
    if not files:
        raise EmptyPool(f"no candidate files in {path}")
    candidates = []
    greedy_index = 0
    greedy_found = False
    for p in files:
        try:
            parsed = parse(p.read_text(encoding="utf-8"), EXTENSIONS[p.suffix])
        except ModelSyntaxError as exc:
            logger.warning("candidate %s dropped: %s", p.name, exc)
            continue
        if p.stem == "greedy" and not greedy_found:
            greedy_index = len(candidates)
            greedy_found = True
        candidates.append(parsed)
    if not candidates:
        raise EmptyPool(f"no parsable candidate in {path}")
    return candidates, greedy_index
