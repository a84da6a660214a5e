"""Query-document relevance scoring.

Two scorer families share one interface: a deterministic lexical scorer used
for tests and offline runs, and a remote scorer that posts query-document
pairs to an HTTP endpoint. Scores always land in [-1.0, 1.0]; -1 means no
overlap at all, 1 means every unique query token appears in the document.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import requests

from .errors import ConfigError, ScorerUnavailableError
from .http_session import EnvCachedSession
from .prompts import RELEVANCE_PROMPTS, render_relevance_prompt

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN.findall(text.lower())


@functools.lru_cache(maxsize=32)
def _query_tokens(text: str) -> frozenset[str]:
    """Unique tokens of a question, kept for the strips scored against it."""
    return frozenset(tokenize(text))


@dataclass(frozen=True)
class Query:
    """A user question on one line.

    Text is stripped, and each newline with the whitespace around it becomes
    one space, so the question stays on the prompt's one "Question:" line.
    Other whitespace is kept. Text must be non-empty.
    """

    text: str

    def __post_init__(self):
        lines = (line.strip() for line in self.text.split("\n"))
        normalized = " ".join(line for line in lines if line)
        if not normalized:
            raise ValueError("query text must be non-empty")
        object.__setattr__(self, "text", normalized)


@dataclass(frozen=True)
class Document:
    """A retrieved passage with a stable id. Titles are carried but not scored."""

    id: str
    text: str
    title: Optional[str] = None


@dataclass(frozen=True)
class ScorerConfig:
    """Settings for building a scorer.

    kind is "lexical" or "remote"; endpoint is required for remote scorers.
    prompt optionally names a relevance template ("direct", "cot", "few_shot")
    rendered per pair and sent alongside the raw query and document.
    """

    kind: str = "lexical"
    endpoint: Optional[str] = None
    timeout: float = 10.0
    retries: int = 2
    max_in_flight: int = 8
    prompt: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("lexical", "remote"):
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote scorer requires an endpoint")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.prompt is not None and self.prompt not in RELEVANCE_PROMPTS:
            raise ConfigError(
                f"unknown relevance prompt {self.prompt!r}; "
                f"choose from {sorted(RELEVANCE_PROMPTS)}"
            )


class Scorer:
    """Interface: map a query-document pair to a relevance score in [-1, 1]."""

    def score_text(self, query: str, document: str) -> float:
        raise NotImplementedError

    def score(self, query: Query, doc: Document) -> float:
        return self.score_text(query.text, doc.text)

    def score_batch(self, query: Query, docs: Sequence[Document]) -> list[float]:
        return [self.score(query, doc) for doc in docs]


class LexicalScorer(Scorer):
    """Token-overlap scorer: 2 * (matched unique query tokens / unique query tokens) - 1."""

    def score_text(self, query: str, document: str) -> float:
        unique = _query_tokens(query)
        if not unique:
            return -1.0
        hits = len(unique.intersection(tokenize(document)))
        return 2.0 * hits / len(unique) - 1.0


class RemoteScorer(Scorer):
    """Scorer backed by an HTTP endpoint.

    Posts {"query": ..., "document": ...} (plus "prompt" when configured) and
    expects {"score": <number>}. Out-of-range finite replies are clamped; NaN
    and +/-Infinity (which JSON parsing accepts) have no place on the scale and
    raise ScorerUnavailableError. Transport failures and 5xx replies are
    retried with exponential backoff, then raise ScorerUnavailableError.
    """

    def __init__(self, config: ScorerConfig, session: Optional[requests.Session] = None):
        if config.kind != "remote":
            raise ConfigError("RemoteScorer requires a config with kind='remote'")
        self.config = config
        self.session = session or EnvCachedSession()
        self._gate = threading.BoundedSemaphore(config.max_in_flight)

    def score_text(self, query: str, document: str) -> float:
        payload = {"query": query, "document": document}
        if self.config.prompt is not None:
            payload["prompt"] = render_relevance_prompt(self.config.prompt, query, document)
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(0.1 * 2 ** (attempt - 1))
            try:
                with self._gate:
                    resp = self.session.post(
                        self.config.endpoint, json=payload, timeout=self.config.timeout
                    )
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("scorer request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code >= 500:
                last_error = ScorerUnavailableError(
                    f"scorer returned {resp.status_code}"
                )
                logger.warning(
                    "scorer returned %d (attempt %d)", resp.status_code, attempt + 1
                )
                continue
            if resp.status_code != 200:
                raise ScorerUnavailableError(
                    f"scorer returned {resp.status_code}: {resp.text[:200]}"
                )
            try:
                body = resp.json()
                value = body["score"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ScorerUnavailableError(f"malformed scorer reply: {exc}") from exc
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScorerUnavailableError(
                    f"scorer reply score is not a number: {value!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ScorerUnavailableError(f"malformed scorer reply: score {value!r}")
            # Clamp before float(): an integer too large for a float still clamps.
            return float(max(-1.0, min(1.0, value)))
        raise ScorerUnavailableError(
            f"scorer unreachable after {self.config.retries + 1} attempts: {last_error}"
        )


def build_scorer(config: ScorerConfig, session: Optional[requests.Session] = None) -> Scorer:
    """Construct the scorer named by config.kind."""
    if config.kind == "lexical":
        return LexicalScorer()
    return RemoteScorer(config, session=session)
