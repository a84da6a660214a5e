"""Query-document relevance scoring.

Two scorer families share one interface: a deterministic lexical scorer used
for tests and offline runs, and a remote scorer that posts query-document
pairs to an HTTP endpoint. Scores always land in [-1.0, 1.0]; -1 means no
overlap at all, 1 means every unique query token appears in the document.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import requests

from .errors import ConfigError, ScorerUnavailableError
from .http_session import EnvCachedSession, request_json
from .prompts import RELEVANCE_PROMPTS, render_relevance_prompt

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

    Text is stripped, and each line break (as `str.splitlines` splits) with the
    whitespace around it becomes one space, so the question stays on the
    prompt's one "Question:" line. Other whitespace is kept. Text must be non-empty.
    """

    text: str

    def __post_init__(self):
        lines = (line.strip() for line in self.text.splitlines())
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
    prompt: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("lexical", "remote"):
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote scorer requires an endpoint")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not self.timeout > 0:
            raise ConfigError("timeout must be > 0")
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
    raise ScorerUnavailableError. Failures follow `request_json`'s policy
    with `config.retries` retries and raise ScorerUnavailableError.
    """

    def __init__(self, config: ScorerConfig, session: Optional[requests.Session] = None):
        if config.kind != "remote":
            raise ConfigError("RemoteScorer requires a config with kind='remote'")
        self.config = config
        self.session = session or EnvCachedSession()

    def score_text(self, query: str, document: str) -> float:
        payload = {"query": query, "document": document}
        if self.config.prompt is not None:
            payload["prompt"] = render_relevance_prompt(self.config.prompt, query, document)
        value = request_json(
            lambda: self.session.post(
                self.config.endpoint, json=payload, timeout=self.config.timeout
            ),
            "score",
            what="scorer",
            error=ScorerUnavailableError,
            retries=self.config.retries,
        )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScorerUnavailableError(f"scorer reply score is not a number: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ScorerUnavailableError(f"malformed scorer reply: score {value!r}")
        # Clamp before float(): an integer too large for a float still clamps.
        return float(max(-1.0, min(1.0, value)))


def build_scorer(config: ScorerConfig, session: Optional[requests.Session] = None) -> Scorer:
    """Construct the scorer named by config.kind."""
    if config.kind == "lexical":
        return LexicalScorer()
    return RemoteScorer(config, session=session)
