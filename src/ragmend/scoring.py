"""Query-document relevance scoring.

Two scorer families share one interface: a deterministic lexical scorer used
for tests and offline runs, and a remote scorer that posts query-document
pairs to an HTTP endpoint. Scores always land in [-1.0, 1.0]; -1 means no
overlap at all, 1 means every unique query token appears in the document.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from typing import Optional, Sequence

import requests

from .errors import ConfigError, ScorerUnavailableError
from .http_session import EnvCachedSession, check_endpoint, check_timeout, request
from .prompts import RELEVANCE_PROMPTS, fill

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN.findall(text.lower())


# The `[^\W_]` characters of lowercased ASCII text are exactly a-z and 0-9: this
# table lowercases A-Z, keeps those bytes and turns every other byte into a space.
_WORD_CHARS = string.ascii_lowercase + string.digits
_ASCII_WORD_BYTES = bytes(
    ord(lower) if (lower := chr(c).lower()) in _WORD_CHARS else 0x20 for c in range(256)
)


def one_line(text: str) -> str:
    """The text stripped, with each line break (as `str.splitlines` splits) and the
    whitespace around it turned into one space; other whitespace is kept."""
    lines = text.splitlines()
    if len(lines) < 2:
        return text.strip()
    return " ".join(filter(None, map(str.strip, lines)))


@dataclass(frozen=True)
class Query:
    """A user question on one line.

    Text goes through `one_line`, so the question stays on the prompt's one
    "Question:" line. Text must be non-empty and encodable as UTF-8 (no lone
    surrogate).
    """

    text: str

    def __post_init__(self):
        normalized = one_line(self.text)
        if not normalized:
            raise ValueError("query text must be non-empty")
        try:
            normalized.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("query text must be valid UTF-8 (no lone surrogate)") from None
        object.__setattr__(self, "text", normalized)


@dataclass(frozen=True)
class Document:
    """A retrieved passage with a stable id."""

    id: str
    text: str


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
            raise ConfigError(f"scorer.kind must be 'lexical' or 'remote', got {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("scorer.endpoint must be set for a remote scorer")
        if self.retries < 0:
            raise ConfigError("scorer.retries must be >= 0")
        check_timeout("scorer.timeout", self.timeout)
        check_endpoint("scorer.endpoint", self.endpoint)
        if self.prompt is not None and self.prompt not in RELEVANCE_PROMPTS:
            raise ConfigError(
                f"scorer.prompt must be one of {sorted(RELEVANCE_PROMPTS)}, got {self.prompt!r}"
            )


class Scorer:
    """Interface: map a query-document pair to a relevance score in [-1, 1].

    `score_batch` is the one call per scoring stage (documents, strips, page
    paragraphs); by default it scores each text with `score_text`.
    """

    def score_text(self, query: str, document: str) -> float:
        raise NotImplementedError

    def score(self, query: Query, doc: Document) -> float:
        return self.score_text(query.text, doc.text)

    def score_batch(self, query: str, texts: Sequence[str]) -> list[float]:
        return [self.score_text(query, text) for text in texts]


class LexicalScorer(Scorer):
    """Token-overlap scorer: 2 * (matched unique query tokens / unique query tokens) - 1."""

    def score_text(self, query: str, document: str) -> float:
        return self.score_batch(query, (document,))[0]

    def score_batch(self, query: str, texts: Sequence[str]) -> list[float]:
        unique = frozenset(tokenize(query))
        if not unique:
            return [-1.0] * len(texts)
        ascii_unique = frozenset(t.encode("ascii") for t in unique if t.isascii())
        count = len(unique)
        scores = []
        for text in texts:
            if text.isascii():
                # A non-ASCII question token cannot occur in ASCII text.
                words = text.encode("ascii").translate(_ASCII_WORD_BYTES).split()
                hits = len(ascii_unique.intersection(words))
            else:
                hits = len(unique.intersection(_TOKEN.findall(text.lower())))
            scores.append(2.0 * hits / count - 1.0)
        return scores


def _read_score(resp: requests.Response) -> float:
    """A scorer reply's score clamped to [-1, 1]; NaN, +/-Infinity or a non-number raises."""
    value = resp.json()["score"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"score is not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"score {value!r}")
    # Clamp before float(): an integer too large for a float still clamps.
    return float(max(-1.0, min(1.0, value)))


class RemoteScorer(Scorer):
    """Scorer backed by an HTTP endpoint.

    Posts {"query": ..., "document": ...} (plus "prompt" when configured) and
    expects {"score": <number>}, read by `_read_score`. Failures follow
    `request`'s policy with `config.retries` retries and raise ScorerUnavailableError.
    """

    def __init__(self, config: ScorerConfig, session: Optional[requests.Session] = None):
        if config.kind != "remote":
            raise ConfigError("RemoteScorer requires a config with kind='remote'")
        self.config = config
        self.session = session or EnvCachedSession()

    def score_text(self, query: str, document: str) -> float:
        payload = {"query": query, "document": document}
        if self.config.prompt is not None:
            template = RELEVANCE_PROMPTS[self.config.prompt]
            payload["prompt"] = fill(template, question=query, document=document)
        return request(
            lambda: self.session.post(
                self.config.endpoint, json=payload, timeout=self.config.timeout
            ),
            _read_score,
            what="scorer",
            error=ScorerUnavailableError,
            retries=self.config.retries,
        )


def build_scorer(config: ScorerConfig) -> Scorer:
    """Construct the scorer named by config.kind."""
    if config.kind == "lexical":
        return LexicalScorer()
    return RemoteScorer(config)
