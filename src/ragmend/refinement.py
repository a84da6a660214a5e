"""Decompose-then-recompose knowledge refinement.

Documents are segmented into strips of consecutive sentences, each strip is
scored against the query, low scorers are dropped, and the survivors are
kept in original order. `pipeline.run` recomposes the kept strips, with any
web-search strips, into one knowledge bundle. A stage with nothing to work
on (no documents, blank documents, no strips) returns no strips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigError
from .scoring import Document, Query, Scorer

_SENTENCE_BREAK = re.compile(r"([.!?])\s+")

STRIP_SEPARATOR = "\n"


class BundleKind(str, Enum):
    INTERNAL = "Internal"
    EXTERNAL = "External"
    COMBINED = "Combined"


@dataclass(frozen=True, slots=True)
class KnowledgeStrip:
    """A scored fragment of a document (or web page)."""

    doc_id: str
    index: int
    text: str
    score: Optional[float] = None

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("strip text must be non-empty")


@dataclass(frozen=True)
class RefineConfig:
    """Segmentation and filtering knobs.

    strip_sentences: sentences per strip window.
    top_k: maximum strips kept across all documents.
    strip_threshold: keep strips scoring strictly above this.
    """

    strip_sentences: int = 3
    top_k: int = 5
    strip_threshold: float = -0.5

    def __post_init__(self):
        if self.strip_sentences < 1:
            raise ConfigError("refine.strip_sentences must be >= 1")
        if self.top_k < 1:
            raise ConfigError("refine.top_k must be >= 1")
        if not (-1.0 <= self.strip_threshold <= 1.0):
            raise ConfigError("refine.strip_threshold must be in [-1, 1]")


@dataclass(frozen=True)
class KnowledgeBundle:
    """Recomposed knowledge text plus the strips it came from."""

    kind: BundleKind
    text: str
    strips: tuple[KnowledgeStrip, ...]

    @classmethod
    def from_strips(cls, kind: BundleKind, strips: Sequence[KnowledgeStrip]) -> "KnowledgeBundle":
        return cls(
            kind=kind,
            text=STRIP_SEPARATOR.join(s.text for s in strips),
            strips=tuple(strips),
        )


def split_sentences(text: str) -> list[str]:
    """Split on sentence-ending punctuation followed by whitespace."""
    stripped = text.strip()
    if not stripped:
        return []
    # The split keeps each break's punctuation apart; put it back on its sentence.
    parts = _SENTENCE_BREAK.split(stripped)
    return [s + p for s, p in zip(parts[::2], parts[1::2])] + [parts[-1]]


def segment(doc: Document, config: RefineConfig) -> list[KnowledgeStrip]:
    """Cut a document into strips of consecutive sentences (none if blank).

    Documents of one or two sentences become a single strip holding the whole
    text; longer ones are windowed into non-overlapping groups of
    config.strip_sentences (the tail window may be shorter).
    """
    sentences = split_sentences(doc.text)
    if not sentences:
        return []
    if len(sentences) <= 2:
        return [KnowledgeStrip(doc_id=doc.id, index=0, text=doc.text.strip())]
    strips = []
    for start in range(0, len(sentences), config.strip_sentences):
        window = sentences[start : start + config.strip_sentences]
        strips.append(
            KnowledgeStrip(
                doc_id=doc.id,
                index=len(strips),
                text=" ".join(window),
            )
        )
    return strips


def filter_strips(
    strips: Sequence[KnowledgeStrip],
    query: Query,
    scorer: Scorer,
    config: RefineConfig,
) -> list[KnowledgeStrip]:
    """Score strips and keep the best.

    Keeps strips scoring strictly above config.strip_threshold, capped at
    config.top_k by score (earlier strip wins a tie), then restores original
    order. When nothing clears the threshold the single best strip is kept;
    no strips keep none, and the scorer is not called.
    """
    if not strips:
        return []
    scores = scorer.score_batch(query.text, [strip.text for strip in strips])

    def rank(pos: int) -> tuple[float, int]:
        return -scores[pos], pos

    passing = [pos for pos, score in enumerate(scores) if score > config.strip_threshold]
    if passing:
        kept = sorted(sorted(passing, key=rank)[: config.top_k])
    else:
        kept = [min(range(len(scores)), key=rank)]
    result = []
    for pos in kept:
        strip = strips[pos]
        result.append(KnowledgeStrip(strip.doc_id, strip.index, strip.text, scores[pos]))
    return result


def refine(
    query: Query,
    docs: Sequence[Document],
    scorer: Scorer,
    config: RefineConfig,
) -> list[KnowledgeStrip]:
    """Segment all documents and filter the pooled strips; return the kept ones
    (none for no documents or only blank ones)."""
    pool = [strip for doc in docs for strip in segment(doc, config)]
    return filter_strips(pool, query, scorer, config)
