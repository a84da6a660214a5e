"""Decompose-then-recompose knowledge refinement.

Documents are segmented into strips of consecutive sentences, each strip is
scored against the query, low scorers are dropped, and the survivors are
recomposed in original order into a single internal-knowledge bundle.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigError, EmptyDocumentError, NoDocumentsError
from .scoring import Document, Query, Scorer

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")

STRIP_SEPARATOR = "\n"


class BundleKind(str, Enum):
    INTERNAL = "Internal"
    EXTERNAL = "External"
    COMBINED = "Combined"


@dataclass(frozen=True)
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
            raise ConfigError("strip_sentences must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if not (-1.0 <= self.strip_threshold <= 1.0):
            raise ConfigError("strip_threshold must be in [-1, 1]")


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
    return _SENTENCE_BREAK.split(stripped)


def segment(doc: Document, config: RefineConfig) -> list[KnowledgeStrip]:
    """Cut a document into strips of consecutive sentences.

    Documents of one or two sentences become a single strip holding the whole
    text; longer ones are windowed into non-overlapping groups of
    config.strip_sentences (the tail window may be shorter).
    """
    sentences = split_sentences(doc.text)
    if not sentences:
        raise EmptyDocumentError(f"document {doc.id!r} has no sentences")
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
    order. When nothing clears the threshold the single best strip is kept so
    the bundle is never empty.
    """
    if not strips:
        raise ValueError("filter_strips requires at least one strip")
    scored = [
        dataclasses.replace(strip, score=scorer.score_text(query.text, strip.text))
        for strip in strips
    ]
    passing = [
        (pos, strip)
        for pos, strip in enumerate(scored)
        if strip.score > config.strip_threshold
    ]
    if not passing:
        best = min(enumerate(scored), key=lambda item: (-item[1].score, item[0]))
        return [best[1]]
    passing.sort(key=lambda item: (-item[1].score, item[0]))
    kept = passing[: config.top_k]
    kept.sort(key=lambda item: item[0])
    return [strip for _, strip in kept]


def refine(
    query: Query,
    docs: Sequence[Document],
    scorer: Scorer,
    config: RefineConfig,
) -> KnowledgeBundle:
    """Segment all documents, filter the pooled strips, recompose a bundle.

    Blank documents are skipped; EmptyDocumentError is raised only when every
    document is blank.
    """
    if not docs:
        raise NoDocumentsError("no documents to refine")
    pool: list[KnowledgeStrip] = []
    for doc in docs:
        if doc.text.strip():
            pool.extend(segment(doc, config))
    if not pool:
        raise EmptyDocumentError("every document to refine is blank")
    kept = filter_strips(pool, query, scorer, config)
    return KnowledgeBundle.from_strips(BundleKind.INTERNAL, kept)
