"""Decompose-then-recompose knowledge refinement.

Documents are segmented into strips of consecutive sentences, each strip is
scored against the query, low scorers are dropped, and the survivors are
kept in original order. `pipeline.run` recomposes the kept strips, with any
web-search strips, into one knowledge bundle. A stage with nothing to work
on (no documents, blank documents, no strips) returns no strips.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .errors import ConfigError
from .scoring import Document, Query, Scorer, one_line

_SENTENCE_BREAK = re.compile(r"([.!?])\s+")

STRIP_SEPARATOR = "\n"


class BundleKind(str, Enum):
    INTERNAL = "Internal"
    EXTERNAL = "External"
    COMBINED = "Combined"


class KnowledgeStrip(NamedTuple):
    """A scored fragment of a document (or web page); its text is non-blank and on
    one line."""

    doc_id: str
    index: int
    text: str
    score: Optional[float] = None


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
    """Recomposed knowledge: its kind and its strips, in order."""

    kind: BundleKind
    strips: tuple[KnowledgeStrip, ...]

    @property
    def text(self) -> str:
        """The strips' texts, one per line."""
        return STRIP_SEPARATOR.join(s.text for s in self.strips)


def split_sentences(text: str) -> list[str]:
    """Split on sentence-ending punctuation followed by whitespace."""
    stripped = text.strip()
    if not stripped:
        return []
    # The split keeps each break's punctuation apart; put it back on its sentence.
    parts = _SENTENCE_BREAK.split(stripped)
    return [*map(operator.add, parts[0::2], parts[1::2]), parts[-1]]


def segment(doc: Document, config: RefineConfig) -> list[KnowledgeStrip]:
    """Cut a document into strips of consecutive sentences (none if blank).

    The text first goes through `one_line`, so no strip holds a line break.
    Documents of one or two sentences become a single strip holding the whole
    text; longer ones are windowed into non-overlapping groups of
    config.strip_sentences (the tail window may be shorter).
    """
    text = one_line(doc.text)
    sentences = split_sentences(text)
    if len(sentences) <= 2:
        return [KnowledgeStrip(doc.id, 0, text)] if sentences else []
    size = config.strip_sentences
    return [
        KnowledgeStrip(doc.id, index, " ".join(sentences[start : start + size]))
        for index, start in enumerate(range(0, len(sentences), size))
    ]


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
    passing = [pos for pos, score in enumerate(scores) if score > config.strip_threshold]
    if passing:
        # A stable sort keeps the earlier strip ahead of an equal score.
        kept = sorted(sorted(passing, key=scores.__getitem__, reverse=True)[: config.top_k])
    else:
        kept = [max(range(len(scores)), key=scores.__getitem__)]
    return [strips[pos]._replace(score=scores[pos]) for pos in kept]


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
