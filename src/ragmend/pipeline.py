"""End-to-end pipeline: score, judge, branch, assemble knowledge, generate.

A Correct judgment refines the retrieved documents into internal knowledge,
an Incorrect judgment replaces them with web-search knowledge, and an
Ambiguous judgment combines both, internal first. Ablation flags remap the
branching for experiments.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import requests

from .errors import (
    ConfigError,
    FetchError,
    GenerationError,
    InputError,
    NoDocumentsError,
    SearchUnavailableError,
)
from .http_session import EnvCachedSession
from .refinement import (
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    refine,
)
from .scoring import Document, Query, Scorer, ScorerConfig, tokenize
from .trigger import Action, ActionJudgment, Thresholds, judge
from .websearch import (
    HttpTransport,
    KeywordRewriter,
    SearchConfig,
    SearchQuery,
    fetch_and_extract,
    rewrite,
    search,
    select_external,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AblationFlags:
    """Branch-remapping switches for ablation experiments.

    disable_action reroutes one action (disabling Ambiguous collapses the
    trigger to the single upper threshold); only_action forces every query
    down one branch. The no_* flags skip refinement, query rewriting, or
    external-paragraph selection.
    """

    disable_action: Optional[Action] = None
    only_action: Optional[Action] = None
    no_refinement: bool = False
    no_rewriting: bool = False
    no_selection: bool = False

    def __post_init__(self):
        for name in ("disable_action", "only_action"):
            value = getattr(self, name)
            if isinstance(value, str) and not isinstance(value, Action):
                try:
                    object.__setattr__(self, name, Action(value))
                except ValueError:
                    raise ConfigError(
                        f"{name} must be one of {[a.value for a in Action]}, got {value!r}"
                    ) from None
        if self.disable_action is not None and self.only_action is not None:
            raise ConfigError("disable_action and only_action are mutually exclusive")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs: thresholds, stage configs, and endpoints."""

    thresholds: Thresholds = Thresholds.preset("popqa")
    refine: RefineConfig = RefineConfig()
    search: SearchConfig = SearchConfig()
    scorer: ScorerConfig = ScorerConfig()
    generator_endpoint: Optional[str] = None
    generator_max_tokens: int = 256
    generator_timeout: float = 30.0
    generator_retries: int = 2
    rewriter_endpoint: Optional[str] = None
    ablations: AblationFlags = AblationFlags()

    def __post_init__(self):
        if self.generator_max_tokens < 1:
            raise ConfigError("generator_max_tokens must be >= 1")
        if self.generator_retries < 0:
            raise ConfigError("generator_retries must be >= 0")


@dataclass
class RunRecord:
    """Full trace of one pipeline run."""

    question: str
    doc_scores: tuple[float, ...]
    judgment: Optional[ActionJudgment]
    action: Optional[Action]
    knowledge: Optional[KnowledgeBundle]
    searched_urls: tuple[str, ...]
    answer: str
    timings: dict = field(default_factory=dict)
    error: Optional[str] = None


def resolve_action(
    judgment: ActionJudgment, thresholds: Thresholds, flags: AblationFlags
) -> Action:
    """Map the raw judgment to the branch actually taken, honoring ablations."""
    if flags.only_action is not None:
        return flags.only_action
    if flags.disable_action == Action.AMBIGUOUS:
        return Action.CORRECT if judgment.max_score > thresholds.upper else Action.INCORRECT
    if flags.disable_action is not None and judgment.action == flags.disable_action:
        return Action.AMBIGUOUS
    return judgment.action


def raw_internal_bundle(
    docs: Sequence[Document], scores: Optional[Sequence[float]] = None
) -> KnowledgeBundle:
    """Internal knowledge without refinement: each document is one strip."""
    if scores is None:
        scores = [None] * len(docs)
    strips = [
        KnowledgeStrip(doc_id=doc.id, index=0, text=doc.text.strip(), score=score)
        for doc, score in zip(docs, scores)
        if doc.text.strip()
    ]
    return KnowledgeBundle.from_strips(BundleKind.INTERNAL, strips)


def internal_knowledge(
    question: Query,
    docs: Sequence[Document],
    scores: Sequence[float],
    cfg: PipelineConfig,
    scorer: Scorer,
) -> KnowledgeBundle:
    """Refined internal knowledge, or the raw documents under no_refinement."""
    if cfg.ablations.no_refinement:
        return raw_internal_bundle(docs, scores)
    return refine(question, docs, scorer, cfg.refine)


def external_knowledge(
    question: Query,
    cfg: PipelineConfig,
    scorer: Scorer,
    search_client,
    rewriter=None,
    fetch_transport=None,
) -> tuple[KnowledgeBundle, list[str]]:
    """Web-search knowledge for a question, degrading to empty on failure.

    Returns the bundle plus the URLs that were searched. A missing or failing
    search client yields an empty bundle with a logged warning; individual
    fetch failures skip that URL and continue.
    """
    empty = KnowledgeBundle.from_strips(BundleKind.EXTERNAL, [])
    if search_client is None:
        logger.warning("no search client configured; external knowledge is empty")
        return empty, []
    if cfg.ablations.no_rewriting:
        query = SearchQuery(keywords=(question.text,))
    else:
        query = rewrite(question, rewriter if rewriter is not None else KeywordRewriter())
    try:
        results = search(query, search_client, cfg.search)
    except SearchUnavailableError as exc:
        logger.warning("search unavailable, external knowledge is empty: %s", exc)
        return empty, []
    urls = [r.url for r in results]
    pages = []
    # Without an injected transport, the question's fetch misses share one
    # pooled session, closed when the fetches are done.
    transport = fetch_transport if fetch_transport is not None else HttpTransport()
    try:
        for result in results:
            try:
                pages.append(fetch_and_extract(result, cfg.search, transport=transport))
            except FetchError as exc:
                logger.warning("skipping unfetchable page: %s", exc)
    finally:
        if transport is not fetch_transport:
            transport.close()
    if cfg.ablations.no_selection:
        strips = [
            KnowledgeStrip(doc_id=page.url, index=idx, text=para)
            for page in pages
            for idx, para in enumerate(page.paragraphs)
        ]
        return KnowledgeBundle.from_strips(BundleKind.EXTERNAL, strips), urls
    return select_external(question, pages, scorer, cfg.refine), urls


def combine(internal: KnowledgeBundle, external: KnowledgeBundle) -> KnowledgeBundle:
    """Merge bundles in internal-then-external order."""
    return KnowledgeBundle.from_strips(
        BundleKind.COMBINED, internal.strips + external.strips
    )


def assemble_prompt(question: Query, knowledge: Optional[KnowledgeBundle]) -> str:
    """Render the generation prompt: knowledge block, blank line, question."""
    text = knowledge.text if knowledge is not None else ""
    if text:
        return f"{text}\n\nQuestion: {question.text}\nAnswer:"
    return f"Question: {question.text}\nAnswer:"


def generate(prompt: str, generator) -> str:
    """Run the generator on an assembled prompt."""
    if not prompt:
        raise ValueError("prompt must be non-empty")
    return generator.generate(prompt)


_PROMPT_RE = re.compile(
    r"(?s)\A(?:(?P<knowledge>.*)\n\n)?Question: (?P<question>[^\n]*)\nAnswer:\Z"
)


class StubGenerator:
    """Deterministic offline generator for tests and desk-scale runs.

    Parses the standard prompt and answers with the knowledge line sharing
    the most unique tokens with the question (first line wins ties), or
    "UNKNOWN" when there is no knowledge.
    """

    def generate(self, prompt: str) -> str:
        match = _PROMPT_RE.match(prompt)
        if match is None:
            return "UNKNOWN"
        knowledge = match.group("knowledge") or ""
        lines = [line for line in knowledge.split("\n") if line.strip()]
        if not lines:
            return "UNKNOWN"
        question_tokens = set(tokenize(match.group("question")))
        return max(lines, key=lambda line: len(question_tokens & set(tokenize(line))))


class RemoteGenerator:
    """Generator backed by an HTTP endpoint: POST {prompt, max_tokens} -> {text}."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        max_tokens: int = 256,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.max_tokens = max_tokens
        self.session = session or EnvCachedSession()

    def generate(self, prompt: str) -> str:
        payload = {"prompt": prompt, "max_tokens": self.max_tokens}
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(0.1 * 2 ** (attempt - 1))
            try:
                resp = self.session.post(self.endpoint, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("generate request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code >= 500:
                last_error = GenerationError(f"generator returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise GenerationError(
                    f"generator returned {resp.status_code}: {resp.text[:200]}"
                )
            try:
                text = resp.json()["text"]
            except (ValueError, KeyError, TypeError) as exc:
                raise GenerationError(f"malformed generator reply: {exc}") from exc
            if not isinstance(text, str):
                raise GenerationError(f"generator reply text is not a string: {text!r}")
            return text
        raise GenerationError(
            f"generator unreachable after {self.retries + 1} attempts: {last_error}"
        )


def run(
    question: Union[Query, str],
    docs: Sequence[Document],
    cfg: PipelineConfig,
    scorer: Scorer,
    search_client=None,
    rewriter=None,
    generator=None,
    *,
    fetch_transport=None,
) -> RunRecord:
    """Run the full pipeline for one question over its retrieved documents.

    Scorer failures propagate (no silent default scores). Generation failures
    are captured on the record with an empty answer so experiment denominators
    stay stable.
    """
    if isinstance(question, str):
        question = Query(question)
    if not docs:
        raise NoDocumentsError("no documents provided")
    ids = [doc.id for doc in docs]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate document ids in {ids}")
    if generator is None:
        generator = StubGenerator()

    timings: dict = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    scores = scorer.score_batch(question, docs)
    timings["score"] = time.perf_counter() - t0

    judgment = judge(scores, cfg.thresholds)
    action = resolve_action(judgment, cfg.thresholds, cfg.ablations)

    t0 = time.perf_counter()
    searched_urls: list[str] = []
    if action is Action.CORRECT:
        knowledge = internal_knowledge(question, docs, scores, cfg, scorer)
    elif action is Action.INCORRECT:
        knowledge, searched_urls = external_knowledge(
            question, cfg, scorer, search_client, rewriter, fetch_transport
        )
    else:
        internal = internal_knowledge(question, docs, scores, cfg, scorer)
        external, searched_urls = external_knowledge(
            question, cfg, scorer, search_client, rewriter, fetch_transport
        )
        knowledge = combine(internal, external)
    timings["knowledge"] = time.perf_counter() - t0

    prompt = assemble_prompt(question, knowledge)
    t0 = time.perf_counter()
    error = None
    try:
        answer = generate(prompt, generator)
    except GenerationError as exc:
        logger.warning("generation failed: %s", exc)
        answer = ""
        error = f"generation failed: {exc}"
    timings["generate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    return RunRecord(
        question=question.text,
        doc_scores=tuple(scores),
        judgment=judgment,
        action=action,
        knowledge=knowledge,
        searched_urls=tuple(searched_urls),
        answer=answer,
        timings=timings,
        error=error,
    )
