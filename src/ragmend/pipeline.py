"""End-to-end pipeline: score, judge, branch, assemble knowledge, generate.

In `crag` mode a Correct judgment refines the documents, Incorrect replaces
them with web-search knowledge, and Ambiguous combines both, internal first;
ablation flags remap the branching. The baselines neither score nor judge:
`plain_rag` uses the raw documents and `rag_web` adds web-search knowledge.
`run` alone builds the knowledge bundle, holding each strip text once.
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
    RewriteError,
    SearchUnavailableError,
)
from .http_session import EnvCachedSession, check_endpoint, check_timeout, request
from .prompts import REWRITE_PROMPT, fill
from .refinement import (
    STRIP_SEPARATOR,
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    refine,
)
from .scoring import Document, LexicalScorer, Query, Scorer, ScorerConfig, one_line
from .trigger import Action, ActionJudgment, Thresholds, judge
from .websearch import (
    SearchConfig,
    fetch_and_extract,
    rewrite,
    search,
    select_external,
)

logger = logging.getLogger(__name__)

MODES = ("crag", "plain_rag", "rag_web")


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
                    choices = [a.value for a in Action]
                    raise ConfigError(
                        f"ablations.{name} must be one of {choices}, got {value!r}"
                    ) from None
        if self.disable_action is not None and self.only_action is not None:
            raise ConfigError(
                "ablations.disable_action and ablations.only_action are mutually exclusive"
            )


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
            raise ConfigError("generator.max_tokens must be >= 1")
        if self.generator_retries < 0:
            raise ConfigError("generator.retries must be >= 0")
        check_timeout("generator.timeout", self.generator_timeout)
        check_endpoint("generator.endpoint", self.generator_endpoint)
        check_endpoint("rewriter.endpoint", self.rewriter_endpoint)


@dataclass
class RunRecord:
    """Full trace of one pipeline run."""

    question: str
    doc_scores: tuple[float, ...]
    judgment: Optional[ActionJudgment]
    action: Optional[Action]
    knowledge: KnowledgeBundle
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


def raw_internal_strips(docs: Sequence[Document], scores: Sequence[float]) -> list[KnowledgeStrip]:
    """Internal knowledge without refinement: each non-blank document is one
    strip of its `one_line` text, holding the document's score, or None when
    `scores` is empty (the baselines score nothing)."""
    scores = scores or [None] * len(docs)
    return [
        KnowledgeStrip(doc.id, 0, text, score)
        for doc, score in zip(docs, scores)
        if (text := one_line(doc.text))
    ]


def external_knowledge(
    question: Query,
    cfg: PipelineConfig,
    scorer: Scorer,
    search_client,
    rewriter=None,
) -> tuple[list[KnowledgeStrip], list[str]]:
    """Web-search strips for a question, degrading to none on failure.

    Returns the kept strips plus the URLs that were searched. No search
    client yields no strips (`run_experiment` warns once per run); a failing
    one yields none with a logged warning, and a page that fails to fetch is
    skipped. Pages are fetched through the search client.
    """
    if search_client is None:
        return [], []
    query = question.text if cfg.ablations.no_rewriting else rewrite(question, rewriter)
    try:
        urls = search(query, search_client, cfg.search)
    except SearchUnavailableError as exc:
        logger.warning("search unavailable, external knowledge is empty: %s", exc)
        return [], []
    strips: list[KnowledgeStrip] = []
    for url in urls:
        try:
            strips.extend(fetch_and_extract(url, cfg.search, search_client))
        except FetchError as exc:
            logger.warning("skipping unfetchable page: %s", exc)
    if cfg.ablations.no_selection:
        return strips, urls
    return select_external(question, strips, scorer, cfg.refine), urls


def assemble_prompt(question: Query, knowledge: KnowledgeBundle) -> str:
    """Render the generation prompt: knowledge block, blank line, question."""
    if text := knowledge.text:
        return f"{text}\n\nQuestion: {question.text}\nAnswer:"
    return f"Question: {question.text}\nAnswer:"


_PROMPT_RE = re.compile(
    r"(?s)\A(?:(?P<knowledge>.*)\n\n)?Question: (?P<question>[^\n]*)\nAnswer:\Z"
)


class StubGenerator:
    """Deterministic offline generator for tests and desk-scale runs.

    Parses the standard prompt and answers with the knowledge line its own
    `LexicalScorer` (never the run's scorer) ranks highest against the
    question, first line on ties, or "UNKNOWN" when there is no knowledge.
    """

    def generate(self, prompt: str) -> str:
        match = _PROMPT_RE.match(prompt)
        if match is None:
            return "UNKNOWN"
        knowledge = match.group("knowledge") or ""
        lines = [line for line in knowledge.split(STRIP_SEPARATOR) if line.strip()]
        if not lines:
            return "UNKNOWN"
        scores = LexicalScorer().score_batch(match.group("question"), lines)
        return lines[scores.index(max(scores))]


def _read_text(resp: requests.Response) -> str:
    """The `text` of a `{"text": str}` reply, the generator's and the rewriter's wire."""
    text = resp.json()["text"]
    if not isinstance(text, str):
        raise TypeError(f"text is not a string: {text!r}")
    return text


class RemoteGenerator:
    """Generator backed by an HTTP endpoint: POST {prompt, max_tokens} -> {text}."""

    what = "generator"  # the role's name in log and error texts
    error = GenerationError  # what its failures raise

    def __init__(
        self,
        endpoint: str,
        timeout: float = PipelineConfig.generator_timeout,
        retries: int = PipelineConfig.generator_retries,
        max_tokens: int = PipelineConfig.generator_max_tokens,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.max_tokens = max_tokens
        self.session = session or EnvCachedSession()

    def generate(self, prompt: str) -> str:
        payload = {"prompt": prompt, "max_tokens": self.max_tokens}
        return request(
            lambda: self.session.post(self.endpoint, json=payload, timeout=self.timeout),
            _read_text,
            what=self.what,
            error=self.error,
            retries=self.retries,
        )


# Room for the rewriter's reply: one "query:" line of a few keywords.
REWRITE_MAX_TOKENS = 64
_QUERY_LINE = re.compile("query:(.*)", re.IGNORECASE)


class RemoteRewriter(RemoteGenerator):
    """Keyword rewriter over the generator's wire: the comma-separated parts of the
    first line holding "query:" in the reply to the keyword prompt."""

    what = "rewriter"
    error = RewriteError

    def __init__(self, endpoint: str, *, timeout: float, session=None):
        # One attempt: on any failure `websearch.rewrite` falls back to KeywordRewriter.
        super().__init__(endpoint, timeout, 0, REWRITE_MAX_TOKENS, session)

    def rewrite(self, question: str) -> list[str]:
        for line in self.generate(fill(REWRITE_PROMPT, question=question)).splitlines():
            if match := _QUERY_LINE.search(line):
                return match.group(1).split(",")
        raise RewriteError("no 'query:' line in rewriter reply")


def run(
    question: Union[Query, str],
    docs: Sequence[Document],
    cfg: PipelineConfig,
    scorer: Scorer,
    search_client=None,
    rewriter=None,
    generator=None,
    *,
    mode: str = "crag",
) -> RunRecord:
    """Answer one question over its retrieved documents in one of `MODES`.

    Only `crag` scores and judges the documents; with none it judges Incorrect.
    The knowledge bundle is `INTERNAL`, `EXTERNAL` or `COMBINED` by the
    sources used, holds each strip text once and puts internal strips first.
    Scorer failures propagate (no silent default scores). Generation failures
    are captured on the record with an empty answer so experiment denominators
    stay stable. timings holds "knowledge", "generate" and "total", and
    `crag` adds "score".
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; choose from {MODES}")
    if isinstance(question, str):
        question = Query(question)
    ids = [doc.id for doc in docs]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate document ids in {ids}")

    timings: dict = {}
    t_total = time.perf_counter()
    scores: Sequence[float] = ()
    judgment = action = None
    if mode == "crag":
        scores = scorer.score_batch(question.text, [doc.text for doc in docs])
        timings["score"] = time.perf_counter() - t_total
        judgment = judge(scores, cfg.thresholds)
        action = resolve_action(judgment, cfg.thresholds, cfg.ablations)

    use_internal = action is not Action.INCORRECT
    use_external = action in (Action.INCORRECT, Action.AMBIGUOUS) or mode == "rag_web"
    t0 = time.perf_counter()
    strips: list[KnowledgeStrip] = []
    searched_urls: list[str] = []
    if use_internal:
        if action is None or cfg.ablations.no_refinement:
            strips = raw_internal_strips(docs, scores)
        else:
            strips = refine(question, docs, scorer, cfg.refine)
    if use_external:
        web, searched_urls = external_knowledge(question, cfg, scorer, search_client, rewriter)
        strips.extend(web)
    if use_internal and use_external:
        kind = BundleKind.COMBINED
    else:
        kind = BundleKind.INTERNAL if use_internal else BundleKind.EXTERNAL
    # Each text once, at its first place: internal strips stay ahead of external ones.
    unique: dict[str, KnowledgeStrip] = {}
    for strip in strips:
        unique.setdefault(strip.text, strip)
    knowledge = KnowledgeBundle(kind, tuple(unique.values()))
    timings["knowledge"] = time.perf_counter() - t0

    prompt = assemble_prompt(question, knowledge)
    t0 = time.perf_counter()
    error = None
    try:
        answer = (generator or StubGenerator()).generate(prompt)
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
