"""External-knowledge path: rewrite, search, fetch, extract, select.

Questions are rewritten into short keyword queries (deterministically, or via
a remote LLM with automatic fallback), sent to a search endpoint, and the
returned pages are fetched through a disk cache, reduced to clean paragraphs,
and filtered with the relevance scorer into an external knowledge bundle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import string
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import urlparse

import requests

from .errors import ConfigError, FetchError, RewriteError, SearchUnavailableError
from .http_session import EnvCachedSession
from .prompts import render_rewrite_prompt
from .refinement import BundleKind, KnowledgeBundle, KnowledgeStrip, RefineConfig, filter_strips
from .scoring import Query, Scorer

logger = logging.getLogger(__name__)

# Snowball English stopword list.
STOPWORDS = frozenset(
    """
    i me my myself we our ours ourselves you your yours yourself yourselves
    he him his himself she her hers herself it its itself they them their
    theirs themselves what which who whom this that these those am is are
    was were be been being have has had having do does did doing would
    should could ought i'm you're he's she's it's we're they're i've you've
    we've they've i'd you'd he'd she'd we'd they'd i'll you'll he'll she'll
    we'll they'll isn't aren't wasn't weren't hasn't haven't hadn't doesn't
    don't didn't won't wouldn't shan't shouldn't can't cannot couldn't
    mustn't let's that's who's what's here's there's when's where's why's
    how's a an the and but if or because as until while of at by for with
    about against between into through during before after above below to
    from up down in out on off over under again further then once here
    there when where why how all any both each few more most other some
    such no nor not only own same so than too very
    """.split()
)

INTERROGATIVES = frozenset(
    ["what", "who", "when", "where", "which", "how", "why", "is", "was", "does", "did"]
)

_STOPLIST = STOPWORDS | INTERROGATIVES

_EDGE_CHARS = string.punctuation + "“”‘’…"


@dataclass(frozen=True)
class SearchQuery:
    """One to three search keywords, order-preserving."""

    keywords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not 1 <= len(self.keywords) <= 3:
            raise ValueError(f"expected 1-3 keywords, got {len(self.keywords)}")
        if any(not k.strip() for k in self.keywords):
            raise ValueError("keywords must not be whitespace-only")

    def as_string(self) -> str:
        return " ".join(self.keywords)


@dataclass(frozen=True)
class SearchResult:
    """A ranked URL from the search endpoint."""

    url: str
    title: Optional[str] = None
    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        parsed = urlparse(self.url)
        if not parsed.scheme or not parsed.netloc:
            raise ValueError(f"url must be absolute, got {self.url!r}")


@dataclass(frozen=True)
class PageContent:
    """Extracted, tag-free paragraphs of one page."""

    url: str
    paragraphs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "paragraphs", tuple(self.paragraphs))
        if any(not p.strip() for p in self.paragraphs):
            raise ValueError("paragraphs must be non-empty")


@dataclass(frozen=True)
class SearchConfig:
    """Search and fetch settings.

    endpoint, timeout, and retries drive the HTTP search client; fetch_timeout
    and cache_dir drive page fetching.
    """

    top_k_urls: int = 5
    prefer_wikipedia: bool = True
    fetch_timeout: float = 10.0
    cache_dir: Path = Path("web_cache")
    endpoint: Optional[str] = None
    timeout: float = 10.0
    retries: int = 2

    def __post_init__(self):
        if self.top_k_urls < 1:
            raise ConfigError("top_k_urls must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))


def _clean_word(raw: str) -> str:
    """Strip edge punctuation and a trailing possessive marker."""
    word = raw.strip(_EDGE_CHARS)
    for suffix in ("'s", "’s"):
        if word.endswith(suffix):
            word = word[: -len(suffix)]
            break
    return word


class KeywordRewriter:
    """Deterministic question-to-keywords rewriter.

    Drops stopwords and interrogatives, merges consecutive capitalized tokens
    into one phrase so multi-word proper nouns survive, and keeps the first
    three keywords in question order.
    """

    def rewrite(self, question: str) -> list[str]:
        keywords: list[str] = []
        run: list[str] = []

        def flush():
            if run:
                keywords.append(" ".join(run))
                run.clear()

        for raw in question.split():
            word = _clean_word(raw)
            if not word:
                flush()
                continue
            if word.lower() in _STOPLIST:
                flush()
                continue
            if word[0].isupper():
                run.append(word)
                continue
            flush()
            keywords.append(word)
        flush()
        if not keywords:
            return [question.strip()]
        return keywords[:3]


class RemoteRewriter:
    """Keyword rewriter backed by a text-generation endpoint.

    Sends the keyword-extraction prompt with the question filled in, then
    parses the reply line containing "query:" as a comma-separated list.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        max_tokens: int = 64,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_tokens = max_tokens
        self.session = session or EnvCachedSession()

    def rewrite(self, question: str) -> list[str]:
        payload = {"prompt": render_rewrite_prompt(question), "max_tokens": self.max_tokens}
        try:
            resp = self.session.post(self.endpoint, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise RewriteError(f"rewriter request failed: {exc}") from exc
        if resp.status_code != 200:
            raise RewriteError(f"rewriter returned {resp.status_code}")
        try:
            text = resp.json()["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise RewriteError(f"malformed rewriter reply: {exc}") from exc
        if not isinstance(text, str):
            raise RewriteError(f"rewriter reply text is not a string: {text!r}")
        return self._parse_reply(text)

    @staticmethod
    def _parse_reply(text: str) -> list[str]:
        for line in text.splitlines():
            lowered = line.lower()
            if "query:" in lowered:
                tail = line[lowered.index("query:") + len("query:") :]
                keywords = [part.strip() for part in tail.split(",")]
                keywords = [k for k in keywords if k]
                if keywords:
                    return keywords
        raise RewriteError("no 'query:' line in rewriter reply")


def rewrite(question: Query, rewriter) -> SearchQuery:
    """Turn a question into a SearchQuery, falling back on remote failure."""
    try:
        keywords = rewriter.rewrite(question.text)
    except RewriteError as exc:
        logger.warning("remote rewrite failed, using keyword fallback: %s", exc)
        keywords = KeywordRewriter().rewrite(question.text)
    keywords = [k.strip() for k in keywords if k.strip()]
    if not keywords:
        keywords = [question.text]
    return SearchQuery(keywords=tuple(keywords[:3]))


def _is_wikipedia(url: str) -> bool:
    host = (urlparse(url).hostname or "").lower()
    return host == "wikipedia.org" or host.endswith(".wikipedia.org")


def search(q: SearchQuery, client, cfg: SearchConfig) -> list[SearchResult]:
    """Run the query and order results: Wikipedia first (stably), then truncate."""
    results = list(client.search(q.as_string()))
    if cfg.prefer_wikipedia:
        results.sort(key=lambda r: 0 if _is_wikipedia(r.url) else 1)
    results = results[: cfg.top_k_urls]
    return [dataclasses.replace(r, rank=i + 1) for i, r in enumerate(results)]


class HttpSearchClient:
    """Search endpoint client: GET ?q=... returning {"results": [{url, title}]}.

    If RAGMEND_SEARCH_API_KEY is set in the environment it is sent as an
    X-API-Key header, which real search backends can require.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        retries: int = 2,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.session = session or EnvCachedSession()
        self.headers = {}
        api_key = os.environ.get("RAGMEND_SEARCH_API_KEY")
        if api_key:
            self.headers["X-API-Key"] = api_key

    def search(self, query: str) -> list[SearchResult]:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                resp = self.session.get(
                    self.endpoint,
                    params={"q": query},
                    headers=self.headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("search request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code >= 500:
                last_error = SearchUnavailableError(f"search returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise SearchUnavailableError(
                    f"search returned {resp.status_code}: {resp.text[:200]}"
                )
            try:
                items = resp.json()["results"]
                return [
                    SearchResult(url=item["url"], title=item.get("title"), rank=i + 1)
                    for i, item in enumerate(items)
                ]
            except (ValueError, KeyError, TypeError) as exc:
                raise SearchUnavailableError(f"malformed search reply: {exc}") from exc
        raise SearchUnavailableError(
            f"search unreachable after {self.retries + 1} attempts: {last_error}"
        )


class HttpTransport:
    """Fetches a URL body as text. Swappable for counting doubles in tests."""

    def __init__(self, session: Optional[requests.Session] = None):
        self.session = session or EnvCachedSession()

    def close(self) -> None:
        """Close the session's pooled connections."""
        self.session.close()

    def get(self, url: str, timeout: float) -> str:
        try:
            resp = self.session.get(url, timeout=timeout)
        except requests.RequestException as exc:
            raise FetchError(url, str(exc)) from exc
        if resp.status_code != 200:
            raise FetchError(url, f"status {resp.status_code}")
        return resp.text


_TAG_RE = re.compile(r"<(?:!DOCTYPE|/?[a-zA-Z][a-zA-Z0-9:-]*)(?:\s[^>]*)?/?>", re.IGNORECASE)


def _looks_like_html(body: str) -> bool:
    return _TAG_RE.search(body) is not None


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


class _ParagraphParser(HTMLParser):
    """Collects the text content of every <p> region."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._depth = 0
        self._buffer: list[str] = []
        self.paragraphs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "p":
            self._depth += 1

    def handle_endtag(self, tag):
        if tag == "p" and self._depth:
            self._depth -= 1
            if self._depth == 0:
                self._flush()

    def handle_data(self, data):
        if self._depth:
            self._buffer.append(data)

    def _flush(self):
        text = _collapse_ws("".join(self._buffer))
        self._buffer = []
        if text:
            self.paragraphs.append(text)

    def extract(self, body: str) -> list[str]:
        self.feed(body)
        self.close()
        if self._buffer:
            self._flush()
        return self.paragraphs


def extract_paragraphs(body: str) -> list[str]:
    """Reduce a fetched body to clean paragraphs.

    HTML bodies yield the text of each <p> region; anything else is split on
    blank lines. Both paths collapse whitespace and drop empty paragraphs.
    """
    if _looks_like_html(body):
        return _ParagraphParser().extract(body)
    blocks = re.split(r"\n\s*\n", body)
    return [p for p in (_collapse_ws(b) for b in blocks) if p]


def _cache_path(cfg: SearchConfig, url: str) -> Path:
    return cfg.cache_dir / hashlib.sha256(url.encode("utf-8")).hexdigest()


def _cache_read(path: Path, url: str) -> Optional[PageContent]:
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("url") != url:
        return None
    paragraphs = payload.get("paragraphs")
    if not isinstance(paragraphs, list) or not all(isinstance(p, str) for p in paragraphs):
        return None
    try:
        return PageContent(url=url, paragraphs=tuple(paragraphs))
    except ValueError:
        return None


def _cache_write(path: Path, url: str, paragraphs: Sequence[str]) -> None:
    payload = {
        "url": url,
        "fetched_at": datetime.now(timezone.utc).isoformat(),
        "paragraphs": list(paragraphs),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fetch_and_extract(
    result: SearchResult, cfg: SearchConfig, transport=None
) -> PageContent:
    """Fetch one result through the disk cache and extract its paragraphs.

    A cache hit performs no network call; misses fetch, extract, and write the
    cache atomically so concurrent writers cannot corrupt it.
    """
    path = _cache_path(cfg, result.url)
    cached = _cache_read(path, result.url)
    if cached is not None:
        return cached
    if transport is None:
        transport = HttpTransport()
    body = transport.get(result.url, cfg.fetch_timeout)
    paragraphs = extract_paragraphs(body)
    _cache_write(path, result.url, paragraphs)
    return PageContent(url=result.url, paragraphs=tuple(paragraphs))


def select_external(
    question: Query,
    pages: Sequence[PageContent],
    scorer: Scorer,
    cfg: RefineConfig,
) -> KnowledgeBundle:
    """Filter page paragraphs into an external knowledge bundle.

    Paragraphs are already strip-sized, so they go straight to filtering,
    pooled in (page order, paragraph order).
    """
    strips = [
        KnowledgeStrip(doc_id=page.url, index=para_idx, text=para)
        for page in pages
        for para_idx, para in enumerate(page.paragraphs)
    ]
    if not strips:
        return KnowledgeBundle.from_strips(BundleKind.EXTERNAL, [])
    kept = filter_strips(strips, question, scorer, cfg)
    return KnowledgeBundle.from_strips(BundleKind.EXTERNAL, kept)
