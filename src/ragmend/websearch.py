"""External-knowledge path: rewrite, search, fetch, extract, select.

Questions are rewritten into short keyword queries, by the given rewriter
with a deterministic fallback, sent to a search endpoint, and the returned
pages are fetched through a disk cache, reduced to clean paragraphs, and
filtered with the relevance scorer into external knowledge strips.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import string
import tempfile
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import urlparse

import requests

from .errors import ConfigError, FetchError, RewriteError, SearchUnavailableError
from .http_session import EnvCachedSession, check_endpoint, check_timeout, request
from .refinement import KnowledgeStrip, RefineConfig, filter_strips
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

_EDGE_CHARS = string.punctuation + "“”‘’…"


@dataclass(frozen=True)
class SearchConfig:
    """Search and fetch settings.

    endpoint, timeout, retries and fetch_timeout build the HTTP search client;
    top_k_urls, prefer_wikipedia and cache_dir drive the web stage.
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
            raise ConfigError("search.top_k_urls must be >= 1")
        if self.retries < 0:
            raise ConfigError("search.retries must be >= 0")
        check_timeout("search.timeout", self.timeout)
        check_timeout("search.fetch_timeout", self.fetch_timeout)
        check_endpoint("search.endpoint", self.endpoint)
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

    Splits the question at whitespace and commas, drops stopwords
    (interrogatives among them), and merges consecutive capitalized tokens into
    one phrase so multi-word proper nouns survive. Returns every keyword in
    question order, none for a question of stopwords.
    """

    def rewrite(self, question: str) -> list[str]:
        keywords: list[str] = []
        run: list[str] = []

        def flush():
            if run:
                keywords.append(" ".join(run))
                run.clear()

        for raw in question.replace(",", " ").split():
            word = _clean_word(raw)
            if not word or word.lower() in STOPWORDS:
                flush()
                continue
            if word[0].isupper():
                run.append(word)
                continue
            flush()
            keywords.append(word)
        flush()
        return keywords


def rewrite(question: Query, rewriter=None) -> str:
    """The search string: the first three stripped non-blank keywords joined by
    spaces, else the question text.

    The keywords are the rewriter's, or KeywordRewriter's without one. A
    rewriter that raises RewriteError or gives a keyword that does not encode
    as UTF-8 falls back to KeywordRewriter, with one warning.
    """
    fallback = KeywordRewriter()
    try:
        keywords = (rewriter or fallback).rewrite(question.text)
        " ".join(keywords).encode("utf-8")
    except (RewriteError, UnicodeEncodeError) as exc:
        logger.warning("rewrite failed, using keyword fallback: %s", exc)
        keywords = fallback.rewrite(question.text)
    keywords = [k.strip() for k in keywords if k.strip()]
    return " ".join(keywords[:3]) if keywords else question.text


def _is_wikipedia(url: str) -> bool:
    host = urlparse(url).hostname or ""
    return host == "wikipedia.org" or host.endswith(".wikipedia.org")


def search(query: str, client, cfg: SearchConfig) -> list[str]:
    """Run the query; order Wikipedia hosts first (stably), then truncate."""
    urls = list(client.search(query))
    if cfg.prefer_wikipedia:
        urls.sort(key=lambda url: not _is_wikipedia(url))
    return urls[: cfg.top_k_urls]


def _read_urls(resp: requests.Response) -> list[str]:
    """Each result's `url`, each an absolute URL string that encodes as UTF-8,
    with no backslash in its authority."""
    urls = [item["url"] for item in resp.json()["results"]]
    for url in urls:
        if not isinstance(url, str):
            raise TypeError(f"url must be a string, got {url!r}")
        try:
            url.encode("utf-8")
            parsed = urlparse(url)
        except ValueError as exc:
            raise ValueError(f"url must be a valid UTF-8 URL, got {url!r}: {exc}") from exc
        if not parsed.scheme or not parsed.netloc:
            raise ValueError(f"url must be absolute, got {url!r}")
        # `requests` ends the host at a backslash, so such a URL is sent to another host.
        if "\\" in parsed.netloc:
            raise ValueError(f"url must have no backslash in its authority, got {url!r}")
    return urls


class HttpSearchClient:
    """Search endpoint client: GET ?q=... returning {"results": [{"url": ...}, ...]},
    read by `_read_urls` (a result's "title" is ignored), and GET of the pages
    those results name, both over the client's one session. A search GET waits
    `timeout` s per attempt and a page GET `fetch_timeout` s.

    If RAGMEND_SEARCH_API_KEY is set in the environment it is sent to the
    search endpoint, never to page hosts, as an X-API-Key header, which real
    search backends can require; a key that cannot be a header value raises
    ConfigError here. So the search GET follows no redirect, which could carry
    the key to another host: a 3xx reply fails as any non-200 one does. Page
    GETs carry no key and follow redirects.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = SearchConfig.timeout,
        retries: int = SearchConfig.retries,
        session: Optional[requests.Session] = None,
        *,
        fetch_timeout: float = SearchConfig.fetch_timeout,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.fetch_timeout = fetch_timeout
        self.headers = {}
        api_key = os.environ.get("RAGMEND_SEARCH_API_KEY")
        if api_key:
            try:
                api_key.encode("latin-1")
                requests.utils.check_header_validity(("X-API-Key", api_key))
            except (UnicodeEncodeError, requests.exceptions.InvalidHeader):
                raise ConfigError(
                    "RAGMEND_SEARCH_API_KEY must be a valid HTTP header value"
                    " (Latin-1 text on one line, without leading whitespace)"
                ) from None
            self.headers["X-API-Key"] = api_key
        self.session = session or EnvCachedSession()

    def search(self, query: str) -> list[str]:
        return request(
            lambda: self.session.get(
                self.endpoint,
                params={"q": query},
                headers=self.headers,
                timeout=self.timeout,
                allow_redirects=False,
            ),
            _read_urls,
            what="search",
            error=SearchUnavailableError,
            retries=self.retries,
        )

    def fetch(self, url: str) -> str:
        """One page body as text, in one attempt of `request`; a failure raises FetchError."""
        return request(
            lambda: self.session.get(url, timeout=self.fetch_timeout),
            lambda resp: resp.text,
            what="page",
            error=lambda reason: FetchError(url, reason),
            retries=0,
        )


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


# Stored in each page-cache file; another value is a miss. Bump on changes to extract_paragraphs.
EXTRACTOR_VERSION = 1


def _cache_path(cfg: SearchConfig, url: str) -> Path:
    return cfg.cache_dir / hashlib.sha256(url.encode("utf-8")).hexdigest()


def _page_strips(url: str, paragraphs: Sequence[str]) -> list[KnowledgeStrip]:
    """The URL is each strip's `doc_id`, the paragraph's position its `index`."""
    return [KnowledgeStrip(doc_id=url, index=i, text=para) for i, para in enumerate(paragraphs)]


def _cache_read(path: Path, url: str) -> Optional[list[KnowledgeStrip]]:
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("url") != url:
        return None
    if payload.get("extractor") != EXTRACTOR_VERSION:
        return None
    paragraphs = payload.get("paragraphs")
    # Each paragraph must read as `extract_paragraphs` writes it: non-blank, with its
    # whitespace collapsed, so on one line.
    if not isinstance(paragraphs, list) or not all(
        isinstance(p, str) and p and _collapse_ws(p) == p for p in paragraphs
    ):
        return None
    return _page_strips(url, paragraphs)


def _cache_write(path: Path, url: str, paragraphs: Sequence[str]) -> None:
    payload = {
        "url": url,
        "extractor": EXTRACTOR_VERSION,
        "paragraphs": list(paragraphs),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def fetch_and_extract(url: str, cfg: SearchConfig, client) -> list[KnowledgeStrip]:
    """Fetch one URL through the disk cache under `cfg.cache_dir` as one unscored
    strip per paragraph.

    A cache hit performs no network call; a miss is fetched by the search
    client's `fetch(url)`, extracted, and written to the cache atomically so
    concurrent writers cannot corrupt it, or warns and stays uncached if the
    cache cannot be written. Markup the parser rejects raises FetchError.
    """
    path = _cache_path(cfg, url)
    cached = _cache_read(path, url)
    if cached is not None:
        return cached
    body = client.fetch(url)
    try:
        paragraphs = extract_paragraphs(body)
    except AssertionError as exc:  # how the standard library's parser rejects markup
        raise FetchError(url, f"page markup cannot be parsed: {exc}") from exc
    try:
        _cache_write(path, url, paragraphs)
    except OSError as exc:
        logger.warning("page cache not written, %s stays uncached: %s", url, exc)
    return _page_strips(url, paragraphs)


def select_external(
    question: Query,
    strips: Sequence[KnowledgeStrip],
    scorer: Scorer,
    cfg: RefineConfig,
) -> list[KnowledgeStrip]:
    """Filter pooled page strips and return the kept ones.

    Paragraphs are already strip-sized, so they go straight to filtering in
    the order given; no strips keep none.
    """
    return filter_strips(strips, question, scorer, cfg)
