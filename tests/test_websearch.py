"""Web search path: rewriting, search ordering, fetching, extraction, selection."""

import json
import time

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import BoomScorer, FakeResponse, FakeSession, FakeWeb
from ragmend import websearch
from ragmend.errors import ConfigError, FetchError, RewriteError, SearchUnavailableError
from ragmend.mockserver import MockService
from ragmend.pipeline import RemoteRewriter
from ragmend.refinement import KnowledgeStrip, RefineConfig
from ragmend.scoring import LexicalScorer, Query
from ragmend.websearch import (
    EXTRACTOR_VERSION,
    HttpSearchClient,
    KeywordRewriter,
    SearchConfig,
    _clean_word,
    extract_paragraphs,
    fetch_and_extract,
    rewrite,
    search,
    select_external,
)


def _page(url, *paragraphs):
    return [KnowledgeStrip(doc_id=url, index=i, text=p) for i, p in enumerate(paragraphs)]


class TestKeywordRewriter:
    R = KeywordRewriter()

    def test_possessive_proper_noun(self):
        assert self.R.rewrite("What is Henry Feilden's occupation?") == [
            "Henry Feilden",
            "occupation",
        ]

    def test_mixed_content_words(self):
        assert self.R.rewrite("In what city was Billy Carlson born?") == [
            "city",
            "Billy Carlson",
            "born",
        ]

    def test_single_content_token(self):
        assert self.R.rewrite("What is Boston?") == ["Boston"]

    def test_all_stopwords_give_no_keywords(self):
        assert self.R.rewrite("What is it?") == []

    def test_keeps_every_keyword(self):
        out = self.R.rewrite("Compare granite marble quartz slate limestone")
        assert out == ["Compare", "granite", "marble", "quartz", "slate", "limestone"]

    def test_comma_separates_words(self):
        # no keyword holds the rewriter wire's separator
        out = self.R.rewrite("How far is 1,000 km from Oslo?")
        assert out == ["far", "1", "000", "km", "Oslo"]
        assert self.R.rewrite("What, is, it?") == []
        assert self.R.rewrite("Is Hello,World a program?") == ["Hello World", "program"]

    def test_punctuation_token_ends_a_run(self):
        # KeywordRewriter.rewrite: a token that cleans to "" flushes the capitalized run
        assert self.R.rewrite("Where are Paris - France linked?") == ["Paris", "France", "linked"]

    def test_capitalized_run_merges(self):
        assert self.R.rewrite("Where does Kiribati National Team train?") == [
            "Kiribati National Team",
            "train",
        ]


class TestCleanWord:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("occupation?", "occupation"),
            ("'quoted'", "quoted"),
            ("(parens),", "parens"),
            ("Feilden's", "Feilden"),
            ("Feilden’s", "Feilden"),
            ("plain", "plain"),
            ("co-founder", "co-founder"),
        ],
    )
    def test_cases(self, raw, expected):
        assert _clean_word(raw) == expected


class TestRewriteOp:
    def test_no_rewriter_is_the_keyword_rewriter(self):
        assert rewrite(Query("What is Henry Feilden's occupation?")) == "Henry Feilden occupation"

    def test_all_stopwords_search_the_question(self):
        assert rewrite(Query("What is it?")) == "What is it?"
        assert rewrite(Query("What, is, it?"), KeywordRewriter()) == "What, is, it?"

    def test_keyword_query_keeps_first_three(self):
        query = rewrite(Query("Compare granite marble quartz slate limestone"))
        assert query == "Compare granite marble"

    @pytest.mark.parametrize("keywords", [["caf\udc80"], ["ok", "\ud800"]])
    def test_keyword_that_is_not_utf8_falls_back(self, caplog, keywords):
        class Broken:
            def rewrite(self, question):
                return keywords

        with caplog.at_level("WARNING"):
            q = rewrite(Query("What is Henry Feilden's occupation?"), Broken())
        assert q == "Henry Feilden occupation"
        [record] = caplog.records
        assert record.getMessage().startswith("rewrite failed, using keyword fallback: 'utf-8'")

    def test_fallback_on_remote_failure(self, caplog):
        failing = RemoteRewriter(
            "http://localhost:9/g",
            timeout=5,
            session=FakeSession([requests.ConnectionError("x")]),
        )
        with caplog.at_level("WARNING"):
            q = rewrite(Query("What is Henry Feilden's occupation?"), failing)
        assert q == "Henry Feilden occupation"
        assert any("fallback" in r.message for r in caplog.records)

    def test_non_string_remote_text_falls_back(self, caplog):
        # pipeline._read_text: "malformed rewriter reply: text is not a string"
        remote = RemoteRewriter(
            "http://localhost:9/g",
            timeout=5,
            session=FakeSession([FakeResponse(payload={"text": 5})]),
        )
        with caplog.at_level("WARNING"):
            q = rewrite(Query("What is Henry Feilden's occupation?"), remote)
        assert q == "Henry Feilden occupation"
        assert any("not a string" in r.getMessage() for r in caplog.records)

    def test_only_blank_keywords_search_the_question(self):
        # websearch.rewrite: no keyword left after stripping
        class Blank:
            def rewrite(self, question):
                return ["  ", ""]

        assert rewrite(Query("Who wrote Dracula?"), Blank()) == "Who wrote Dracula?"

    def test_clips_to_three(self):
        class Many:
            def rewrite(self, question):
                return ["a", "b", "c", "d", "e"]

        assert rewrite(Query("q"), Many()) == "a b c"

    def test_blank_keywords_dropped(self):
        class Blank:
            def rewrite(self, question):
                return ["  ", "real"]

        assert rewrite(Query("q"), Blank()) == "real"

    @given(
        st.lists(st.one_of(st.text(max_size=8), st.sampled_from(["", " ", "\t\n"])), max_size=6),
        st.text(min_size=1).filter(str.strip),
    )
    def test_first_three_stripped_keywords_or_the_question(self, keywords, text):
        class Fixed:
            def rewrite(self, question):
                return list(keywords)

        question = Query(text)
        kept = [k.strip() for k in keywords if k.strip()]
        expected = " ".join(kept[:3]) if kept else question.text
        assert rewrite(question, Fixed()) == expected


WIKIPEDIA_URLS = st.builds(
    "https://{}wikipedia.org/{}".format,
    st.sampled_from(["", "en.", "EN.", "de.m."]),
    st.integers(0, 9),
)
OTHER_URLS = st.builds(
    "http://{}.{}/{}".format,
    st.sampled_from(["a", "notwikipedia", "wikipedia.org"]),
    st.sampled_from(["com", "org"]),
    st.integers(0, 9),
)
BAD_URLS = st.one_of(
    st.sampled_from(["", "/page/x", "example.com/x", "mailto:x@example.com", "http://[::1/x"]),
    # Low surrogates only: a high one before a low one pairs up in the reply's
    # JSON into one valid astral character (see test_surrogate_pair_is_one_character).
    st.text(st.characters(min_codepoint=0xDC00, max_codepoint=0xDFFF), min_size=1).map(
        "http://a.com/".__add__
    ),
    st.none(),
    st.integers(),
    st.lists(st.integers(), max_size=1),
)


def http_search_client(urls):
    """An HttpSearchClient whose one search reply lists `urls`."""
    reply = FakeResponse(payload={"results": [{"url": url} for url in urls]})
    return HttpSearchClient("http://localhost:9/search", session=FakeSession([reply]))


class TestSearchOp:
    CFG = SearchConfig()

    def test_wikipedia_partitioned_first(self):
        client = FakeWeb(
            {"q": ["http://a.com/1", "http://en.wikipedia.org/X", "http://b.com/2"]}
        )
        out = search("q", client, self.CFG)
        assert out == [
            "http://en.wikipedia.org/X",
            "http://a.com/1",
            "http://b.com/2",
        ]

    def test_truncates_to_top_k(self):
        urls = [f"http://site{i}.com/p" for i in range(8)]
        client = FakeWeb({"q": urls})
        out = search("q", client, self.CFG)
        assert len(out) == 5
        assert out == urls[:5]

    def test_empty_results_ok(self):
        out = search("q", FakeWeb(), self.CFG)
        assert out == []

    def test_preference_disabled(self):
        cfg = SearchConfig(prefer_wikipedia=False)
        client = FakeWeb({"q": ["http://a.com/1", "http://en.wikipedia.org/X"]})
        out = search("q", client, cfg)
        assert out == ["http://a.com/1", "http://en.wikipedia.org/X"]

    def test_lookalike_host_not_preferred(self):
        client = FakeWeb({"q": ["http://notwikipedia.org/a", "http://wikipedia.org/b"]})
        out = search("q", client, self.CFG)
        assert out[0] == "http://wikipedia.org/b"

    def test_query_string_is_joined_keywords(self):
        client = FakeWeb()
        query = rewrite(Query("What is Henry Feilden's occupation?"), KeywordRewriter())
        search(query, client, self.CFG)
        assert client.queries == ["Henry Feilden occupation"]

    @given(st.lists(st.sampled_from("abcdw"), min_size=0, max_size=12))
    def test_partition_is_stable(self, kinds):
        urls = []
        for i, kind in enumerate(kinds):
            host = "en.wikipedia.org" if kind == "w" else f"{kind}{i}.example.com"
            urls.append(f"http://{host}/{i}")
        client = FakeWeb({"q": urls})
        cfg = SearchConfig(top_k_urls=100)
        out = search("q", client, cfg)
        non_wiki = [u for u in urls if "wikipedia" not in u]
        assert [u for u in out if "wikipedia" not in u] == non_wiki
        wiki = [u for u in urls if "wikipedia" in u]
        assert out[: len(wiki)] == wiki

    @pytest.mark.parametrize(
        "url, message",
        [
            (5, "url must be a string"),
            ("/page/x", "url must be absolute"),
            ("mailto:x@example.com", "url must be absolute"),
            ("http://a.com/\ud800", "url must be a valid UTF-8 URL"),
            ("http://[::1/x", "url must be a valid UTF-8 URL"),
            # `requests` would send this to evil.example, not to Wikipedia.
            (
                "http://evil.example\\@en.wikipedia.org/wiki/X",
                "url must have no backslash in its authority",
            ),
        ],
    )
    def test_malformed_url_fails_the_reply(self, url, message):
        client = http_search_client(["http://a.com/1", url])
        with pytest.raises(SearchUnavailableError, match=f"malformed search reply: {message}"):
            search("q", client, SearchConfig(top_k_urls=1, prefer_wikipedia=False))

    def test_backslash_after_the_authority_is_kept(self):
        url = "http://a.com/x\\@en.wikipedia.org/"
        assert search("q", http_search_client([url]), SearchConfig()) == [url]

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("wikipedia"), WIKIPEDIA_URLS),
                st.tuples(st.just("other"), OTHER_URLS),
                st.tuples(st.just("bad"), BAD_URLS),
            ),
            max_size=8,
        ),
        st.integers(1, 6),
        st.booleans(),
    )
    def test_wikipedia_first_prefix_or_unavailable(self, drawn, top_k, prefer):
        client = http_search_client([url for _, url in drawn])
        cfg = SearchConfig(top_k_urls=top_k, prefer_wikipedia=prefer)
        if any(kind == "bad" for kind, _ in drawn):
            with pytest.raises(SearchUnavailableError, match="malformed search reply"):
                search("q", client, cfg)
            return
        order = ("wikipedia", "other") if prefer else (None,)
        expected = [url for want in order for kind, url in drawn if want in (None, kind)]
        assert search("q", client, cfg) == expected[:top_k]


class TestHttpSearchClient:
    def test_surrogate_pair_is_one_character(self):
        # json.dumps writes the pair as "\ud800\udc00", which json.loads reads as U+10000.
        client = http_search_client(["http://a.com/\ud800\udc00"])
        assert client.search("q") == ["http://a.com/\U00010000"]

    def test_parses_results(self):
        payload = {"results": [{"url": "http://a.com/1", "title": "A"}]}
        client = HttpSearchClient(
            "http://localhost:9/search", session=FakeSession([FakeResponse(payload=payload)])
        )
        out = client.search("q")
        assert out == ["http://a.com/1"]

    def test_retries_then_fails(self):
        session = FakeSession([FakeResponse(status_code=500)] * 3)
        client = HttpSearchClient("http://localhost:9/search", retries=2, session=session)
        with pytest.raises(SearchUnavailableError):
            client.search("q")
        assert len(session.calls) == 3

    def test_malformed_reply(self):
        client = HttpSearchClient(
            "http://localhost:9/search",
            session=FakeSession([FakeResponse(payload={"items": []})]),
        )
        with pytest.raises(SearchUnavailableError):
            client.search("q")

    def test_non_string_url_is_malformed(self):
        client = HttpSearchClient(
            "http://localhost:9/search",
            session=FakeSession([FakeResponse(payload={"results": [{"url": 5}]})]),
        )
        with pytest.raises(SearchUnavailableError, match="malformed search reply"):
            search("q", client, SearchConfig())

    def test_result_without_url_is_malformed(self):
        client = HttpSearchClient(
            "http://localhost:9/search",
            session=FakeSession([FakeResponse(payload={"results": [{"title": "A"}]})]),
        )
        with pytest.raises(SearchUnavailableError, match="malformed search reply"):
            client.search("q")

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("RAGMEND_SEARCH_API_KEY", "sekrit")
        session = FakeSession([FakeResponse(payload={"results": []})])
        client = HttpSearchClient("http://localhost:9/search", session=session)
        client.search("q")
        assert session.calls[0][3] == {"X-API-Key": "sekrit"}

    def test_page_fetch_sends_no_api_key(self, monkeypatch):
        monkeypatch.setenv("RAGMEND_SEARCH_API_KEY", "sekrit")
        replies = [FakeResponse(payload={"results": []}), FakeResponse(text="<p>page</p>")]
        session = FakeSession(replies)
        client = HttpSearchClient("http://localhost:9/search", session=session)
        client.search("q")
        assert client.fetch("http://pages.example/p") == "<p>page</p>"
        assert session.calls[1] == ("get", "http://pages.example/p", None, None)

    @pytest.mark.parametrize("api_key", ["ключ", "sek\nrit", " sekrit"])
    def test_api_key_that_is_no_header_value_is_config_error(self, monkeypatch, api_key):
        monkeypatch.setenv("RAGMEND_SEARCH_API_KEY", api_key)
        with pytest.raises(ConfigError, match="RAGMEND_SEARCH_API_KEY") as exc_info:
            HttpSearchClient("http://localhost:9/search", session=FakeSession([]))
        assert api_key not in str(exc_info.value)


class TestExtractParagraphs:
    def test_paragraph_regions(self):
        assert extract_paragraphs("<p>A b.</p><p> </p><p>C&amp;D</p>") == ["A b.", "C&D"]

    def test_plain_text_blocks(self):
        assert extract_paragraphs("x\n\ny") == ["x", "y"]

    def test_nested_tags_stripped(self):
        body = "<p>A <b>bold</b> move.</p>"
        assert extract_paragraphs(body) == ["A bold move."]

    def test_text_outside_p_ignored(self):
        body = "<div>skip</div><p>keep</p>"
        assert extract_paragraphs(body) == ["keep"]

    def test_whitespace_collapsed(self):
        assert extract_paragraphs("<p>  a\n\t b  </p>") == ["a b"]

    def test_unclosed_paragraph_flushed(self):
        assert extract_paragraphs("<p>dangling") == ["dangling"]

    def test_angle_comparison_is_plain_text(self):
        assert extract_paragraphs("a < b\n\nc > d") == ["a < b", "c > d"]

    def test_no_tag_context_in_output(self):
        body = "<html><body><p>one</p><script>x<1</script><p>two <i>it</i></p></body></html>"
        for para in extract_paragraphs(body):
            assert "<" not in para


class TestFetchAndExtract:
    def _cfg(self, tmp_path):
        return SearchConfig(cache_dir=tmp_path / "cache")

    def test_fetch_extract_and_cache(self, tmp_path):
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": "<p>hello there</p>"})
        url = "mock://web/p"
        first = fetch_and_extract(url, cfg, web)
        second = fetch_and_extract(url, cfg, web)
        assert first == second == _page("mock://web/p", "hello there")
        assert len(web.fetched) == 1

    def test_cache_file_shape(self, tmp_path):
        import hashlib

        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": "<p>body</p>"})
        fetch_and_extract("mock://web/p", cfg, web)
        expected_name = hashlib.sha256(b"mock://web/p").hexdigest()
        cache_file = cfg.cache_dir / expected_name
        assert cache_file.is_file()
        payload = json.loads(cache_file.read_text("utf-8"))
        assert payload == {
            "url": "mock://web/p",
            "extractor": EXTRACTOR_VERSION,
            "paragraphs": ["body"],
        }

    @pytest.mark.parametrize("version", [None, EXTRACTOR_VERSION - 1, str(EXTRACTOR_VERSION)])
    def test_cache_from_other_extractor_refetched(self, tmp_path, version):
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": "<p>fresh</p>"})
        url = "mock://web/p"
        fetch_and_extract(url, cfg, web)
        cache_file = next(cfg.cache_dir.iterdir())
        stale = {"url": "mock://web/p", "paragraphs": ["stale"]}
        if version is not None:
            stale["extractor"] = version
        cache_file.write_text(json.dumps(stale), "utf-8")
        page = fetch_and_extract(url, cfg, web)
        assert page == _page("mock://web/p", "fresh")
        assert len(web.fetched) == 2
        assert json.loads(cache_file.read_text("utf-8"))["extractor"] == EXTRACTOR_VERSION

    def test_corrupt_cache_refetched(self, tmp_path):
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": "<p>fresh</p>"})
        url = "mock://web/p"
        fetch_and_extract(url, cfg, web)
        cache_file = next(cfg.cache_dir.iterdir())
        cache_file.write_text("{broken", "utf-8")
        page = fetch_and_extract(url, cfg, web)
        assert page == _page("mock://web/p", "fresh")
        assert len(web.fetched) == 2

    @pytest.mark.parametrize(
        "stale",
        [
            {"url": "mock://web/other", "paragraphs": ["stale"]},
            {"url": "mock://web/p", "paragraphs": "stale"},
            {"url": "mock://web/p", "paragraphs": ["stale", " "]},
        ],
        ids=["other-url", "non-list-paragraphs", "blank-paragraph"],
    )
    def test_bad_cache_file_refetched(self, tmp_path, stale):
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": "<p>fresh</p>"})
        url = "mock://web/p"
        fetch_and_extract(url, cfg, web)
        cache_file = next(cfg.cache_dir.iterdir())
        cache_file.write_text(json.dumps({**stale, "extractor": EXTRACTOR_VERSION}), "utf-8")
        page = fetch_and_extract(url, cfg, web)
        assert page == _page("mock://web/p", "fresh")
        assert len(web.fetched) == 2
        assert json.loads(cache_file.read_text("utf-8"))["paragraphs"] == ["fresh"]

    @pytest.mark.parametrize("paragraph", ["", "two\nlines", "two\u2028lines", "two  spaces"])
    def test_cached_paragraph_extraction_would_not_write_is_a_miss(self, tmp_path, paragraph):
        cfg = self._cfg(tmp_path)
        url = "mock://web/p"
        payload = {"url": url, "extractor": EXTRACTOR_VERSION, "paragraphs": ["ok", paragraph]}
        websearch._cache_path(cfg, url).parent.mkdir(parents=True)
        websearch._cache_path(cfg, url).write_text(json.dumps(payload), "utf-8")
        web = FakeWeb(pages={url: "<p>fresh</p>"})
        assert fetch_and_extract(url, cfg, web) == _page(url, "fresh")
        assert web.fetched == [url]

    def test_unwritable_cache_dir_fetches_every_time(self, tmp_path, caplog):
        (tmp_path / "file").write_text("not a directory", "utf-8")
        cfg = SearchConfig(cache_dir=tmp_path / "file" / "cache")
        web = FakeWeb(pages={"mock://web/p": "<p>hello there</p>"})
        url = "mock://web/p"
        with caplog.at_level("WARNING"):
            first = fetch_and_extract(url, cfg, web)
            second = fetch_and_extract(url, cfg, web)
        assert first == second == _page("mock://web/p", "hello there")
        assert len(web.fetched) == 2
        warnings = [r for r in caplog.records if "page cache not written" in r.getMessage()]
        assert len(warnings) == 2

    def test_cache_path_is_a_directory(self, tmp_path, caplog):
        # websearch._cache_write: os.replace fails, and the temp file is removed
        cfg = self._cfg(tmp_path)
        url = "mock://web/p"
        websearch._cache_path(cfg, url).mkdir(parents=True)
        web = FakeWeb(pages={"mock://web/p": "<p>hello there</p>"})
        with caplog.at_level("WARNING"):
            page = fetch_and_extract(url, cfg, web)
        assert page == _page("mock://web/p", "hello there")
        assert list(cfg.cache_dir.glob("*.tmp")) == []
        assert any("page cache not written" in r.getMessage() for r in caplog.records)

    def test_fetch_error_carries_url(self, tmp_path):
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={})
        with pytest.raises(FetchError) as exc_info:
            fetch_and_extract("mock://web/missing", cfg, web)
        assert exc_info.value.url == "mock://web/missing"

    @pytest.mark.parametrize("body", ["<p>a</p><![ bogus ", "<p>a</p><![ "])
    def test_markup_the_parser_rejects_is_an_uncached_fetch_error(self, tmp_path, body):
        # The standard library's parser raises AssertionError("expected name token ...")
        cfg = self._cfg(tmp_path)
        web = FakeWeb(pages={"mock://web/p": body})
        with pytest.raises(FetchError, match="page markup cannot be parsed") as exc_info:
            fetch_and_extract("mock://web/p", cfg, web)
        assert exc_info.value.url == "mock://web/p"
        assert not cfg.cache_dir.exists()


class TestHttpSearchClientFetch:
    def test_page_body(self, fixtures_dir):
        with MockService(fixtures_dir) as svc, requests.Session() as session:
            client = HttpSearchClient(f"{svc.base_url}/search", session=session)
            body = client.fetch(f"{svc.base_url}/page/q01.html")
        assert "Paris" in body

    def test_missing_page_is_fetch_error_with_status(self, fixtures_dir):
        with MockService(fixtures_dir) as svc, requests.Session() as session:
            client = HttpSearchClient(f"{svc.base_url}/search", session=session)
            url = f"{svc.base_url}/page/no-such-page.html"
            with pytest.raises(FetchError, match="page returned 404") as exc_info:
                client.fetch(url)
        assert exc_info.value.url == url

    @pytest.mark.parametrize(
        "reply, reason",
        [
            (FakeResponse(status_code=503), "page unreachable after 1 attempts: page returned 503"),
            (requests.ConnectionError("down"), "page unreachable after 1 attempts: down"),
        ],
        ids=["5xx", "transport"],
    )
    def test_one_attempt_then_fetch_error(self, reply, reason):
        session = FakeSession([reply])
        client = HttpSearchClient("http://localhost:9/search", session=session)
        with pytest.raises(FetchError) as exc_info:
            client.fetch("http://localhost:9/page/a")
        assert str(exc_info.value) == f"fetch failed for http://localhost:9/page/a: {reason}"
        assert session.calls == [("get", "http://localhost:9/page/a", None, None)]

    def test_closed_port_is_fetch_error(self, closed_port):
        url = f"http://127.0.0.1:{closed_port}/page/q01.html"
        with requests.Session() as session:
            client = HttpSearchClient(f"http://127.0.0.1:{closed_port}/search", session=session)
            with pytest.raises(FetchError) as exc_info:
                client.fetch(url)
        assert exc_info.value.url == url

    def test_fetch_reconnects_after_server_drops_connection(self, tmp_path, wire_counts):
        pages = tmp_path / "fixtures" / "pages"
        pages.mkdir(parents=True)
        for name in ("a", "b"):
            (pages / f"{name}.html").write_text(f"<p>page {name}</p>")
        cfg = SearchConfig(cache_dir=tmp_path / "cache")
        with MockService(tmp_path / "fixtures") as svc:
            client = HttpSearchClient(f"{svc.base_url}/search")
            first = fetch_and_extract(f"{svc.base_url}/page/a.html", cfg, client)
            svc._server.close_connections()
            deadline = time.monotonic() + 5
            while svc._server._open and time.monotonic() < deadline:
                time.sleep(0.01)
            second = fetch_and_extract(f"{svc.base_url}/page/b.html", cfg, client)
        assert [s.text for s in first + second] == ["page a", "page b"]
        assert wire_counts.sessions == [client.session]
        assert len(wire_counts.connections) == 2


class TestSelectExternal:
    CFG = RefineConfig()

    def test_full_overlap_paragraph_selected(self, lexical):
        strips = _page("u", "alpha beta both here", "nothing else")
        kept = select_external(Query("alpha beta"), strips, lexical, self.CFG)
        assert [(s.doc_id, s.index, s.text) for s in kept] == [("u", 0, "alpha beta both here")]

    def test_zero_pages(self):
        assert select_external(Query("q"), [], BoomScorer(), self.CFG) == []

    def test_many_paragraphs_capped_and_ordered(self, lexical):
        strips = _page("u", *(f"alpha beta item {i}" for i in range(12)))
        kept = select_external(Query("alpha beta"), strips, lexical, self.CFG)
        assert len(kept) == 5
        positions = [s.index for s in kept]
        assert positions == sorted(positions)

    def test_page_order_preserved(self, lexical):
        strips = _page("u1", "alpha beta first") + _page("u2", "alpha beta second")
        kept = select_external(Query("alpha beta"), strips, lexical, self.CFG)
        assert [s.doc_id for s in kept] == ["u1", "u2"]


class TestSearchConfig:
    def test_cache_dir_coerced_to_path(self):
        from pathlib import Path

        cfg = SearchConfig(cache_dir="some/dir")
        assert isinstance(cfg.cache_dir, Path)

    def test_validation(self):
        from ragmend.errors import ConfigError

        with pytest.raises(ConfigError):
            SearchConfig(top_k_urls=0)
        with pytest.raises(ConfigError):
            SearchConfig(retries=-1)
