"""Pipeline orchestration: branching, ablations, prompts, generators."""

import json
import tempfile
import time
from unittest import mock

import pytest
import requests
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    JSON_VALUES,
    FakeResponse,
    FakeSession,
    FakeWeb,
    TableScorer,
    a_page,
    http_server,
    redirect,
)
from ragmend import pipeline
from ragmend.errors import (
    ConfigError,
    GenerationError,
    InputError,
    RagmendError,
    RewriteError,
    SearchUnavailableError,
)
from ragmend.harness import DatasetInstance, degrade
from ragmend.mockserver import MockService
from ragmend.pipeline import (
    AblationFlags,
    PipelineConfig,
    RemoteGenerator,
    RemoteRewriter,
    RunRecord,
    StubGenerator,
    MODES,
    assemble_prompt,
    external_knowledge,
    raw_internal_strips,
    resolve_action,
    run,
)
from ragmend.refinement import (
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    segment,
)
from ragmend.scoring import Document, LexicalScorer, Query, RemoteScorer, ScorerConfig, tokenize
from ragmend.trigger import Action, ActionJudgment, Thresholds, judge
from ragmend.websearch import (
    HttpSearchClient,
    SearchConfig,
    rewrite,
)


def make_judgment(max_score, action):
    return ActionJudgment(action=action, max_score=max_score)


TH = Thresholds(upper=0.59, lower=-0.99)


class TestAblationFlags:
    def test_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            AblationFlags(disable_action=Action.CORRECT, only_action=Action.INCORRECT)

    def test_string_coercion(self):
        flags = AblationFlags(disable_action="Correct")
        assert flags.disable_action is Action.CORRECT

    def test_bad_string(self):
        with pytest.raises(ConfigError):
            AblationFlags(only_action="Wrong")


class TestResolveAction:
    def test_no_flags_passthrough(self):
        j = make_judgment(0.7, Action.CORRECT)
        assert resolve_action(j, TH, AblationFlags()) is Action.CORRECT

    def test_disable_correct_reroutes_to_ambiguous(self):
        j = make_judgment(0.7, Action.CORRECT)
        flags = AblationFlags(disable_action=Action.CORRECT)
        assert resolve_action(j, TH, flags) is Action.AMBIGUOUS

    def test_disable_correct_leaves_others(self):
        j = make_judgment(-1.0, Action.INCORRECT)
        flags = AblationFlags(disable_action=Action.CORRECT)
        assert resolve_action(j, TH, flags) is Action.INCORRECT

    def test_disable_incorrect_reroutes_to_ambiguous(self):
        j = make_judgment(-1.0, Action.INCORRECT)
        flags = AblationFlags(disable_action=Action.INCORRECT)
        assert resolve_action(j, TH, flags) is Action.AMBIGUOUS

    def test_disable_ambiguous_single_threshold(self):
        flags = AblationFlags(disable_action=Action.AMBIGUOUS)
        assert resolve_action(make_judgment(0.6, Action.CORRECT), TH, flags) is Action.CORRECT
        # Strictly above the upper bound, as in `judge`.
        at_upper = make_judgment(TH.upper, Action.AMBIGUOUS)
        assert resolve_action(at_upper, TH, flags) is Action.INCORRECT
        assert resolve_action(make_judgment(0.0, Action.AMBIGUOUS), TH, flags) is Action.INCORRECT
        assert resolve_action(make_judgment(-1.0, Action.INCORRECT), TH, flags) is Action.INCORRECT

    def test_only_action_forces_branch(self):
        flags = AblationFlags(only_action=Action.INCORRECT)
        assert resolve_action(make_judgment(0.9, Action.CORRECT), TH, flags) is Action.INCORRECT


class TestAssemblePrompt:
    def test_with_knowledge(self):
        bundle = KnowledgeBundle(
            BundleKind.INTERNAL, (KnowledgeStrip(doc_id="d", index=0, text="K"),)
        )
        assert assemble_prompt(Query("Q"), bundle) == "K\n\nQuestion: Q\nAnswer:"

    def test_empty_bundle(self):
        bundle = KnowledgeBundle(BundleKind.EXTERNAL, ())
        assert assemble_prompt(Query("Q"), bundle) == "Question: Q\nAnswer:"

    @given(
        # Query rejects lone surrogates (category Cs); TestQuery covers that.
        st.text(
            alphabet=st.characters(blacklist_characters="\n", blacklist_categories=["Cs"]),
            min_size=1,
            max_size=40,
        ),
        st.text(max_size=120),
    )
    def test_injective_without_delimiter(self, question, knowledge):
        question = question.strip()
        if not question or "\n\nQuestion: " in knowledge:
            return
        # A blank knowledge text stands for none: the empty bundle.
        strips = (KnowledgeStrip(doc_id="d", index=0, text=knowledge),) if knowledge.strip() else ()
        prompt = assemble_prompt(Query(question), KnowledgeBundle(BundleKind.INTERNAL, strips))
        match = pipeline._PROMPT_RE.match(prompt)
        assert match is not None
        assert match.group("question") == Query(question).text
        assert (match.group("knowledge") or "") == (knowledge if strips else "")


# Words that tie, share tokens only in part, or hold no token at all, in ASCII
# and other scripts; plus random text without a line break.
_STUB_WORDS = [
    "Paris", "paris,", "the", "of", "is", "What", "capital", "France?", "city-state",
    "Straße", "STRASSE", "Café", "café", "Ελλάδα", "naïve", "\u212a", "k", "1912",
    "?", "...", "-", "_", "'s",
]
_STUB_TEXT = st.lists(
    st.sampled_from(_STUB_WORDS)
    | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6),
    max_size=8,
).map(" ".join)


class TestStubGenerator:
    def test_picks_best_overlap_line(self):
        prompt = "Paris is the capital of France.\n\nQuestion: capital of France\nAnswer:"
        assert StubGenerator().generate(prompt) == "Paris is the capital of France."

    def test_empty_knowledge_unknown(self):
        assert StubGenerator().generate("Question: anything\nAnswer:") == "UNKNOWN"

    def test_first_line_wins_ties(self):
        prompt = "alpha one.\nalpha two.\n\nQuestion: alpha\nAnswer:"
        assert StubGenerator().generate(prompt) == "alpha one."

    def test_unparseable_prompt(self):
        assert StubGenerator().generate("free-form text") == "UNKNOWN"

    @given(_STUB_TEXT, st.lists(_STUB_TEXT, max_size=6))
    def test_ranks_lines_by_question_token_overlap(self, question, texts):
        try:
            query = Query(question)
        except ValueError:
            assume(False)
        strips = tuple(KnowledgeStrip("d", i, text) for i, text in enumerate(texts) if text.strip())
        bundle = KnowledgeBundle(BundleKind.INTERNAL, strips)
        # The reference rule: most unique question tokens shared, first line on ties.
        tokens = set(tokenize(query.text))
        lines = [strip.text for strip in strips]
        expected = "UNKNOWN"
        if lines:
            expected = max(lines, key=lambda line: len(tokens & set(tokenize(line))))
        assert StubGenerator().generate(assemble_prompt(query, bundle)) == expected


class TestRemoteGenerator:
    def test_success(self):
        session = FakeSession([FakeResponse(payload={"text": "hi"})])
        gen = RemoteGenerator("http://localhost:9/g", max_tokens=64, session=session)
        assert gen.generate("p") == "hi"
        assert session.calls[0][2] == {"prompt": "p", "max_tokens": 64}

    def test_retries_then_succeeds(self):
        session = FakeSession(
            [FakeResponse(status_code=500), FakeResponse(payload={"text": "ok"})]
        )
        gen = RemoteGenerator("http://localhost:9/g", session=session)
        assert gen.generate("p") == "ok"

    def test_gives_up(self):
        session = FakeSession([requests.ConnectionError("x")] * 3)
        gen = RemoteGenerator("http://localhost:9/g", retries=2, session=session)
        with pytest.raises(GenerationError):
            gen.generate("p")

    def test_malformed_reply(self):
        session = FakeSession([FakeResponse(payload={"output": "x"})])
        gen = RemoteGenerator("http://localhost:9/g", session=session)
        with pytest.raises(GenerationError):
            gen.generate("p")


class TestRemoteRewriter:
    def _rewriter(self, replies):
        return RemoteRewriter(
            "http://localhost:9/generate", timeout=5, session=FakeSession(replies)
        )

    def test_parses_query_line(self):
        # the parts are returned as split; `rewrite` strips them
        r = self._rewriter([FakeResponse(payload={"text": "query: a, b, c"})])
        assert r.rewrite("anything") == [" a", " b", " c"]

    def test_query_line_among_others(self):
        text = "thinking...\nQuery: Henry Feilden, occupation\nquery: done"
        r = self._rewriter([FakeResponse(payload={"text": text})])
        assert r.rewrite("q") == [" Henry Feilden", " occupation"]

    def test_first_query_line_wins_even_when_empty(self):
        r = self._rewriter([FakeResponse(payload={"text": "query:\nquery: a"})])
        assert r.rewrite("q") == [""]

    def test_query_after_text_that_lowercases_longer(self):
        # "İ".lower() is two characters; the tail starts right after "query:"
        r = self._rewriter([FakeResponse(payload={"text": "İquery:ab,c"})])
        assert r.rewrite("q") == ["ab", "c"]

    def test_missing_query_line(self):
        r = self._rewriter([FakeResponse(payload={"text": "no keywords here"})])
        with pytest.raises(RewriteError):
            r.rewrite("q")

    def test_transport_failure(self):
        r = self._rewriter([requests.ConnectionError("down")])
        with pytest.raises(RewriteError):
            r.rewrite("q")

    def test_non_200(self):
        r = self._rewriter([FakeResponse(status_code=503)])
        with pytest.raises(RewriteError):
            r.rewrite("q")

    def test_prompt_includes_question(self):
        session = FakeSession([FakeResponse(payload={"text": "query: x"})])
        r = RemoteRewriter("http://localhost:9/generate", timeout=5, session=session)
        r.rewrite("What is the capital city of France?")
        assert "What is the capital city of France?" in session.calls[0][2]["prompt"]
        assert session.calls[0][2]["max_tokens"] == 64


RELEVANT = Document(id="rel", text="The capital city of France is Paris.")
DISTRACTOR = Document(id="irr", text="Granite weathers slowly under arid climates.")
QUESTION = "What is the capital city of France?"

PAGE_URL = "mock://web/france"
PAGE_HTML = "<p>The capital city of France is Paris.</p><p>Granite weathers slowly.</p>"


def web_cfg(tmp_path, **kwargs):
    return PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "cache"), **kwargs)


def web_double():
    return FakeWeb(
        {"capital city France": [PAGE_URL], QUESTION: [PAGE_URL]}, {PAGE_URL: PAGE_HTML}
    )


class TestRunBranches:
    def test_correct_branch(self, tmp_path, lexical):
        client = web_double()
        record = run(
            QUESTION,
            [DISTRACTOR, RELEVANT],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
        )
        assert record.action is Action.CORRECT
        assert record.knowledge.kind is BundleKind.INTERNAL
        assert "Paris" in record.answer
        assert client.queries == []
        assert record.searched_urls == ()

    def test_incorrect_branch(self, tmp_path, lexical, monkeypatch):
        refine_calls = []
        original = pipeline.refine

        def counting_refine(*args, **kwargs):
            refine_calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "refine", counting_refine)
        client = web_double()
        record = run(
            QUESTION,
            [DISTRACTOR],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
        )
        assert record.action is Action.INCORRECT
        assert record.knowledge.kind is BundleKind.EXTERNAL
        assert "Paris" in record.answer
        assert record.searched_urls == (PAGE_URL,)
        assert refine_calls == []

    def test_ambiguous_branch_combines(self, tmp_path, lexical):
        # Two of seven query tokens hit: score -3/7, between the thresholds.
        docs = [Document(id="half", text="capital France mention")]
        client = web_double()
        cfg = web_cfg(tmp_path)
        record = run(QUESTION, docs, cfg, lexical, client, None, StubGenerator())
        assert record.action is Action.AMBIGUOUS
        assert record.knowledge.kind is BundleKind.COMBINED
        internal_text = "capital France mention"
        external_text = "The capital city of France is Paris."
        assert record.knowledge.text == internal_text + "\n" + external_text

    def test_ambiguous_knowledge_holds_each_text_once(self, tmp_path, lexical):
        # The page repeats the document's sentence; the internal strip keeps it.
        client = web_double()
        cfg = web_cfg(tmp_path, ablations=AblationFlags(only_action=Action.AMBIGUOUS))
        record = run(QUESTION, [RELEVANT], cfg, lexical, client, None, StubGenerator())
        assert record.knowledge.kind is BundleKind.COMBINED
        assert record.knowledge.text == RELEVANT.text
        assert [s.doc_id for s in record.knowledge.strips] == ["rel"]

    def test_judgment_recomputable_from_scores(self, tmp_path, lexical):
        cfg = web_cfg(tmp_path)
        record = run(
            QUESTION, [DISTRACTOR, RELEVANT], cfg, lexical, None, None, StubGenerator()
        )
        assert judge(record.doc_scores, cfg.thresholds) == record.judgment

    def test_empty_docs_judged_incorrect(self, tmp_path, lexical):
        client = web_double()
        record = run(QUESTION, [], web_cfg(tmp_path), lexical, client, None, StubGenerator())
        assert record.doc_scores == ()
        assert record.judgment == ActionJudgment(Action.INCORRECT, max_score=-1.0)
        assert record.action is Action.INCORRECT
        assert record.knowledge.kind is BundleKind.EXTERNAL
        assert "Paris" in record.answer
        # No document, no /score request.
        session = FakeSession([])
        config = ScorerConfig(kind="remote", endpoint="http://localhost:9/score")
        record = run(QUESTION, [], web_cfg(tmp_path), RemoteScorer(config, session=session))
        assert (record.judgment.max_score, session.calls) == (-1.0, [])

    def test_unknown_mode_rejected(self, tmp_path, lexical):
        with pytest.raises(InputError, match="bogus"):
            run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical, mode="bogus")

    def test_baseline_needs_no_documents(self, tmp_path):
        record = run(QUESTION, [], web_cfg(tmp_path), None, mode="plain_rag")
        assert record.knowledge.strips == ()
        assert record.answer == "UNKNOWN"

    def test_duplicate_doc_ids_rejected(self, tmp_path, lexical):
        docs = [Document(id="d", text="a."), Document(id="d", text="b.")]
        with pytest.raises(InputError):
            run(QUESTION, docs, web_cfg(tmp_path), lexical)

    def test_timings_recorded(self, tmp_path, lexical):
        start = time.perf_counter()
        record = run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical)
        wall = time.perf_counter() - start
        timings = record.timings
        assert set(timings) == {"score", "knowledge", "generate", "total"}
        assert all(0 <= v <= wall for v in timings.values())
        assert timings["score"] + timings["knowledge"] + timings["generate"] <= timings["total"]


class TestRunDegradedPaths:
    def test_no_search_client_yields_empty_external(self, tmp_path, lexical, caplog):
        with caplog.at_level("WARNING"):
            record = run(QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical)
        assert record.action is Action.INCORRECT
        assert record.knowledge.text == ""
        assert record.answer == "UNKNOWN"

    def test_search_unavailable_degrades(self, tmp_path, lexical, caplog):
        class FailingClient:
            def search(self, query):
                raise SearchUnavailableError("boom")

        with caplog.at_level("WARNING"):
            record = run(
                QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, FailingClient()
            )
        assert record.knowledge.text == ""
        assert any("search unavailable" in r.getMessage() for r in caplog.records)

    def test_fetch_error_skips_that_url(self, tmp_path, lexical):
        good = "mock://web/good"
        client = FakeWeb({"capital city France": ["mock://web/missing", good]}, {good: PAGE_HTML})
        record = run(
            QUESTION,
            [DISTRACTOR],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
        )
        assert "Paris" in record.answer
        assert record.searched_urls == ("mock://web/missing", good)

    def test_page_the_parser_rejects_skips_that_url(self, tmp_path, lexical, caplog):
        bad, good = "mock://web/bad", "mock://web/good"
        client = FakeWeb(
            {"capital city France": [bad, good]}, {bad: "<p>a</p><![ bogus ", good: PAGE_HTML}
        )
        with caplog.at_level("WARNING"):
            record = run(QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, client)
        assert "Paris" in record.answer
        assert record.searched_urls == (bad, good)
        assert any(
            "skipping unfetchable page" in r.getMessage() and bad in r.getMessage()
            for r in caplog.records
        )

    def test_unwritable_cache_keeps_fetched_page(self, tmp_path, lexical):
        (tmp_path / "file").write_text("not a directory", "utf-8")
        cfg = PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "file" / "cache"))
        client = web_double()
        record = run(
            QUESTION,
            [],
            cfg,
            lexical,
            client,
            None,
            StubGenerator(),
            mode="rag_web",
        )
        assert record.knowledge.text == "The capital city of France is Paris."
        assert "Paris" in record.answer

    @pytest.mark.parametrize(
        "url",
        ["/page/france", 5, "http://a.com/\ud800"],
        ids=["relative", "non-string", "lone-surrogate"],
    )
    def test_bad_search_url_degrades(self, tmp_path, lexical, caplog, url):
        # HttpSearchClient's read checks each URL: "url must be absolute" / "url must
        # be a string" / "url must be a valid UTF-8 URL"
        session = FakeSession([FakeResponse(payload={"results": [{"url": url}]})])
        client = HttpSearchClient("http://localhost:9/search", retries=0, session=session)
        with caplog.at_level("WARNING"):
            record = run(QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, client)
        assert record.action is Action.INCORRECT
        assert record.knowledge.text == ""
        assert record.searched_urls == ()
        assert any("search unavailable" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_search_redirect_is_not_followed(self, tmp_path, lexical, caplog, monkeypatch, status):
        # The API key would go with a followed redirect: `requests` strips only
        # Authorization when the host changes. Another port stands for another host.
        monkeypatch.setenv("RAGMEND_SEARCH_API_KEY", "secret-key")
        with http_server(a_page) as elsewhere:
            moved = redirect(status, f"{elsewhere.base_url}/elsewhere?q=capital+city+France")
            with http_server(moved) as endpoint:
                client = HttpSearchClient(f"{endpoint.base_url}/search")
                with pytest.raises(SearchUnavailableError) as exc_info:
                    client.search("capital city France")
                with caplog.at_level("WARNING"):
                    record = run(QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, client)
        assert str(exc_info.value) == f"search returned {status}: "
        assert elsewhere.requests == []
        assert [(method, headers["X-API-Key"]) for method, _, headers in endpoint.requests] == [
            ("GET", "secret-key")
        ] * 2
        assert record.knowledge == KnowledgeBundle(BundleKind.EXTERNAL, ())
        assert record.searched_urls == ()
        assert [r.getMessage() for r in caplog.records] == [
            f"search unavailable, external knowledge is empty: search returned {status}: "
        ]

    def _run_over_mock(self, tmp_path, lexical, rewriter):
        """One Incorrect run whose search GET goes to a mock that knows only the
        local keywords "capital city France"."""
        fixtures = tmp_path / "fixtures"
        (fixtures / "pages").mkdir(parents=True)
        (fixtures / "pages" / "france.html").write_text(PAGE_HTML, "utf-8")
        search_map = {"capital city France": [{"url": "{base}/page/france.html"}]}
        (fixtures / "search.json").write_text(json.dumps(search_map), "utf-8")
        with MockService(fixtures) as svc:
            client = HttpSearchClient(f"{svc.base_url}/search", retries=0)
            record = run(
                QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, client, rewriter, StubGenerator()
            )
            assert record.searched_urls == (f"{svc.base_url}/page/france.html",)
        assert record.action is Action.INCORRECT
        assert "Paris" in record.answer

    def test_rewriter_keyword_with_lone_surrogate_falls_back(self, tmp_path, lexical, caplog):
        # websearch.rewrite: a keyword that does not encode as UTF-8
        reply = FakeResponse(payload={"text": "query: Zorblax \ud800"})
        rewriter = RemoteRewriter(
            "http://localhost:9/generate", timeout=5, session=FakeSession([reply])
        )
        with caplog.at_level("WARNING"):
            self._run_over_mock(tmp_path, lexical, rewriter)
        assert any("surrogates not allowed" in r.getMessage() for r in caplog.records)

    def test_library_rewriter_keyword_not_utf8_falls_back(self, tmp_path, lexical, caplog):
        class Broken:
            def rewrite(self, question):
                return ["caf\udc80"]

        with caplog.at_level("WARNING"):
            self._run_over_mock(tmp_path, lexical, Broken())
        assert [r.getMessage() for r in caplog.records] == [
            "rewrite failed, using keyword fallback: 'utf-8' codec can't encode character"
            " '\\udc80' in position 3: surrogates not allowed"
        ]

    def test_non_string_generator_text_recorded(self, tmp_path, lexical):
        # pipeline._read_text: "malformed generator reply: text is not a string"
        generator = RemoteGenerator(
            "http://localhost:9/g", session=FakeSession([FakeResponse(payload={"text": 5})])
        )
        record = run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical, None, None, generator)
        assert "not a string" in record.error
        assert record.answer == ""

    def test_generation_error_recorded(self, tmp_path, lexical):
        class Exploding:
            def generate(self, prompt):
                raise GenerationError("kaput")

        record = run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical, None, None, Exploding())
        assert record.error is not None
        assert record.answer == ""


class TestOneWarningPerFailure:
    """`request` logs only the attempts it retries; the owner of a failure logs it once."""

    def test_failed_page_fetch(self, tmp_path, lexical, caplog):
        url = "http://localhost:9/page/france"
        session = FakeSession(
            [
                FakeResponse(payload={"results": [{"url": url}]}),
                requests.ConnectionError("refused"),
            ]
        )
        client = HttpSearchClient("http://localhost:9/search", retries=0, session=session)
        with caplog.at_level("WARNING"):
            record = run(QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, client)
        assert record.searched_urls == (url,)
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping unfetchable page: fetch failed for {url}: "
            "page unreachable after 1 attempts: refused"
        ]

    def test_failed_rewriter(self, tmp_path, lexical, caplog):
        session = FakeSession([requests.ConnectionError("refused")])
        rewriter = RemoteRewriter("http://localhost:9/generate", timeout=5, session=session)
        with caplog.at_level("WARNING"):
            record = run(
                QUESTION, [DISTRACTOR], web_cfg(tmp_path), lexical, web_double(), rewriter
            )
        assert "Paris" in record.answer
        assert [r.getMessage() for r in caplog.records] == [
            "rewrite failed, using keyword fallback: "
            "rewriter unreachable after 1 attempts: refused"
        ]

    def test_scorer_logs_only_its_retries(self, monkeypatch, caplog):
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        replies = [FakeResponse(status_code=503)] * 2 + [FakeResponse(payload={"score": 0.5})]
        config = ScorerConfig(kind="remote", endpoint="http://localhost:9/score", retries=2)
        scorer = RemoteScorer(config, session=FakeSession(replies))
        with caplog.at_level("WARNING"):
            assert scorer.score_text("q", "d") == 0.5
        assert [r.getMessage() for r in caplog.records] == [
            "scorer returned 503 (attempt 1)",
            "scorer returned 503 (attempt 2)",
        ]


class TestRunAblations:
    def test_no_refinement_uses_raw_docs(self, tmp_path, lexical):
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_refinement=True))
        record = run(QUESTION, [DISTRACTOR, RELEVANT], cfg, lexical)
        assert record.action is Action.CORRECT
        assert record.knowledge.text == DISTRACTOR.text + "\n" + RELEVANT.text

    def test_no_rewriting_searches_raw_question(self, tmp_path, lexical):
        client = web_double()
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_rewriting=True))
        run(
            QUESTION,
            [DISTRACTOR],
            cfg,
            lexical,
            client,
            None,
            StubGenerator(),
        )
        assert client.queries == [QUESTION]

    def test_no_selection_keeps_all_paragraphs(self, tmp_path, lexical):
        client = web_double()
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_selection=True))
        record = run(
            QUESTION,
            [DISTRACTOR],
            cfg,
            lexical,
            client,
            None,
            StubGenerator(),
        )
        assert len(record.knowledge.strips) == 2
        assert "Granite weathers slowly." in record.knowledge.text

    def test_only_action_overrides_judgment(self, tmp_path, lexical):
        cfg = web_cfg(tmp_path, ablations=AblationFlags(only_action=Action.CORRECT))
        record = run(QUESTION, [DISTRACTOR], cfg, lexical)
        assert record.action is Action.CORRECT
        assert record.judgment.action is Action.INCORRECT


class TestRunRobustness:
    def test_blank_doc_next_to_relevant(self, tmp_path, lexical):
        blank = Document(id="blank", text=" \n\t ")
        record = run(QUESTION, [blank, RELEVANT], web_cfg(tmp_path), lexical)
        assert record.action is Action.CORRECT
        assert [s.doc_id for s in record.knowledge.strips] == ["rel"]
        assert "Paris" in record.answer

    @pytest.mark.parametrize("mode", MODES)
    def test_lone_surrogate_question_is_value_error(self, tmp_path, lexical, fixtures_dir, mode):
        # scoring.Query: "query text must be valid UTF-8"
        question = "Who is Zorblax \ud800?"
        with MockService(fixtures_dir) as svc:
            client = HttpSearchClient(f"{svc.base_url}/search", retries=0)
            with pytest.raises(ValueError, match="query text must be valid UTF-8"):
                run(question, [DISTRACTOR], web_cfg(tmp_path), lexical, client, mode=mode)

    def test_question_with_newline_answered(self, tmp_path, lexical):
        question = "What is the capital\ncity of France?"
        record = run(question, [RELEVANT], web_cfg(tmp_path), lexical)
        assert record.question == QUESTION
        assert "Paris" in record.answer

    @given(
        question=st.text(min_size=1, max_size=40).filter(str.strip),
        texts=st.lists(st.text(max_size=80), max_size=5),
        flag=st.sampled_from(["only_action", "disable_action"]),
        action=st.sampled_from([None, *Action]),
    )
    @example(question="q", texts=["   "], flag="disable_action", action=Action.INCORRECT)
    @example(question="q", texts=[], flag="disable_action", action=Action.INCORRECT)
    @example(question="q", texts=[], flag="disable_action", action=Action.AMBIGUOUS)
    def test_any_instance_gives_record(self, question, texts, flag, action):
        docs = [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]
        cfg = PipelineConfig(ablations=AblationFlags(**{flag: action}))
        record = run(question, docs, cfg, LexicalScorer())
        assert record.error is None
        assert record.action is resolve_action(record.judgment, cfg.thresholds, cfg.ablations)
        assert record.answer
        if not record.knowledge.text:
            assert record.answer == "UNKNOWN"

    @given(
        mode=st.sampled_from(MODES),
        question=st.text(min_size=1, max_size=40).filter(str.strip),
        texts=st.lists(st.text(max_size=80), min_size=1, max_size=5),
        pages=st.lists(st.text(max_size=80), max_size=3),
    )
    def test_timings_are_nonnegative_and_stages_fit_in_total(self, mode, question, texts, pages):
        docs = [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]
        urls = [f"mock://web/p{i}" for i in range(len(pages))]
        query = rewrite(Query(question))
        web = FakeWeb({query: urls}, {url: f"<p>{page}</p>" for url, page in zip(urls, pages)})
        with tempfile.TemporaryDirectory() as cache:
            cfg = PipelineConfig(search=SearchConfig(cache_dir=cache))
            timings = run(question, docs, cfg, LexicalScorer(), web, mode=mode).timings
        assert all(value >= 0 for value in timings.values())
        assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]

    @given(st.text(min_size=1, max_size=40).filter(str.strip))
    def test_prompt_round_trips_any_question(self, text):
        query = Query(text)
        prompt = assemble_prompt(query, KnowledgeBundle(BundleKind.EXTERNAL, ()))
        match = pipeline._PROMPT_RE.match(prompt)
        assert match is not None
        assert match.group("question") == query.text


SENTENCES = (
    "The capital city of France is Paris.",
    "Paris lies on the Seine.",
    "Granite weathers slowly.",
    "France borders Spain.",
)

SEARCH_RESULTS = st.sampled_from(["http://localhost:9/page/a", "http://localhost:9/page/b"]).map(
    lambda url: {"url": url}
)

# Pieces of page markup nobody controls: the `<![ bogus` declaration the standard
# library's parser rejects, other declarations, an unclosed <p>, character
# references and NUL.
PAGE_FRAGMENTS = (
    "<![ bogus ",
    "<![",
    "<![CDATA[x]]>",
    "<!",
    "<!-- note -->",
    "<!DOCTYPE html>",
    "<p>",
    "</p>",
    "The capital city of France is Paris.",
    "&amp;",
    "&#0;",
    "&#x110000;",
    "&nosuch;",
    "\x00",
)


def role_replies(valid):
    """One role's reply: `valid`, any JSON value, a body that is not JSON, a status
    in 200-599, or a `requests` transport error."""
    return valid | st.one_of(
        JSON_VALUES.map(lambda value: FakeResponse(text=json.dumps(value))),
        st.just(FakeResponse(text="<html>not JSON")),
        st.integers(200, 599).map(lambda status: FakeResponse(status_code=status, text="x")),
        st.sampled_from([requests.ConnectionError("refused"), requests.Timeout("slow")]),
    )


def keyed(key, values):
    """A 200 reply holding `{key: value}`, the value drawn from `values` or any JSON."""
    return (values | JSON_VALUES).map(lambda value: FakeResponse(payload={key: value}))


ABLATIONS = [
    AblationFlags(),
    *(AblationFlags(disable_action=action) for action in Action),
    *(AblationFlags(only_action=action) for action in Action),
    AblationFlags(no_refinement=True),
    AblationFlags(no_rewriting=True),
    AblationFlags(no_selection=True),
]


class WebSession(FakeSession):
    """The search client's session: a search GET (it carries params) gets `search`,
    and every page GET gets `page`."""

    def __init__(self, search, page):
        super().__init__([])
        self.search, self.page = search, page

    def get(self, url, params=None, timeout=None, headers=None, allow_redirects=True):
        self.replies = [self.search if params else self.page]
        return super().get(url, params, timeout, headers)


class TestUntrustedReplies:
    @settings(max_examples=200)
    @given(
        mode=st.sampled_from(MODES),
        flags=st.sampled_from(ABLATIONS),
        retries=st.integers(0, 1),
        docs=st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3),
        scorer_reply=role_replies(keyed("score", st.floats(-1.0, 1.0))),
        search_reply=role_replies(keyed("results", st.lists(SEARCH_RESULTS, min_size=1))),
        page_reply=role_replies(
            st.lists(st.sampled_from(PAGE_FRAGMENTS), max_size=8).map(
                lambda parts: FakeResponse(text="".join(parts))
            )
        ),
        generator_reply=role_replies(keyed("text", st.text(max_size=20))),
        rewriter_reply=role_replies(keyed("text", st.just("query: capital, France"))),
    )
    @example(
        mode="crag",
        flags=AblationFlags(only_action=Action.INCORRECT),
        retries=0,
        docs=[SENTENCES[0]],
        scorer_reply=FakeResponse(payload={"score": 1.0}),
        search_reply=FakeResponse(payload={"results": [{"url": "http://localhost:9/page/a"}]}),
        page_reply=FakeResponse(text="<p>a</p><![ bogus "),
        generator_reply=FakeResponse(payload={"text": "Paris"}),
        rewriter_reply=FakeResponse(payload={"text": "query: capital, France"}),
    )
    def test_run_gives_a_record_or_a_package_error(
        self,
        mode,
        flags,
        retries,
        docs,
        scorer_reply,
        search_reply,
        page_reply,
        generator_reply,
        rewriter_reply,
    ):
        # Enough replies for every request a run can make; FakeSession fails when it runs out.
        def replaying(reply):
            return FakeSession([reply] * 200)

        endpoint = "http://localhost:9"
        scorer_cfg = ScorerConfig(kind="remote", endpoint=f"{endpoint}/score", retries=retries)
        scorer = RemoteScorer(scorer_cfg, session=replaying(scorer_reply))
        client = HttpSearchClient(
            f"{endpoint}/search", retries=retries, session=WebSession(search_reply, page_reply)
        )
        rewriter = RemoteRewriter(
            f"{endpoint}/generate", timeout=1.0, session=replaying(rewriter_reply)
        )
        generator = RemoteGenerator(
            f"{endpoint}/generate", retries=retries, session=replaying(generator_reply)
        )
        documents = [Document(id=f"d{i}", text=text) for i, text in enumerate(docs)]
        with tempfile.TemporaryDirectory() as cache, mock.patch(
            "ragmend.http_session.time.sleep"
        ):
            cfg = PipelineConfig(search=SearchConfig(cache_dir=cache), ablations=flags)
            try:
                record = run(
                    QUESTION, documents, cfg, scorer, client, rewriter, generator, mode=mode
                )
            except RagmendError:
                return
        assert isinstance(record, RunRecord)

# The knowledge kind by crag action, or by baseline mode.
KNOWLEDGE_KIND = {
    Action.CORRECT: BundleKind.INTERNAL,
    Action.INCORRECT: BundleKind.EXTERNAL,
    Action.AMBIGUOUS: BundleKind.COMBINED,
    "plain_rag": BundleKind.INTERNAL,
    "rag_web": BundleKind.COMBINED,
}


class TestKnowledgeBundle:
    @given(
        mode=st.sampled_from(MODES),
        only_action=st.sampled_from([None, *Action]),
        docs=st.lists(
            st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=2), min_size=1, max_size=4
        ),
        pages=st.lists(
            st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3), min_size=1, max_size=3
        ),
    )
    def test_kind_follows_sources_and_texts_do_not_repeat(self, mode, only_action, docs, pages):
        documents = [Document(id=f"d{i}", text=" ".join(doc)) for i, doc in enumerate(docs)]
        urls = [f"mock://web/p{i}" for i in range(len(pages))]
        web = FakeWeb(
            {"capital city France": urls},
            {url: "".join(f"<p>{p}</p>" for p in page) for url, page in zip(urls, pages)},
        )
        with tempfile.TemporaryDirectory() as cache:
            cfg = PipelineConfig(
                search=SearchConfig(cache_dir=cache),
                ablations=AblationFlags(only_action=only_action),
            )
            record = run(
                QUESTION,
                documents,
                cfg,
                LexicalScorer(),
                web,
                None,
                StubGenerator(),
                mode=mode,
            )
        knowledge = record.knowledge
        assert knowledge.kind is KNOWLEDGE_KIND[record.action or mode]
        texts = [strip.text for strip in knowledge.strips]
        assert len(set(texts)) == len(texts)
        assert knowledge.text == "\n".join(texts)
        from_web = [strip.doc_id in urls for strip in knowledge.strips]
        assert from_web == sorted(from_web)


class DrawnScores(dict):
    """A `TableScorer` table that draws a text's score on its first lookup and keeps it."""

    def __init__(self, data, scores=st.floats(-1.0, 1.0)):
        super().__init__()
        self.data = data
        self.scores = scores

    def __missing__(self, text):
        self[text] = score = self.data.draw(self.scores, label=text)
        return score


class TestAmbiguousIsCorrectPlusIncorrect:
    """Under only_action=Ambiguous the knowledge strips are, in order, the
    only_action=Correct strips and then the only_action=Incorrect strips, each text
    kept at its first place, with or without the no_* ablations."""

    @given(
        flags=st.sampled_from(
            [{}, {"no_refinement": True}, {"no_rewriting": True}, {"no_selection": True}]
        ),
        lexical=st.booleans(),
        docs=st.lists(
            st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3), max_size=4
        ),
        pages=st.lists(
            st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3), max_size=3
        ),
        data=st.data(),
    )
    def test_ambiguous_strips_are_correct_then_incorrect_strips(
        self, flags, lexical, docs, pages, data
    ):
        documents = [Document(id=f"d{i}", text=" ".join(doc)) for i, doc in enumerate(docs)]
        urls = [f"mock://web/p{i}" for i in range(len(pages))]
        web = FakeWeb(
            {"capital city France": urls, QUESTION: urls},
            {url: "".join(f"<p>{p}</p>" for p in page) for url, page in zip(urls, pages)},
        )
        scorer = LexicalScorer() if lexical else TableScorer(DrawnScores(data))
        strips = {}
        with tempfile.TemporaryDirectory() as cache:
            for action in Action:
                cfg = PipelineConfig(
                    search=SearchConfig(cache_dir=cache),
                    ablations=AblationFlags(only_action=action, **flags),
                )
                strips[action] = run(QUESTION, documents, cfg, scorer, web).knowledge.strips
        unique = {}
        for strip in strips[Action.CORRECT] + strips[Action.INCORRECT]:
            unique.setdefault(strip.text, strip)
        assert strips[Action.AMBIGUOUS] == tuple(unique.values())


RANK = {Action.INCORRECT: 0, Action.AMBIGUOUS: 1, Action.CORRECT: 2}
THRESHOLDS = (
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True)
    .map(sorted)
    .map(lambda pair: Thresholds(upper=pair[1], lower=pair[0]))
)
ACTION_FLAGS = st.sampled_from(
    [AblationFlags(), AblationFlags(no_refinement=True)]
    + [AblationFlags(disable_action=action) for action in Action]
    + [AblationFlags(only_action=action) for action in Action]
)


class TestMonotoneUnderRemoval:
    """Removing documents never moves the action up the order Incorrect < Ambiguous
    < Correct: neither the raw judgment nor the action an ablation resolves."""

    @staticmethod
    def ranks(docs, scores, thresholds, flags):
        scorer = TableScorer({f"Document {i}.": score for i, score in enumerate(scores)})
        cfg = PipelineConfig(thresholds=thresholds, ablations=flags)
        record = run(QUESTION, docs, cfg, scorer)
        return RANK[record.judgment.action], RANK[record.action]

    @given(
        thresholds=THRESHOLDS,
        flags=ACTION_FLAGS,
        scores=st.lists(st.floats(-1.0, 1.0), max_size=5),
        data=st.data(),
    )
    def test_removal_never_raises_the_action(self, thresholds, flags, scores, data):
        docs = [Document(f"d{i}", f"Document {i}.") for i in range(len(scores))]
        keep = data.draw(st.lists(st.booleans(), min_size=len(docs), max_size=len(docs)))
        kept = [doc for doc, keep_doc in zip(docs, keep) if keep_doc]
        after = self.ranks(kept, scores, thresholds, flags)
        before = self.ranks(docs, scores, thresholds, flags)
        assert after[0] <= before[0] and after[1] <= before[1]

    @given(
        thresholds=THRESHOLDS,
        flags=ACTION_FLAGS,
        scores=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
        data=st.data(),
        seed=st.integers(0, 2**32),
        levels=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).map(sorted),
    )
    def test_rank_never_rises_with_degradation(
        self, thresholds, flags, scores, data, seed, levels
    ):
        docs = [Document(f"d{i}", f"Document {i}.") for i in range(len(scores))]
        relevant = data.draw(st.lists(st.sampled_from([doc.id for doc in docs]), unique=True))
        instance = DatasetInstance("q", QUESTION, ("Paris",), docs, relevant)
        ranks = [
            self.ranks(degraded.docs, scores, thresholds, flags)
            for p in levels
            for degraded in degrade([instance], p, seed)
        ]
        for before, after in zip(ranks, ranks[1:]):
            assert after[0] <= before[0] and after[1] <= before[1]


def fact_documents(sentence_counts):
    """One document per count, of that many sentences no other document holds."""
    return [
        Document(f"d{i}", " ".join(f"Fact {i} {j}." for j in range(n)))
        for i, n in enumerate(sentence_counts)
    ]


class TestBranchesStayPure:
    """A run whose resolved action is Correct makes no search call, and one whose
    resolved action is Incorrect makes no `refine` call."""

    @given(
        thresholds=THRESHOLDS,
        flags=ACTION_FLAGS,
        docs=st.lists(st.integers(1, 4), max_size=5),
        data=st.data(),
    )
    def test_correct_never_searches_and_incorrect_never_refines(
        self, thresholds, flags, docs, data
    ):
        documents = fact_documents(docs)
        web = FakeWeb({"capital city France": [PAGE_URL]}, {PAGE_URL: PAGE_HTML})
        refine_calls = []
        real_refine = pipeline.refine

        def counting_refine(*args):
            refine_calls.append(args)
            return real_refine(*args)

        # Hypothesis rejects the function-scoped monkeypatch fixture, so patch here.
        with tempfile.TemporaryDirectory() as cache, mock.patch.object(
            pipeline, "refine", counting_refine
        ):
            cfg = PipelineConfig(
                thresholds=thresholds, search=SearchConfig(cache_dir=cache), ablations=flags
            )
            record = run(QUESTION, documents, cfg, TableScorer(DrawnScores(data)), web)
        if record.action is Action.CORRECT:
            assert web.queries == [] and web.fetched == []
        if record.action is Action.INCORRECT:
            assert refine_calls == []


class TestDocumentOrder:
    """Permuting the documents leaves the judgment, the action and the sorted scores
    unchanged, and the set of knowledge texts too unless a score tie decides which
    strip `filter_strips` keeps."""

    @staticmethod
    def tie_decides(strip_scores, refine_cfg):
        passing = sorted((s for s in strip_scores if s > refine_cfg.strip_threshold), reverse=True)
        if not passing:  # the single-best fallback
            return strip_scores.count(max(strip_scores)) > 1
        top_k = refine_cfg.top_k
        return len(passing) > top_k and passing[top_k - 1] == passing[top_k]

    @given(
        thresholds=THRESHOLDS,
        flags=ACTION_FLAGS,
        refine_cfg=st.builds(
            RefineConfig, top_k=st.integers(1, 4), strip_threshold=st.floats(-1.0, 1.0)
        ),
        docs=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        data=st.data(),
    )
    def test_permuting_documents_changes_no_decision(
        self, thresholds, flags, refine_cfg, docs, data
    ):
        documents = fact_documents(docs)
        shuffled = data.draw(st.permutations(documents), label="shuffled")
        # A few fixed scores make ties common.
        table = DrawnScores(data, st.sampled_from([-1.0, -0.5, 0.0, 0.5]) | st.floats(-1.0, 1.0))
        cfg = PipelineConfig(thresholds=thresholds, refine=refine_cfg, ablations=flags)
        before, after = (run(QUESTION, d, cfg, TableScorer(table)) for d in (documents, shuffled))
        assert after.judgment == before.judgment
        assert after.action is before.action
        assert sorted(after.doc_scores) == sorted(before.doc_scores)
        pool = [strip for doc in documents for strip in segment(doc, cfg.refine)]
        if not self.tie_decides([table[strip.text] for strip in pool], cfg.refine):
            texts = {strip.text for strip in after.knowledge.strips}
            assert texts == {strip.text for strip in before.knowledge.strips}


# Words the question shares and one it does not, sentence ends, and the line breaks,
# tabs and spaces a document or page can hold: blank and whitespace-only texts too.
LINE_PIECES = st.sampled_from(
    ["capital", "city", "France", "Paris", "granite", ".", " ", "\t", "\n", "\r\n", "\x85", "\u2028"]
)
LINE_TEXTS = st.lists(LINE_PIECES, max_size=12).map("".join)


class TestKnowledgeLines:
    @pytest.mark.parametrize("mode", ["plain_rag", "crag"])
    def test_document_line_break_stays_in_its_strip(self, tmp_path, lexical, mode):
        doc = Document("d1", "The capital of France\nis Paris.")
        question = "Which city is the capital of France?"
        record = run(question, [doc], web_cfg(tmp_path), lexical, mode=mode)
        assert record.answer == "The capital of France is Paris."

    @given(
        mode_and_flags=st.sampled_from(
            [(mode, {}) for mode in MODES]
            + [("crag", {"no_refinement": True}), ("crag", {"no_selection": True})]
        ),
        texts=st.lists(LINE_TEXTS, max_size=4),
        pages=st.lists(st.tuples(st.booleans(), LINE_TEXTS), max_size=3),
    )
    def test_each_strip_is_one_knowledge_line(self, mode_and_flags, texts, pages):
        mode, flags = mode_and_flags
        docs = [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]
        urls = [f"mock://web/p{i}" for i in range(len(pages))]
        bodies = [f"<p>{text}</p>" if html else text for html, text in pages]
        web = FakeWeb({"capital city France": urls}, dict(zip(urls, bodies)))
        with tempfile.TemporaryDirectory() as cache:
            cfg = PipelineConfig(
                search=SearchConfig(cache_dir=cache), ablations=AblationFlags(**flags)
            )
            # The second run reads every page from the cache the first one wrote.
            records = [run(QUESTION, docs, cfg, LexicalScorer(), web, mode=mode) for _ in "ab"]
        assert records[0].knowledge == records[1].knowledge
        knowledge = records[0].knowledge
        lines = [strip.text for strip in knowledge.strips]
        assert all(line.strip() and len(line.splitlines()) == 1 for line in lines)
        assert knowledge.text.split("\n") == lines if lines else knowledge.text == ""


class TestExternalKnowledgeSessions:
    def test_search_and_page_misses_share_the_client_session(
        self, tmp_path, lexical, wire_counts
    ):
        fixtures = tmp_path / "fixtures"
        (fixtures / "pages").mkdir(parents=True)
        search_map = {}
        for country, batch in (("France", range(3)), ("Spain", range(3, 6))):
            for i in batch:
                page = f"<p>The capital city of {country} {i}.</p>"
                (fixtures / "pages" / f"p{i}.html").write_text(page, "utf-8")
            search_map[f"capital city {country}"] = [
                {"url": f"{{base}}/page/p{i}.html"} for i in batch
            ]
        (fixtures / "search.json").write_text(json.dumps(search_map), "utf-8")
        cfg = web_cfg(tmp_path)
        with MockService(fixtures) as svc:
            client = HttpSearchClient(f"{svc.base_url}/search")
            for country in ("France", "Spain"):
                question = Query(f"What is the capital city of {country}?")
                strips, searched = external_knowledge(question, cfg, lexical, client)
                assert len(searched) == len(strips) == 3
        assert wire_counts.sessions == [client.session]
        assert len(wire_counts.connections) == 1


class TestHelpers:
    def test_raw_internal_strips_skip_empty_docs(self):
        docs = [Document(id="a", text="  "), Document(id="b", text="real text")]
        assert [(s.doc_id, s.index) for s in raw_internal_strips(docs, ())] == [("b", 0)]

    def test_raw_internal_strips_keep_scores(self):
        docs = [Document(id="a", text="x"), Document(id="b", text="y")]
        assert [s.score for s in raw_internal_strips(docs, [0.25, -0.5])] == [0.25, -0.5]
        assert [s.score for s in raw_internal_strips(docs, ())] == [None, None]

    def test_pipeline_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(generator_max_tokens=0)
