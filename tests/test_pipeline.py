"""Pipeline orchestration: branching, ablations, prompts, generators."""

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import CountingTransport, FakeResponse, FakeSession, ListSearchClient
from ragmend import mockserver, pipeline
from ragmend.errors import (
    ConfigError,
    GenerationError,
    InputError,
    NoDocumentsError,
    SearchUnavailableError,
)
from ragmend.mockserver import MockService
from ragmend.pipeline import (
    AblationFlags,
    PipelineConfig,
    RemoteGenerator,
    StubGenerator,
    assemble_prompt,
    combine,
    external_knowledge,
    generate,
    raw_internal_bundle,
    resolve_action,
    run,
)
from ragmend.refinement import BundleKind, KnowledgeBundle, KnowledgeStrip
from ragmend.scoring import Document, LexicalScorer, Query
from ragmend.trigger import Action, ActionJudgment, Thresholds, judge
from ragmend.websearch import SearchConfig, SearchResult


def make_judgment(max_score, action):
    return ActionJudgment(action=action, max_score=max_score, scores=(max_score,))


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
        assert resolve_action(make_judgment(0.0, Action.AMBIGUOUS), TH, flags) is Action.INCORRECT
        assert resolve_action(make_judgment(-1.0, Action.INCORRECT), TH, flags) is Action.INCORRECT

    def test_only_action_forces_branch(self):
        flags = AblationFlags(only_action=Action.INCORRECT)
        assert resolve_action(make_judgment(0.9, Action.CORRECT), TH, flags) is Action.INCORRECT


class TestAssemblePrompt:
    def test_with_knowledge(self):
        bundle = KnowledgeBundle.from_strips(
            BundleKind.INTERNAL, [KnowledgeStrip(doc_id="d", index=0, text="K")]
        )
        assert assemble_prompt(Query("Q"), bundle) == "K\n\nQuestion: Q\nAnswer:"

    def test_empty_bundle(self):
        bundle = KnowledgeBundle.from_strips(BundleKind.EXTERNAL, [])
        assert assemble_prompt(Query("Q"), bundle) == "Question: Q\nAnswer:"

    def test_none_knowledge(self):
        assert assemble_prompt(Query("Q"), None) == "Question: Q\nAnswer:"

    @given(
        st.text(alphabet=st.characters(blacklist_characters="\n"), min_size=1, max_size=40),
        st.text(max_size=120),
    )
    def test_injective_without_delimiter(self, question, knowledge):
        question = question.strip()
        if not question or "\n\nQuestion: " in knowledge:
            return
        bundle = None
        if knowledge.strip():
            try:
                strips = [KnowledgeStrip(doc_id="d", index=0, text=knowledge)]
            except ValueError:
                return
            bundle = KnowledgeBundle(kind=BundleKind.INTERNAL, text=knowledge, strips=tuple(strips))
        prompt = assemble_prompt(Query(question), bundle)
        match = pipeline._PROMPT_RE.match(prompt)
        assert match is not None
        assert match.group("question") == question
        assert (match.group("knowledge") or "") == (knowledge if bundle else "")


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

    def test_generate_requires_prompt(self):
        with pytest.raises(ValueError):
            generate("", StubGenerator())


RELEVANT = Document(id="rel", text="The capital city of France is Paris.")
DISTRACTOR = Document(id="irr", text="Granite weathers slowly under arid climates.")
QUESTION = "What is the capital city of France?"

PAGE_URL = "mock://web/france"
PAGE_HTML = "<p>The capital city of France is Paris.</p><p>Granite weathers slowly.</p>"


def web_cfg(tmp_path, **kwargs):
    return PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "cache"), **kwargs)


def web_doubles():
    client = ListSearchClient(
        {
            "capital city France": [SearchResult(url=PAGE_URL, rank=1)],
            QUESTION: [SearchResult(url=PAGE_URL, rank=1)],
        }
    )
    transport = CountingTransport({PAGE_URL: PAGE_HTML})
    return client, transport


class TestRunBranches:
    def test_correct_branch(self, tmp_path, lexical):
        client, transport = web_doubles()
        record = run(
            QUESTION,
            [DISTRACTOR, RELEVANT],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
            fetch_transport=transport,
        )
        assert record.action is Action.CORRECT
        assert record.knowledge.kind is BundleKind.INTERNAL
        assert "Paris" in record.answer
        assert client.calls == 0
        assert record.searched_urls == ()

    def test_incorrect_branch(self, tmp_path, lexical, monkeypatch):
        refine_calls = []
        original = pipeline.refine

        def counting_refine(*args, **kwargs):
            refine_calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "refine", counting_refine)
        client, transport = web_doubles()
        record = run(
            QUESTION,
            [DISTRACTOR],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
            fetch_transport=transport,
        )
        assert record.action is Action.INCORRECT
        assert record.knowledge.kind is BundleKind.EXTERNAL
        assert "Paris" in record.answer
        assert record.searched_urls == (PAGE_URL,)
        assert refine_calls == []

    def test_ambiguous_branch_combines(self, tmp_path, lexical):
        # Two of seven query tokens hit: score -3/7, between the thresholds.
        docs = [Document(id="half", text="capital France mention")]
        client, transport = web_doubles()
        cfg = web_cfg(tmp_path)
        record = run(
            QUESTION, docs, cfg, lexical, client, None, StubGenerator(), fetch_transport=transport
        )
        assert record.action is Action.AMBIGUOUS
        assert record.knowledge.kind is BundleKind.COMBINED
        internal_text = "capital France mention"
        external_text = "The capital city of France is Paris."
        assert record.knowledge.text == internal_text + "\n" + external_text

    def test_judgment_recomputable_from_scores(self, tmp_path, lexical):
        cfg = web_cfg(tmp_path)
        record = run(
            QUESTION, [DISTRACTOR, RELEVANT], cfg, lexical, None, None, StubGenerator()
        )
        assert judge(record.doc_scores, cfg.thresholds) == record.judgment

    def test_empty_docs_rejected(self, tmp_path, lexical):
        with pytest.raises(NoDocumentsError):
            run(QUESTION, [], web_cfg(tmp_path), lexical)

    def test_duplicate_doc_ids_rejected(self, tmp_path, lexical):
        docs = [Document(id="d", text="a."), Document(id="d", text="b.")]
        with pytest.raises(InputError):
            run(QUESTION, docs, web_cfg(tmp_path), lexical)

    def test_timings_recorded(self, tmp_path, lexical):
        record = run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical)
        assert set(record.timings) == {"score", "knowledge", "generate", "total"}
        assert all(v >= 0 for v in record.timings.values())


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
        client = ListSearchClient(
            {
                "capital city France": [
                    SearchResult(url="mock://web/missing", rank=1),
                    SearchResult(url=good, rank=2),
                ]
            }
        )
        transport = CountingTransport({good: PAGE_HTML})
        record = run(
            QUESTION,
            [DISTRACTOR],
            web_cfg(tmp_path),
            lexical,
            client,
            None,
            StubGenerator(),
            fetch_transport=transport,
        )
        assert "Paris" in record.answer
        assert record.searched_urls == ("mock://web/missing", good)

    def test_generation_error_recorded(self, tmp_path, lexical):
        class Exploding:
            def generate(self, prompt):
                raise GenerationError("kaput")

        record = run(QUESTION, [RELEVANT], web_cfg(tmp_path), lexical, None, None, Exploding())
        assert record.error is not None
        assert record.answer == ""


class TestRunAblations:
    def test_no_refinement_uses_raw_docs(self, tmp_path, lexical):
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_refinement=True))
        record = run(QUESTION, [DISTRACTOR, RELEVANT], cfg, lexical)
        assert record.action is Action.CORRECT
        assert record.knowledge.text == DISTRACTOR.text + "\n" + RELEVANT.text

    def test_no_rewriting_searches_raw_question(self, tmp_path, lexical):
        client, transport = web_doubles()
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_rewriting=True))
        run(
            QUESTION,
            [DISTRACTOR],
            cfg,
            lexical,
            client,
            None,
            StubGenerator(),
            fetch_transport=transport,
        )
        assert client.queries == [QUESTION]

    def test_no_selection_keeps_all_paragraphs(self, tmp_path, lexical):
        client, transport = web_doubles()
        cfg = web_cfg(tmp_path, ablations=AblationFlags(no_selection=True))
        record = run(
            QUESTION,
            [DISTRACTOR],
            cfg,
            lexical,
            client,
            None,
            StubGenerator(),
            fetch_transport=transport,
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

    def test_question_with_newline_answered(self, tmp_path, lexical):
        question = "What is the capital\ncity of France?"
        record = run(question, [RELEVANT], web_cfg(tmp_path), lexical)
        assert record.question == QUESTION
        assert "Paris" in record.answer

    @given(
        question=st.text(min_size=1, max_size=40).filter(str.strip),
        texts=st.lists(st.text(max_size=80), min_size=1, max_size=5).filter(
            lambda texts: any(t.strip() for t in texts)
        ),
        only_action=st.sampled_from([None, *Action]),
    )
    def test_any_instance_with_a_nonblank_doc_gives_record(self, question, texts, only_action):
        docs = [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]
        cfg = PipelineConfig(ablations=AblationFlags(only_action=only_action))
        record = run(question, docs, cfg, LexicalScorer())
        assert record.error is None
        assert record.action is (only_action or record.judgment.action)
        assert record.answer

    @given(st.text(min_size=1, max_size=40).filter(str.strip))
    def test_prompt_round_trips_any_question(self, text):
        query = Query(text)
        match = pipeline._PROMPT_RE.match(assemble_prompt(query, None))
        assert match is not None
        assert match.group("question") == query.text


class TestExternalKnowledgeSessions:
    def test_fetch_misses_share_one_session(self, tmp_path, lexical, monkeypatch):
        pages = tmp_path / "fixtures" / "pages"
        pages.mkdir(parents=True)
        for i in range(3):
            (pages / f"p{i}.html").write_text(f"<p>The capital city of France {i}.</p>")
        sessions, accepted = [], []
        session_init = requests.Session.__init__
        handler_setup = mockserver._Handler.setup

        def counting_init(session, *args, **kwargs):
            sessions.append(session)
            session_init(session, *args, **kwargs)

        def counting_setup(handler):
            accepted.append(handler.client_address)
            handler_setup(handler)

        with MockService(tmp_path / "fixtures") as svc:
            urls = [f"{svc.base_url}/page/p{i}.html" for i in range(3)]
            client = ListSearchClient(
                {"capital city France": [SearchResult(url=u, rank=1) for u in urls]}
            )
            monkeypatch.setattr(requests.Session, "__init__", counting_init)
            monkeypatch.setattr(mockserver._Handler, "setup", counting_setup)
            bundle, searched = external_knowledge(
                Query(QUESTION), web_cfg(tmp_path), lexical, client
            )
        assert searched == urls
        assert len(bundle.strips) == 3
        assert len(sessions) == 1
        assert len(accepted) == 1


class TestHelpers:
    def test_raw_internal_bundle_skips_empty_docs(self):
        docs = [Document(id="a", text="  "), Document(id="b", text="real text")]
        bundle = raw_internal_bundle(docs)
        assert [s.doc_id for s in bundle.strips] == ["b"]

    def test_raw_internal_bundle_keeps_scores(self):
        docs = [Document(id="a", text="x"), Document(id="b", text="y")]
        bundle = raw_internal_bundle(docs, [0.25, -0.5])
        assert [s.score for s in bundle.strips] == [0.25, -0.5]

    def test_combine_order_and_kind(self):
        internal = KnowledgeBundle.from_strips(
            BundleKind.INTERNAL, [KnowledgeStrip(doc_id="a", index=0, text="in")]
        )
        external = KnowledgeBundle.from_strips(
            BundleKind.EXTERNAL, [KnowledgeStrip(doc_id="b", index=0, text="out")]
        )
        merged = combine(internal, external)
        assert merged.kind is BundleKind.COMBINED
        assert merged.text == "in\nout"

    def test_pipeline_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(generator_max_tokens=0)
