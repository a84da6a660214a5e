"""Scoring contract: lexical formula, batch equivalence, remote client."""

import math
import random

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import FakeResponse, FakeSession
from ragmend.errors import ConfigError, ScorerUnavailableError
from ragmend.scoring import (
    Document,
    LexicalScorer,
    Query,
    RemoteScorer,
    ScorerConfig,
    build_scorer,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_on_nonalnum(self):
        assert tokenize("Henry Feilden's occupation?") == [
            "henry",
            "feilden",
            "s",
            "occupation",
        ]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("  ... ") == []


class TestQuery:
    def test_strips_text(self):
        assert Query("  hi  ").text == "hi"

    def test_newlines_become_one_space(self):
        assert Query("capital of\n  France\r\n\n?").text == "capital of France ?"

    def test_other_whitespace_kept(self):
        assert Query("a  b\tc").text == "a  b\tc"

    def test_rejects_blank(self):
        with pytest.raises(ValueError):
            Query("   ")


class TestLexicalScorer:
    def test_all_tokens_present(self, lexical):
        assert lexical.score_text(
            "genre of Cyberpunk", "Cyberpunk is a genre of science fiction"
        ) == 1.0

    def test_no_tokens_present(self, lexical):
        assert lexical.score_text("genre of Cyberpunk", "Paris is a city in Europe") == -1.0

    def test_partial_overlap(self, lexical):
        score = lexical.score_text("genre of Cyberpunk", "a genre survey")
        assert math.isclose(score, -1.0 / 3.0, abs_tol=1e-9)

    def test_empty_document(self, lexical):
        assert lexical.score_text("genre of Cyberpunk", "") == -1.0

    def test_empty_query_tokens(self, lexical):
        assert lexical.score_text("?!", "anything") == -1.0

    def test_batch_empty(self, lexical):
        assert lexical.score_batch(Query("q"), []) == []

    def test_batch_identical_docs(self, lexical):
        docs = [Document(id=str(i), text="same text here") for i in range(3)]
        scores = lexical.score_batch(Query("same question"), docs)
        assert len(set(scores)) == 1

    def test_batch_equals_sequential_on_random_pairs(self, lexical):
        rng = random.Random(1234)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        query = Query(" ".join(rng.choices(vocab, k=4)))
        docs = [
            Document(id=str(i), text=" ".join(rng.choices(vocab, k=rng.randint(1, 8))))
            for i in range(50)
        ]
        assert lexical.score_batch(query, docs) == [lexical.score(query, d) for d in docs]

    def test_title_not_scored(self, lexical):
        doc = Document(id="d", text="nothing related", title="genre of Cyberpunk")
        assert lexical.score(Query("genre of Cyberpunk"), doc) == -1.0

    @given(st.text(max_size=60), st.text(max_size=200))
    def test_score_range(self, query, doc):
        score = LexicalScorer().score_text(query, doc)
        assert -1.0 <= score <= 1.0

    @given(st.text(min_size=1, max_size=60), st.text(max_size=200))
    def test_determinism(self, query, doc):
        scorer = LexicalScorer()
        assert scorer.score_text(query, doc) == scorer.score_text(query, doc)

    @given(
        st.text(min_size=1, max_size=40),
        st.lists(st.text(max_size=80), max_size=6),
    )
    def test_batch_sequential_equivalence(self, qtext, doc_texts):
        scorer = LexicalScorer()
        try:
            query = Query(qtext)
        except ValueError:
            return
        docs = [Document(id=str(i), text=t) for i, t in enumerate(doc_texts)]
        assert scorer.score_batch(query, docs) == [scorer.score(query, d) for d in docs]


class TestScorerConfig:
    def test_remote_requires_endpoint(self):
        with pytest.raises(ConfigError):
            ScorerConfig(kind="remote")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ScorerConfig(kind="oracle")

    def test_negative_retries(self):
        with pytest.raises(ConfigError):
            ScorerConfig(retries=-1)

    def test_unknown_prompt(self):
        with pytest.raises(ConfigError):
            ScorerConfig(prompt="chain")

    def test_build_scorer_kinds(self):
        assert isinstance(build_scorer(ScorerConfig()), LexicalScorer)
        remote = build_scorer(ScorerConfig(kind="remote", endpoint="http://localhost:1/s"))
        assert isinstance(remote, RemoteScorer)


def _remote(replies, **cfg_kwargs):
    config = ScorerConfig(kind="remote", endpoint="http://localhost:9/score", **cfg_kwargs)
    session = FakeSession(replies)
    return RemoteScorer(config, session=session), session


class TestRemoteScorer:
    def test_success(self):
        scorer, session = _remote([FakeResponse(payload={"score": 0.5})])
        assert scorer.score_text("q", "d") == 0.5
        method, url, payload = session.calls[0]
        assert payload == {"query": "q", "document": "d"}

    def test_clamps_out_of_range(self):
        scorer, _ = _remote([FakeResponse(payload={"score": 7})])
        assert scorer.score_text("q", "d") == 1.0
        scorer, _ = _remote([FakeResponse(payload={"score": -3.5})])
        assert scorer.score_text("q", "d") == -1.0

    def test_non_numeric_score_rejected(self):
        scorer, _ = _remote([FakeResponse(payload={"score": "high"})])
        with pytest.raises(ScorerUnavailableError):
            scorer.score_text("q", "d")

    def test_bool_score_rejected(self):
        scorer, _ = _remote([FakeResponse(payload={"score": True})])
        with pytest.raises(ScorerUnavailableError):
            scorer.score_text("q", "d")

    def test_missing_key_rejected(self):
        scorer, _ = _remote([FakeResponse(payload={"value": 0.1})])
        with pytest.raises(ScorerUnavailableError):
            scorer.score_text("q", "d")

    def test_retries_on_5xx_then_succeeds(self):
        scorer, session = _remote(
            [FakeResponse(status_code=500), FakeResponse(payload={"score": 0.25})]
        )
        assert scorer.score_text("q", "d") == 0.25
        assert len(session.calls) == 2

    def test_retries_on_transport_error(self):
        scorer, session = _remote(
            [requests.ConnectionError("down"), FakeResponse(payload={"score": 0.0})]
        )
        assert scorer.score_text("q", "d") == 0.0

    def test_gives_up_after_retries(self):
        scorer, session = _remote([requests.ConnectionError("down")] * 3, retries=2)
        with pytest.raises(ScorerUnavailableError):
            scorer.score_text("q", "d")
        assert len(session.calls) == 3

    def test_4xx_fails_without_retry(self):
        scorer, session = _remote([FakeResponse(status_code=404, text="gone")])
        with pytest.raises(ScorerUnavailableError):
            scorer.score_text("q", "d")
        assert len(session.calls) == 1

    def test_prompt_rendered_into_payload(self):
        scorer, session = _remote([FakeResponse(payload={"score": 1})], prompt="direct")
        scorer.score_text("my question", "my document")
        payload = session.calls[0][2]
        assert "my question" in payload["prompt"]
        assert "my document" in payload["prompt"]
        assert "yes or no" in payload["prompt"]

    def test_score_uses_doc_text(self):
        scorer, session = _remote([FakeResponse(payload={"score": 0.1})])
        scorer.score(Query("q"), Document(id="d", text="body", title="title"))
        assert session.calls[0][2] == {"query": "q", "document": "body"}
