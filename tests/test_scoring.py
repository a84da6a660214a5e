"""Scoring contract: lexical formula, batch equivalence, remote client."""

import json
import math
import random
import re

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


def reference_tokenize(text):
    """The original definition: split on runs of [\\W_] and drop empty pieces."""
    return [tok for tok in re.split(r"[\W_]+", text.lower()) if tok]


def reference_score(query, document):
    unique = set(reference_tokenize(query))
    if not unique:
        return -1.0
    hits = len(unique & set(reference_tokenize(document)))
    return 2.0 * hits / len(unique) - 1.0


class TestTokenizeMatchesReference:
    @given(st.text())
    def test_equals_split_and_filter(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_unicode_letters_and_digits(self):
        text = "Ünïcode_straße 42x İstanbul ٣ 東京!"
        assert tokenize(text) == reference_tokenize(text)


class TestLexicalQueryMemo:
    @given(
        st.lists(st.text(max_size=30), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0), st.text(max_size=80)), max_size=12),
    )
    def test_interleaved_queries_match_formula(self, queries, pairs):
        scorer = LexicalScorer()
        for pick, document in pairs:
            query = queries[pick % len(queries)]
            assert scorer.score_text(query, document) == reference_score(query, document)

    def test_more_queries_than_memo_slots(self, lexical):
        queries = [f"q{i} shared" for i in range(100)]
        for _ in range(2):
            for i, query in enumerate(queries):
                assert lexical.score_text(query, f"q{i}") == 0.0
                assert lexical.score_text(query, "shared") == 0.0
                assert lexical.score_text(query, f"q{i} shared") == 1.0


class TestQuery:
    def test_strips_text(self):
        assert Query("  hi  ").text == "hi"

    def test_newlines_become_one_space(self):
        assert Query("capital of\n  France\r\n\n?").text == "capital of France ?"

    @pytest.mark.parametrize(
        "brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    )
    def test_every_line_break_becomes_one_space(self, brk):
        assert Query(f" what {brk}\t is  it {brk}").text == "what is  it"

    def test_other_whitespace_kept(self):
        assert Query("a  b\tc").text == "a  b\tc"

    def test_rejects_blank(self):
        with pytest.raises(ValueError):
            Query("   ")

    @given(
        st.text(max_size=8),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.text(max_size=8),
    )
    def test_rejects_a_lone_surrogate_anywhere(self, before, surrogate, after):
        with pytest.raises(ValueError, match="query text must be valid UTF-8"):
            Query(before + surrogate + after)


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
        assert lexical.score_batch("q", []) == []

    def test_batch_identical_docs(self, lexical):
        scores = lexical.score_batch("same question", ["same text here"] * 3)
        assert len(set(scores)) == 1

    def test_batch_equals_sequential_on_random_pairs(self, lexical):
        rng = random.Random(1234)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        query = " ".join(rng.choices(vocab, k=4))
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(50)]
        assert lexical.score_batch(query, texts) == [lexical.score_text(query, t) for t in texts]

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
        expected = [scorer.score_text(qtext, t) for t in doc_texts]
        assert scorer.score_batch(qtext, doc_texts) == expected


# Every ASCII character (digits, "_", punctuation, control characters), plus the
# one character whose lower() is ASCII although it is not: KELVIN SIGN.
_ASCII_AFTER_LOWER = st.characters(max_codepoint=0x7F) | st.just("\u212a")


class TestAsciiPath:
    """Texts whose lower() is ASCII are scored on bytes; the score must not change."""

    @given(
        st.text(_ASCII_AFTER_LOWER | st.sampled_from("éß東٣İ"), max_size=40),
        st.text(_ASCII_AFTER_LOWER, max_size=200),
    )
    def test_equals_reference(self, query, document):
        assert document.lower().isascii()
        assert LexicalScorer().score_text(query, document) == reference_score(query, document)

    @pytest.mark.parametrize(
        "query, document, score",
        [
            ("kelvin scale", "\u212aELVIN units", 0.0),
            ("snake_case v2", "SNAKE-case\tv2\x00!", 1.0),
            ("café au lait", "cafe AU lait", 1.0 / 3.0),
            ("x_y", "x\x7fy_", 1.0),
        ],
    )
    def test_examples(self, lexical, query, document, score):
        assert math.isclose(lexical.score_text(query, document), score)
        assert lexical.score_text(query, document) == reference_score(query, document)


class TestScoreBatch:
    """One `score_batch` call scores each text as `score_text` does, on both paths."""

    @given(
        st.text(max_size=30),
        st.lists(st.text(_ASCII_AFTER_LOWER, max_size=60), max_size=6),
    )
    def test_byte_path(self, query, texts):
        scorer = LexicalScorer()
        scores = scorer.score_batch(query, texts)
        assert scores == [scorer.score_text(query, t) for t in texts]
        assert scores == [reference_score(query, t) for t in texts]

    @given(
        st.text(max_size=30),
        st.lists(
            st.builds(str.__add__, st.text(max_size=60), st.sampled_from("éß東٣İ")),
            max_size=6,
        ),
    )
    def test_regex_path(self, query, texts):
        assert not any(t.lower().isascii() for t in texts)
        scorer = LexicalScorer()
        scores = scorer.score_batch(query, texts)
        assert scores == [scorer.score_text(query, t) for t in texts]
        assert scores == [reference_score(query, t) for t in texts]


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
    def test_lexical_config_rejected(self):
        # RemoteScorer.__init__: only a kind="remote" config names an endpoint
        with pytest.raises(ConfigError, match="kind='remote'"):
            RemoteScorer(ScorerConfig())

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

    def test_nan_score_rejected(self):
        # json.loads('{"score": NaN}') gives float("nan"); clamping it would read as 1.0
        scorer, _ = _remote([FakeResponse(payload=json.loads('{"score": NaN}'))])
        with pytest.raises(ScorerUnavailableError, match="malformed scorer reply"):
            scorer.score_text("q", "d")

    @pytest.mark.parametrize("raw", ["Infinity", "-Infinity"])
    def test_infinite_score_rejected(self, raw):
        scorer, _ = _remote([FakeResponse(payload=json.loads('{"score": %s}' % raw))])
        with pytest.raises(ScorerUnavailableError, match="malformed scorer reply"):
            scorer.score_text("q", "d")

    def test_huge_integer_score_clamps(self):
        scorer, _ = _remote([FakeResponse(payload=json.loads('{"score": 1%s}' % ("0" * 400)))])
        assert scorer.score_text("q", "d") == 1.0
        scorer, _ = _remote([FakeResponse(payload={"score": 0})])
        assert scorer.score_text("q", "d") == 0.0

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
        scorer.score(Query("q"), Document(id="d", text="body"))
        assert session.calls[0][2] == {"query": "q", "document": "body"}
