"""Refinement: sentence splitting, segmentation, strip filtering, recompose."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import BoomScorer, TableScorer, selection_oracle
from ragmend import scoring
from ragmend.errors import ConfigError
from ragmend.refinement import (
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    filter_strips,
    refine,
    segment,
    split_sentences,
)
from ragmend.scoring import Document, Query


def reference_split(text):
    """The lookbehind split that the punctuation-capturing split replaced."""
    stripped = text.strip()
    return re.split(r"(?<=[.!?])\s+", stripped) if stripped else []


# Sentence punctuation, letters, and ASCII and Unicode whitespace: `\x1c`, `\x85`,
# `\u2028` and the ideographic space are whitespace to `str.strip` and to `\s`.
_SENTENCE_CHARS = st.sampled_from("ab .!?\n\t\r\x1c\x85\u2028\u3000é")


class TestSplitSentences:
    @given(
        st.text(st.sampled_from(".!? \u3000"), max_size=4),
        st.text(_SENTENCE_CHARS, max_size=60),
    )
    def test_equals_lookbehind_split(self, lead, text):
        assert split_sentences(lead + text) == reference_split(lead + text)

    @given(st.text(max_size=60))
    def test_equals_lookbehind_split_on_any_text(self, text):
        assert split_sentences(text) == reference_split(text)

    def test_periods(self):
        assert split_sentences("One. Two. Three.") == ["One.", "Two.", "Three."]

    def test_mixed_terminators(self):
        assert split_sentences("Really?! Yes. Go!") == ["Really?!", "Yes.", "Go!"]

    def test_no_trailing_space_needed(self):
        assert split_sentences("End here.") == ["End here."]

    def test_newline_separator(self):
        assert split_sentences("A.\nB.") == ["A.", "B."]

    def test_empty(self):
        assert split_sentences("   ") == []

    def test_no_terminator(self):
        assert split_sentences("just a fragment") == ["just a fragment"]


class TestRefineConfig:
    def test_defaults(self):
        cfg = RefineConfig()
        assert (cfg.strip_sentences, cfg.top_k, cfg.strip_threshold) == (3, 5, -0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strip_sentences": 0},
            {"top_k": 0},
            {"strip_threshold": -1.5},
            {"strip_threshold": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RefineConfig(**kwargs)


class TestSegment:
    CFG = RefineConfig()

    def test_one_sentence_single_strip(self):
        doc = Document(id="d", text="Only sentence here.")
        strips = segment(doc, self.CFG)
        assert [(s.index, s.text) for s in strips] == [(0, "Only sentence here.")]

    def test_two_sentences_single_strip(self):
        doc = Document(id="d", text="First. Second.")
        assert [s.text for s in segment(doc, self.CFG)] == ["First. Second."]
        # Also when the window is one sentence: the two-sentence rule comes first.
        one = RefineConfig(strip_sentences=1)
        assert [(s.index, s.text) for s in segment(doc, one)] == [(0, "First. Second.")]

    def test_four_sentences_two_strips(self):
        doc = Document(id="d", text="A. B. C. D.")
        assert [s.text for s in segment(doc, self.CFG)] == ["A. B. C.", "D."]

    def test_seven_sentences_three_strips(self):
        doc = Document(id="d", text="A. B. C. D. E. F. G.")
        texts = [s.text for s in segment(doc, self.CFG)]
        assert texts == ["A. B. C.", "D. E. F.", "G."]

    def test_strip_indices_sequential(self):
        doc = Document(id="d", text="A. B. C. D. E. F. G.")
        assert [s.index for s in segment(doc, self.CFG)] == [0, 1, 2]

    def test_window_size_one(self):
        doc = Document(id="d", text="A. B. C.")
        cfg = RefineConfig(strip_sentences=1)
        assert [s.text for s in segment(doc, cfg)] == ["A.", "B.", "C."]

    def test_whitespace_doc_gives_no_strips(self):
        assert segment(Document(id="d", text="  \n "), self.CFG) == []

    def test_doc_id_carried(self):
        doc = Document(id="d42", text="A. B. C. D.")
        assert {s.doc_id for s in segment(doc, self.CFG)} == {"d42"}


WORDS = ["river", "stone", "calm", "orbit", "maple", "signal", "harbor", "velvet"]


def random_sentences(rng, n):
    return [
        " ".join(rng.choices(WORDS, k=rng.randint(1, 5))) + rng.choice(".!?")
        for _ in range(n)
    ]


class TestSegmentRoundTrip:
    def test_concatenation_reproduces_sentences(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(3, 12)
            sentences = random_sentences(rng, n)
            text = " ".join(sentences)
            cfg = RefineConfig(strip_sentences=rng.randint(1, 4))
            strips = segment(Document(id="d", text=text), cfg)
            rebuilt = [s for strip in strips for s in split_sentences(strip.text)]
            assert rebuilt == sentences

    def test_short_docs_single_strip(self):
        rng = random.Random(100)
        for _ in range(50):
            sentences = random_sentences(rng, rng.randint(1, 2))
            strips = segment(Document(id="d", text=" ".join(sentences)), RefineConfig())
            assert len(strips) == 1


def make_strips(texts):
    return [KnowledgeStrip(doc_id="d", index=i, text=t) for i, t in enumerate(texts)]


class TestFilterStrips:
    QUERY = Query("alpha beta gamma delta")

    def test_threshold_is_strict(self, lexical):
        # one of four query tokens -> score exactly -0.5, excluded by the strict rule
        strips = make_strips(["alpha zzz", "alpha beta yyy"])
        kept = filter_strips(strips, self.QUERY, lexical, RefineConfig())
        assert [s.text for s in kept] == ["alpha beta yyy"]

    def test_fallback_keeps_single_best(self, lexical):
        strips = make_strips(["alpha zzz", "zzz yyy", "alpha qqq"])
        kept = filter_strips(strips, self.QUERY, lexical, RefineConfig())
        assert len(kept) == 1
        assert kept[0].text == "alpha zzz"

    def test_top_k_cap_and_position_order(self, lexical):
        cfg = RefineConfig(top_k=2)
        strips = make_strips(
            ["alpha beta zzz", "alpha beta gamma delta", "alpha beta gamma zzz"]
        )
        kept = filter_strips(strips, self.QUERY, lexical, cfg)
        assert [s.text for s in kept] == ["alpha beta gamma delta", "alpha beta gamma zzz"]

    def test_tie_break_earlier_position(self, lexical):
        cfg = RefineConfig(top_k=1)
        strips = make_strips(["alpha beta one", "alpha beta two"])
        kept = filter_strips(strips, self.QUERY, lexical, cfg)
        assert [s.text for s in kept] == ["alpha beta one"]

    def test_scores_attached(self, lexical):
        kept = filter_strips(
            make_strips(["alpha beta gamma delta"]), self.QUERY, lexical, RefineConfig()
        )
        assert kept[0].score == 1.0

    def test_empty_input_keeps_none_unscored(self):
        assert filter_strips([], self.QUERY, BoomScorer(), RefineConfig()) == []

    def test_matches_oracle_on_random_sets(self, lexical):
        rng = random.Random(2024)
        vocab = ["alpha", "beta", "gamma", "delta", "zzz", "yyy"]
        for _ in range(200):
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 10))
            ]
            cfg = RefineConfig(
                top_k=rng.randint(1, 6),
                strip_threshold=rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]),
            )
            strips = make_strips(texts)
            scores = [lexical.score_text(self.QUERY.text, t) for t in texts]
            expected = selection_oracle(scores, cfg.strip_threshold, cfg.top_k)
            kept = filter_strips(strips, self.QUERY, lexical, cfg)
            assert [s.index for s in kept] == expected


class TestFilterStripsKeepsStrips:
    @given(
        st.lists(st.sampled_from([-1.0, -0.75, -0.5, 0.0, 0.25, 1.0]), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([-1.0, -0.5, 0.0, 0.5]),
    )
    def test_returns_input_strips_with_scorer_value(self, values, top_k, threshold):
        strips = [
            KnowledgeStrip(doc_id=f"d{pos % 3}", index=pos, text=f"strip {pos}", score=7.0)
            for pos in range(len(values))
        ]
        scorer = TableScorer({s.text: v for s, v in zip(strips, values)})
        cfg = RefineConfig(top_k=top_k, strip_threshold=threshold)
        kept = filter_strips(strips, Query("q"), scorer, cfg)
        positions = [s.index for s in kept]
        assert positions == selection_oracle(values, threshold, top_k)
        for strip in kept:
            original = strips[strip.index]
            assert strip == KnowledgeStrip(
                doc_id=original.doc_id,
                index=original.index,
                text=original.text,
                score=values[strip.index],
            )
        assert all(s.score == 7.0 for s in strips)


class TestRefine:
    def test_empty_docs(self):
        assert refine(Query("q"), [], BoomScorer(), RefineConfig()) == []

    def test_pools_across_docs_in_order(self, lexical):
        query = Query("alpha beta gamma delta")
        docs = [
            Document(id="d1", text="alpha beta gamma one. zzz. alpha beta gamma two."),
            Document(id="d2", text="alpha beta gamma delta."),
        ]
        cfg = RefineConfig(strip_sentences=1)
        strips = refine(query, docs, lexical, cfg)
        assert [(s.doc_id, s.text) for s in strips] == [
            ("d1", "alpha beta gamma one."),
            ("d1", "alpha beta gamma two."),
            ("d2", "alpha beta gamma delta."),
        ]

    def test_fallback_single_best(self, lexical):
        query = Query("alpha beta gamma delta")
        docs = [Document(id="d1", text="alpha only."), Document(id="d2", text="none here.")]
        strips = refine(query, docs, lexical, RefineConfig())
        assert [s.text for s in strips] == ["alpha only."]

    def test_separator_is_newline(self, lexical):
        query = Query("alpha beta")
        docs = [Document(id="d1", text="alpha beta."), Document(id="d2", text="alpha beta too.")]
        strips = refine(query, docs, lexical, RefineConfig())
        bundle = KnowledgeBundle.from_strips(BundleKind.INTERNAL, strips)
        assert bundle.text == "alpha beta.\nalpha beta too."

    def test_skips_blank_docs(self, lexical):
        query = Query("alpha beta")
        docs = [Document(id="blank", text=" \n\t"), Document(id="d", text="alpha beta.")]
        strips = refine(query, docs, lexical, RefineConfig())
        assert [s.doc_id for s in strips] == ["d"]

    def test_question_tokenized_once(self, lexical, monkeypatch):
        calls = []
        real = scoring.tokenize

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(scoring, "tokenize", counting)
        question = "river stone calm"
        docs = [
            Document(id=f"d{i}", text=" ".join(random_sentences(random.Random(i), 9)))
            for i in range(4)
        ]
        kept = refine(Query(question), docs, lexical, RefineConfig())
        strips = sum(len(segment(doc, RefineConfig())) for doc in docs)
        assert strips == 12 and kept
        assert calls == [question]

    def test_all_blank_docs_keep_none_unscored(self):
        docs = [Document(id="a", text=" "), Document(id="b", text="\n")]
        assert refine(Query("alpha"), docs, BoomScorer(), RefineConfig()) == []


class TestTypes:
    def test_bundle_from_strips_joins(self):
        bundle = KnowledgeBundle.from_strips(
            BundleKind.EXTERNAL, make_strips(["a", "b"])
        )
        assert bundle.text == "a\nb"
        assert bundle.kind is BundleKind.EXTERNAL

    def test_empty_bundle(self):
        bundle = KnowledgeBundle.from_strips(BundleKind.EXTERNAL, [])
        assert bundle.text == ""
        assert bundle.strips == ()


@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_selection_invariants(scores, top_k, threshold):
    """Selection keeps at most top_k strips in original order."""

    strips = [KnowledgeStrip(doc_id="d", index=i, text=str(i)) for i in range(len(scores))]
    cfg = RefineConfig(top_k=top_k, strip_threshold=threshold)
    scorer = TableScorer({strip.text: score for strip, score in zip(strips, scores)})
    kept = filter_strips(strips, Query("q"), scorer, cfg)
    indices = [s.index for s in kept]
    assert indices == sorted(indices)
    assert 1 <= len(kept) <= max(top_k, 1)
    passing = [s for s in scores if s > threshold]
    if passing:
        assert all(s.score > threshold for s in kept)
        assert len(kept) == min(top_k, len(passing))
