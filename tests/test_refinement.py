"""Refinement: sentence splitting, segmentation, strip filtering, recompose."""

import random

import pytest
from hypothesis import given, strategies as st

from ragmend.errors import ConfigError, EmptyDocumentError, NoDocumentsError
from ragmend.refinement import (
    STRIP_SEPARATOR,
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    filter_strips,
    refine,
    segment,
    split_sentences,
)
from ragmend.scoring import Document, LexicalScorer, Query


class TestSplitSentences:
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
        assert [s.text for s in strips] == ["Only sentence here."]

    def test_two_sentences_single_strip(self):
        doc = Document(id="d", text="First. Second.")
        assert [s.text for s in segment(doc, self.CFG)] == ["First. Second."]

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

    def test_whitespace_doc_rejected(self):
        with pytest.raises(EmptyDocumentError):
            segment(Document(id="d", text="  \n "), self.CFG)

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


def selection_oracle(scores, threshold, top_k):
    """Positions kept: above threshold, top-k by score, earlier wins ties, re-sorted."""
    passing = [i for i, s in enumerate(scores) if s > threshold]
    if not passing:
        return [min(range(len(scores)), key=lambda i: (-scores[i], i))]
    ranked = sorted(passing, key=lambda i: (-scores[i], i))[:top_k]
    return sorted(ranked)


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

    def test_empty_input_rejected(self, lexical):
        with pytest.raises(ValueError):
            filter_strips([], self.QUERY, lexical, RefineConfig())

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


class TestRefine:
    def test_empty_docs(self, lexical):
        with pytest.raises(NoDocumentsError):
            refine(Query("q"), [], lexical, RefineConfig())

    def test_pools_across_docs_in_order(self, lexical):
        query = Query("alpha beta gamma delta")
        docs = [
            Document(id="d1", text="alpha beta gamma one. zzz. alpha beta gamma two."),
            Document(id="d2", text="alpha beta gamma delta."),
        ]
        cfg = RefineConfig(strip_sentences=1)
        bundle = refine(query, docs, lexical, cfg)
        assert bundle.kind is BundleKind.INTERNAL
        assert bundle.text == STRIP_SEPARATOR.join(
            ["alpha beta gamma one.", "alpha beta gamma two.", "alpha beta gamma delta."]
        )

    def test_fallback_single_best(self, lexical):
        query = Query("alpha beta gamma delta")
        docs = [Document(id="d1", text="alpha only."), Document(id="d2", text="none here.")]
        bundle = refine(query, docs, lexical, RefineConfig())
        assert bundle.text == "alpha only."

    def test_separator_is_newline(self, lexical):
        query = Query("alpha beta")
        docs = [Document(id="d1", text="alpha beta."), Document(id="d2", text="alpha beta too.")]
        bundle = refine(query, docs, lexical, RefineConfig())
        assert "\n" in bundle.text

    def test_skips_blank_docs(self, lexical):
        query = Query("alpha beta")
        docs = [Document(id="blank", text=" \n\t"), Document(id="d", text="alpha beta.")]
        bundle = refine(query, docs, lexical, RefineConfig())
        assert [s.doc_id for s in bundle.strips] == ["d"]

    def test_all_blank_docs_rejected(self, lexical):
        docs = [Document(id="a", text=" "), Document(id="b", text="\n")]
        with pytest.raises(EmptyDocumentError):
            refine(Query("alpha"), docs, lexical, RefineConfig())


class TestTypes:
    def test_strip_rejects_blank_text(self):
        with pytest.raises(ValueError):
            KnowledgeStrip(doc_id="d", index=0, text="  ")

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

    class FixedScorer(LexicalScorer):
        def score_text(self, query, document):
            return scores[int(document)]

    strips = [KnowledgeStrip(doc_id="d", index=i, text=str(i)) for i in range(len(scores))]
    cfg = RefineConfig(top_k=top_k, strip_threshold=threshold)
    kept = filter_strips(strips, Query("q"), FixedScorer(), cfg)
    indices = [s.index for s in kept]
    assert indices == sorted(indices)
    assert 1 <= len(kept) <= max(top_k, 1)
    passing = [s for s in scores if s > threshold]
    if passing:
        assert all(s.score > threshold for s in kept)
        assert len(kept) == min(top_k, len(passing))
