"""Prompt templates: each placeholder is filled with its own value, in one pass."""

import pytest
from hypothesis import example, given, strategies as st

from ragmend.prompts import RELEVANCE_PROMPTS, REWRITE_PROMPT, fill

# Texts that hold the placeholders, whole or in part, and `\1`, which a `re.sub`
# replacement string would expand.
PLACEHOLDER_TEXTS = st.lists(
    st.sampled_from(["[question]", "[document]", "[", "]", "question", "\\1", "x", " "])
).map("".join) | st.text()


class TestFillPrompt:
    @pytest.mark.parametrize("name", sorted(RELEVANCE_PROMPTS))
    @given(question=PLACEHOLDER_TEXTS, document=PLACEHOLDER_TEXTS)
    @example(question="What does [document] mean?", document="DOC TEXT")
    def test_each_value_fills_its_own_slot(self, name, question, document):
        template = RELEVANCE_PROMPTS[name]
        head, rest = template.split("[question]")
        middle, tail = rest.split("[document]")
        filled = fill(template, question=question, document=document)
        assert filled == head + question + middle + document + tail

    @given(question=PLACEHOLDER_TEXTS)
    def test_rewrite_prompt_holds_the_question_once(self, question):
        head, tail = REWRITE_PROMPT.split("[question]")
        assert fill(REWRITE_PROMPT, question=question) == head + question + tail
