"""Prompt templates for LLM-backed rewriting and relevance scoring.

Templates use the literal placeholders ``[question]`` and ``[document]``;
``fill`` fills them. The relevance templates are config-selectable via
``ScorerConfig.prompt`` ("direct", "cot", or "few_shot").
"""

import re

REWRITE_PROMPT = """\
Extract at most three keywords separated by comma from the following dialogues and questions as queries for the web search, including topic background within dialogues and main intent within questions.

question: What is Henry Feilden's occupation?
query: Henry Feilden, occupation

question: In what city was Billy Carlson born?
query: city, Billy Carlson, born

question: What is the religion of John Gwynn?
query: religion of John Gwynn

question: What sport does Kiribati men's national basketball team play?
query: sport, Kiribati men's national basketball team play

question: [question]
query: """

RELEVANCE_PROMPT_DIRECT = """\
Given a question, does the following document have exact information to answer the question? Answer yes or no only.
Question: [question]
Document: [document]"""

RELEVANCE_PROMPT_COT = """\
Given a question, does the following document have exact information to answer the question?
Question: [question]
Document: [document]
Think Step by step, and answer with yes or no only."""

RELEVANCE_PROMPT_FEWSHOT = """\
Given a question, does the following document have exact information to answer the question? Answer yes or no only.

Question: In what city was Abraham Raimbach born?
Document: Bancroft was born on November 25, 1839 in New Ipswich, New Hampshire to James Bancroft and Sarah Kimball. At an early age he was cared for by Mr. and Mrs. Patch of Ashby, Massachusetts, the neighboring town. While not legally adopted, they named him Cecil Franklin Patch Bancroft, adding Franklin Patch after the son Mr. and Mrs. Patch had who recently died. He attended public schools in Ashby as well as the Appleton Academy in New Ipswich. He entered Dartmouth College in 1856 at the age of sixteen and graduated in 1860 near the top of his class. Bancroft continued his education as he began his career in teaching. He took classes at the Union Theological Seminary in New York City during the 1864-65 academic year. While there he was a member of the United States Christian Commission, traveling to support soldiers during the Civil War. He then transferred to the Andover Theological Seminary where he would graduate in 1867.
Answer: No.

Question: In what country is Wilcza Jama, Sokolka County?
Document: Wilcza Jama is a village in the administrative district of Gmina Sokolka, within Sokolka County, Podlaskie Voivodeship, in north-eastern Poland, close to the border with Belarus.
Answer: Yes.

Question: What sport does 2004 Legg Mason Tennis Classic play?
Document: The 2004 Legg Mason Tenis Classic was the 36th edition of this tennis tournament and was played on outdoor hard courts. The tournament was part of the International Series of the 2004 ATP Tour. It was held at the William H.G. FitzGerald Tennis Center in Washington, D.C. from August 16 through August 22, 2004.
Answer: Yes.

Question: Who is the author of Skin?
Document: The Skin We're In: A Year of Black Resistance and Power is a book by Desmond Cole published by Doubleday Canada in 2020. The Skin We're In describes the struggle against racism in Canada during the year 2017, chronicling Cole's role as an anti-racist activist and the impact of systemic racism in Canadian society. Among the events it discusses are the aftermath of the assault of Dafonte Miller in late 2016 and Canada 150. The work argues that Canada is not immune to the anti-Black racism that characterizes American society. Due to an error by the publisher, the initial printing of the book's cover did not include word "Black" in the subtitle. The mistake was later corrected. The book won the Toronto Book Award for 2020. In 2021, the book was nominated for the Shaughnessy Cohen Prize for Political Writing.
Answer: No.

Question: [question]
Document: [document]
Answer: """

RELEVANCE_PROMPTS = {
    "direct": RELEVANCE_PROMPT_DIRECT,
    "cot": RELEVANCE_PROMPT_COT,
    "few_shot": RELEVANCE_PROMPT_FEWSHOT,
}


_PLACEHOLDER = re.compile(r"\[(question|document)\]")


def fill(template: str, **values: str) -> str:
    """The template with each placeholder replaced by its value, in one pass."""
    return _PLACEHOLDER.sub(lambda match: values[match.group(1)], template)
