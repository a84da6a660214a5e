"""Seeded workload generator for the ragmend benchmark.

Each workload is written only through ragmend's public input formats: a
JSONL dataset read by `harness.load_dataset`, and a fixtures directory
(`search.json` and `pages/`) served by `MockService`. No `score.json` or
`generate.json` is written, so the mock scorer uses the lexical formula and
the mock generator the stub generator.

All words are synthetic (consonant-vowel syllables plus an x/q/j ending), so
no word is an English stopword and the token overlap of every sentence with
every question is known by construction. A question reads
"What is the A B of C D?" and its answer sentence "The A B of C D is GOLD."
matches 7 of its 8 tokens. Every other sentence or paragraph shares at most
the tokens {the, of, A, B, C} with its own question, and pool pages share no
token with any question. So the strip or paragraph holding the answer is
always the unique best line for the stub generator, and each question's
trigger action is fixed by which documents it carries.

`generate` writes the files and a `design.json` that only the benchmark
reads, then `check_design` recomputes each designed property from the
written files and raises `DesignError` if one is off.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
ENDINGS = "xqj"

# The thresholds the pipeline uses by default (the "popqa" preset).
UPPER, LOWER = 0.59, -0.99
# Sentences per strip in the default refine config.
STRIP_SENTENCES = 3
# URLs returned per search: the question's own page plus pool pages.
URLS_PER_SEARCH = 5
POOL_URLS_PER_SEARCH = URLS_PER_SEARCH - 1

WORKLOADS = {
    # All Correct, lexical: the work is lexical scoring and strip refinement.
    "refine-heavy": {
        "questions": 120,
        "mix": {"Correct": 120},
        "scorer": "lexical",
        "degrade_p": 0.0,
        # One document of each length, a fifth on the single-strip path,
        # scaled per question so question costs spread over about 4x.
        "doc_sentences": (1, 2, 4, 7, 10, 14, 19, 25, 32, 40),
        "size_scales": (0.5, 1.0, 2.0),
        "min_pairs_per_question": 40,
        "probe_net_weight": 0.0,
    },
    # All Incorrect after degrade p=1, lexical: the work is web search and
    # page fetches over loopback HTTP through the disk page cache.
    "web-fallback": {
        "questions": 100,
        "mix": {"Incorrect": 100},
        "scorer": "lexical",
        "degrade_p": 1.0,
        "doc_sentences": (3, 3, 3),
        "hit_share": 0.55,
        "min_pairs_per_question": 10,
        "probe_net_weight": 0.4,
    },
    # Remote scorer and generator, one third of each action: the work is
    # one scorer POST per document, strip and paragraph.
    "remote-mixed": {
        "questions": 30,
        "mix": {"Correct": 10, "Ambiguous": 10, "Incorrect": 10},
        "scorer": "remote",
        "degrade_p": 0.0,
        "doc_sentences": (5,) * 10,
        "hit_share": 0.55,
        "min_pairs_per_question": 20,
        "probe_net_weight": 0.4,
    },
}


# probe_net_weight: the share of socket and thread work in the host-speed
# probe (speed.py) for that workload, fitted on this host by the spread of
# normalized 10-second windows: best near 0 for refine-heavy (no HTTP) and
# between 0.3 and 0.45 for remote-mixed; web-fallback, also mostly HTTP,
# takes the same 0.4.


class DesignError(Exception):
    """A generated workload does not have the properties it was designed for."""


def _tokens(text: str) -> set[str]:
    return set(re.findall(r"[a-z0-9]+", text.lower()))


def _overlap_score(question_tokens: set[str], text: str) -> float:
    return 2.0 * len(question_tokens & _tokens(text)) / len(question_tokens) - 1.0


def _action(max_score: float) -> str:
    if max_score > UPPER:
        return "Correct"
    if max_score < LOWER:
        return "Incorrect"
    return "Ambiguous"


def _strip_count(sentences: int) -> int:
    return 1 if sentences <= 2 else math.ceil(sentences / STRIP_SENTENCES)


class _Words:
    """Unique synthetic words drawn from a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def new(self) -> str:
        while True:
            syllables = self.rng.choice((2, 3))
            word = "".join(
                self.rng.choice(CONSONANTS) + self.rng.choice(VOWELS) for _ in range(syllables)
            ) + self.rng.choice(ENDINGS)
            if word not in self.used:
                self.used.add(word)
                return word


class _Writer:
    """Builds sentences and paragraphs for one workload."""

    def __init__(self, rng: random.Random, words: _Words, fillers: int = 400):
        self.rng = rng
        self.fillers = [words.new() for _ in range(fillers)]

    def filler(self) -> str:
        chosen = self.rng.sample(self.fillers, self.rng.randint(5, 9))
        return chosen[0].capitalize() + " " + " ".join(chosen[1:]) + "."

    def partial(self, question: dict) -> str:
        chosen = self.rng.sample(self.fillers, self.rng.randint(4, 7))
        for token in self.rng.sample(question["shared"], self.rng.randint(1, 2)):
            chosen.insert(self.rng.randrange(len(chosen) + 1), token)
        return chosen[0].capitalize() + " " + " ".join(chosen[1:]) + "."

    def sentences(self, count: int, question: dict, partial_share: float) -> list[str]:
        return [
            self.partial(question) if self.rng.random() < partial_share else self.filler()
            for _ in range(count)
        ]


def _question(words: _Words, qid: str) -> dict:
    a, b, c, d, gold = (words.new() for _ in range(5))
    return {
        "id": qid,
        "text": f"What is the {a} {b} of {c} {d}?",
        "key": f"The {a} {b} of {c} {d} is {gold}.",
        "gold": gold,
        "keywords": f"{a} {b} {c}",
        "shared": ["the", "of", a, b, c],
    }


def _docs(
    writer: _Writer, rng: random.Random, q: dict, spec: dict, action: str, scale: float
) -> tuple[list[dict], list[str]]:
    """Documents for one question and the ids of the relevant ones.

    Under degrade p=1 the relevant document holds the answer and is removed,
    and the rest share no question token. Otherwise a Correct question's
    relevant document holds the answer sentence, an Ambiguous one's holds
    at least one partial sentence, and an Incorrect one's shares no token.
    """
    docs = []
    counts = [max(1, round(n * scale)) for n in spec["doc_sentences"]]
    rng.shuffle(counts)
    for i, count in enumerate(counts):
        if action == "Incorrect":
            sentences = [writer.filler() for _ in range(count)]
        else:
            sentences = writer.sentences(count, q, partial_share=0.3)
        docs.append({"id": f"{q['id']}_d{i}", "text": sentences})
    first = docs[0]["text"]
    relevant = []
    if spec["degrade_p"] == 1.0 or action == "Correct":
        first[rng.randrange(len(first))] = q["key"]
        relevant = [docs[0]["id"]]
    elif action == "Ambiguous":
        first[rng.randrange(len(first))] = writer.partial(q)
    rng.shuffle(docs)
    return docs, relevant


# Sentences per paragraph of every fetched page, so each page costs the same.
PAGE_PARAGRAPHS = (1, 2, 3, 2, 1)


def _home_page(writer: _Writer, rng: random.Random, q: dict) -> list[str]:
    """The answer paragraph, two partial ones and two that share no token."""
    paragraphs = [q["key"] + " " + writer.filler()]
    paragraphs += [writer.partial(q) + " " + writer.filler() for _ in range(2)]
    paragraphs += [" ".join(writer.filler() for _ in range(n)) for n in (1, 2)]
    rng.shuffle(paragraphs)
    return paragraphs


def _pool_page(writer: _Writer) -> list[str]:
    return [" ".join(writer.filler() for _ in range(n)) for n in PAGE_PARAGRAPHS]


def _pool_draws(rng: random.Random, searches: int, pool: int) -> list[list[int]]:
    """Pool pages per search: every page is used, none twice in one search."""
    deck = list(range(pool))
    rng.shuffle(deck)
    draws = []
    for _ in range(searches):
        picks: list[int] = []
        while deck and len(picks) < POOL_URLS_PER_SEARCH and deck[-1] not in picks:
            picks.append(deck.pop())
        while len(picks) < POOL_URLS_PER_SEARCH:
            page = rng.randrange(pool)
            if page not in picks:
                picks.append(page)
        draws.append(picks)
    if deck:
        raise DesignError(f"{len(deck)} pool pages would never be fetched")
    return draws


def _html(title: str, paragraphs: list[str]) -> str:
    body = "\n".join(f"<p>{p}</p>" for p in paragraphs)
    return (
        f"<html>\n<head><title>{title}</title></head>\n<body>\n"
        f"<h1>{title}</h1>\n{body}\n</body>\n</html>\n"
    )


def generate(name: str, seed: int, out: Path) -> dict:
    """Write workload `name` for `seed` under `out` and return its design."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    words = _Words(rng)
    writer = _Writer(rng, words)
    actions = [action for action, count in spec["mix"].items() for _ in range(count)]
    rng.shuffle(actions)

    questions = [_question(words, f"q{i:04d}") for i in range(spec["questions"])]
    web = [q for q, action in zip(questions, actions) if action != "Correct"]
    pool = 0
    if web:
        # misses = distinct URLs = own pages + pool pages; hits = the rest.
        fetches = URLS_PER_SEARCH * len(web)
        pool = round(fetches - len(web) - spec["hit_share"] * fetches)
        draws = dict(zip((q["id"] for q in web), _pool_draws(rng, len(web), pool)))

    pages_dir = out / "fixtures" / "pages"
    pages_dir.mkdir(parents=True)
    pages: dict[str, list[str]] = {}
    for i in range(pool):
        pages[f"pool{i:04d}.html"] = _pool_page(writer)

    search: dict[str, list[dict]] = {}
    rows, design_questions = [], []
    scales = spec.get("size_scales", (1.0,))
    for i, (q, action) in enumerate(zip(questions, actions)):
        docs, relevant = _docs(writer, rng, q, spec, action, scales[i % len(scales)])
        urls: list[str] = []
        if action != "Correct":
            home = f"{q['id']}.html"
            pages[home] = _home_page(writer, rng, q)
            names = [home] + [f"pool{page:04d}.html" for page in draws[q["id"]]]
            rng.shuffle(names)
            urls = [f"{{base}}/page/{n}" for n in names]
            search[q["keywords"]] = [{"url": u, "title": f"Page {u}"} for u in urls]
        rows.append(
            {
                "id": q["id"],
                "question": q["text"],
                "answers": [q["gold"]],
                "docs": [{"id": d["id"], "text": " ".join(d["text"])} for d in docs],
                "relevant_doc_ids": relevant,
            }
        )
        design_questions.append({"id": q["id"], "action": action, "urls": urls})

    for page, paragraphs in pages.items():
        (pages_dir / page).write_text(_html(page, paragraphs), "utf-8")
    (out / "fixtures" / "search.json").write_text(json.dumps(search, indent=1), "utf-8")
    with (out / "dataset.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    design = {
        "workload": name,
        "seed": seed,
        "scorer": spec["scorer"],
        "degrade_p": spec["degrade_p"],
        "degrade_seed": seed,
        "mix": spec["mix"],
        "pool_pages": pool,
        "hit_share": spec.get("hit_share"),
        "min_pairs_per_question": spec["min_pairs_per_question"],
        "probe_net_weight": spec["probe_net_weight"],
        "questions": design_questions,
    }
    check_design(design, out)
    (out / "design.json").write_text(json.dumps(design, indent=1), "utf-8")
    return design


def _page_paragraphs(path: Path) -> list[str]:
    return re.findall(r"<p>(.*?)</p>", path.read_text("utf-8"), re.S)


def check_design(design: dict, out: Path) -> None:
    """Recompute every designed property from the written files.

    Fills in the per-question expected pair count and the per-pass expected
    cache-hit share; raises DesignError when the action mix, the token
    overlaps, the pairs per question, the page pool or the hit share are off.
    """
    rows = [json.loads(line) for line in (out / "dataset.jsonl").read_text("utf-8").splitlines()]
    search = json.loads((out / "fixtures" / "search.json").read_text("utf-8"))
    pages_dir = out / "fixtures" / "pages"
    problems: list[str] = []
    mix: dict[str, int] = {}
    seen_urls: set[str] = set()
    fetches = hits = 0
    for row, q in zip(rows, design["questions"]):
        # "what is the A B of C D" -> shared {the, A, B, of, C}, keywords "A B C".
        words = re.findall(r"[a-z0-9]+", row["question"].lower())
        question_tokens, shared = set(words), set(words[2:7])
        keywords = " ".join(words[3:5] + words[6:7])
        gold = row["answers"][0]
        removed = set(row["relevant_doc_ids"]) if design["degrade_p"] == 1.0 else set()
        docs = [d for d in row["docs"] if d["id"] not in removed]
        action = _action(max(_overlap_score(question_tokens, d["text"]) for d in docs))
        mix[action] = mix.get(action, 0) + 1
        if action != q["action"]:
            problems.append(f"{row['id']}: designed {q['action']}, documents give {action}")

        units = [s for d in docs for s in re.split(r"(?<=[.!?])\s+", d["text"])]
        pairs = len(docs)
        if action != "Incorrect":
            pairs += sum(
                _strip_count(len(re.split(r"(?<=[.!?])\s+", d["text"]))) for d in docs
            )
        if action != "Correct":
            results = search.get(keywords)
            if results is None or [r["url"] for r in results] != q["urls"]:
                problems.append(f"{row['id']}: search.json has no entry for {keywords!r}")
                q["pairs"] = pairs
                continue
            for url in q["urls"]:
                paragraphs = _page_paragraphs(pages_dir / url.rsplit("/", 1)[1])
                units += paragraphs
                pairs += len(paragraphs)
                fetches += 1
                hits += url in seen_urls
                seen_urls.add(url)
        answer_units = [u for u in units if gold in _tokens(u)]
        if not answer_units or any(len(question_tokens & _tokens(u)) < 7 for u in answer_units):
            problems.append(f"{row['id']}: no unit holds the answer with 7 question tokens")
        for unit in units:
            if gold not in _tokens(unit) and not (question_tokens & _tokens(unit)) <= shared:
                problems.append(f"{row['id']}: a distractor carries a non-shared question token")
                break
        q["pairs"] = pairs

    if mix != design["mix"]:
        problems.append(f"action mix {mix} != designed {design['mix']}")
    mean_pairs = sum(q["pairs"] for q in design["questions"]) / len(design["questions"])
    if mean_pairs < design["min_pairs_per_question"]:
        problems.append(
            f"{mean_pairs:.1f} pairs per question, designed >= {design['min_pairs_per_question']}"
        )
    pool_files = sorted(p.name for p in pages_dir.glob("pool*.html"))
    used_pool = {u.rsplit("/", 1)[1] for u in seen_urls if "/pool" in u}
    if len(pool_files) != design["pool_pages"] or len(used_pool) != design["pool_pages"]:
        problems.append(
            f"page pool has {len(pool_files)} pages, {len(used_pool)} fetched, "
            f"designed {design['pool_pages']}"
        )
    hit_share = hits / fetches if fetches else None
    if design["hit_share"] is not None and (
        hit_share is None or abs(hit_share - design["hit_share"]) > 0.01
    ):
        problems.append(f"cache-hit share {hit_share} != designed {design['hit_share']}")
    if problems:
        raise DesignError("; ".join(problems[:5]))
    design["expected_hit_share"] = hit_share
    design["pairs_per_pass"] = sum(q["pairs"] for q in design["questions"])
