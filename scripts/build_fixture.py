#!/usr/bin/env python3
"""Build and validate the bundled 20-question fixture.

The fixture is constructed so the degradation curve is fully predictable:
every instance has one relevant document whose lexical score clears the
Correct threshold and two distractor documents with zero question-token
overlap (score exactly -1.0, below the Incorrect threshold) and no gold
substring. The mock web pages carry every answer, so the external path also
succeeds. The script validates all of that before writing anything and is
deterministic, so reruns are byte-identical.

Usage: python3 scripts/build_fixture.py [output_dir]
Default output: src/ragmend/fixtures/
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ragmend.refinement import RefineConfig, split_sentences
from ragmend.scoring import Document, LexicalScorer, Query, tokenize
from ragmend.trigger import Thresholds
from ragmend.websearch import KeywordRewriter, rewrite

UPPER, LOWER = Thresholds.preset("popqa").upper, Thresholds.preset("popqa").lower

# (question, golds, relevant sentence, distractor 1, distractor 2)
ITEMS = [
    (
        "What is the capital city of France?",
        ["Paris"],
        "The capital city of France is Paris.",
        "Granite weathers slowly under arid climates.",
        "Migratory cranes navigate using magnetic cues.",
    ),
    (
        "What is the longest river in Egypt?",
        ["Nile"],
        "The longest river in Egypt is the Nile.",
        "Volcanic basalt cools into hexagonal columns.",
        "Sequoia bark resists wildfire damage.",
    ),
    (
        "Who wrote the gothic novel Dracula?",
        ["Bram Stoker", "Stoker"],
        "Bram Stoker wrote the gothic novel Dracula.",
        "Coral polyps build limestone reefs.",
        "Glaciers carve deep valleys over millennia.",
    ),
    (
        "What is the chemical symbol for gold?",
        ["Au"],
        "The chemical symbol for gold is Au.",
        "Icebergs drift with polar currents.",
        "Moths detect light using compound eyes.",
    ),
    (
        "What is the largest planet in the solar system?",
        ["Jupiter"],
        "The largest planet in the solar system is Jupiter.",
        "Ferns reproduce through spores.",
        "Copper conducts electricity efficiently.",
    ),
    (
        "Who painted the portrait Mona Lisa?",
        ["Leonardo da Vinci", "da Vinci"],
        "Leonardo da Vinci painted the portrait Mona Lisa.",
        "Earthworms aerate compacted soil.",
        "Comets develop tails near perihelion.",
    ),
    (
        "What is the currency used in Japan?",
        ["yen"],
        "The currency used in Japan is the yen.",
        "Owls rotate their heads widely.",
        "Lightning heats air channels abruptly.",
    ),
    (
        "What is the tallest mountain on Earth?",
        ["Everest"],
        "The tallest mountain on Earth is Mount Everest.",
        "Jellyfish pulse rhythmically while swimming.",
        "Bamboo grows faster than most grasses.",
    ),
    (
        "Who discovered the antibiotic penicillin in 1928?",
        ["Fleming"],
        "Alexander Fleming discovered the antibiotic penicillin in 1928.",
        "Quartz crystals vibrate under voltage.",
        "Seahorses anchor themselves with curled tails.",
    ),
    (
        "What is the boiling point of water in Celsius?",
        ["100"],
        "The boiling point of water in Celsius is 100 degrees.",
        "Falcons dive steeply during hunts.",
        "Peat bogs preserve organic matter.",
    ),
    (
        "What is the smallest prime number greater than ten?",
        ["eleven"],
        "The smallest prime number greater than ten is eleven.",
        "Foxes cache surplus food quickly.",
        "Tides respond to lunar gravity.",
    ),
    (
        "Which element has the atomic number 26?",
        ["iron"],
        "The element that has the atomic number 26 is iron.",
        "Pelicans scoop fish with pouched beaks.",
        "Obsidian forms from rapidly chilled lava.",
    ),
    (
        "In which year did the Titanic sink?",
        ["1912"],
        "The Titanic did sink in the year 1912.",
        "Mangroves stabilize muddy coastlines.",
        "Meteor showers recur annually.",
    ),
    (
        "What is the official language of Brazil?",
        ["Portuguese"],
        "The official language of Brazil is Portuguese.",
        "Salmon swim upstream to spawn.",
        "Auroras shimmer above polar skies.",
    ),
    (
        "What is the number of sides on a hexagon?",
        ["six"],
        "The number of sides on a hexagon is six.",
        "Wolves patrol territorial boundaries.",
        "Geysers erupt at regular intervals.",
    ),
    (
        "What is the fastest land animal in the world?",
        ["cheetah"],
        "The fastest land animal in the world is the cheetah.",
        "Barnacles cling to ship hulls.",
        "Stalactites grow from cave ceilings.",
    ),
    (
        "Who composed the opera The Magic Flute?",
        ["Mozart"],
        "Wolfgang Amadeus Mozart composed the opera The Magic Flute.",
        "Krill swarm beneath Antarctic ice.",
        "Sandstone erodes into arched formations.",
    ),
    (
        "What is the hardest natural mineral on Earth?",
        ["diamond"],
        "The hardest natural mineral on Earth is diamond.",
        "Hummingbirds hover while sipping nectar.",
        "Rivers deposit silt across floodplains.",
    ),
    (
        "What is the largest ocean on the planet?",
        ["Pacific"],
        "The largest ocean on the planet is the Pacific.",
        "Cacti store moisture within fleshy stems.",
        "Woodpeckers drum against hollow trunks.",
    ),
    (
        "In which city is the Eiffel Tower located?",
        ["Paris"],
        "The Eiffel Tower is located in the city of Paris.",
        "Penguins huddle against polar winds.",
        "Magnets align ferrous filings neatly.",
    ),
]

PAGE_TEMPLATE = """<html>
<head><title>{title}</title></head>
<body>
<h1>{title}</h1>
<p>{answer}</p>
<p>{decoy}</p>
</body>
</html>
"""


def validate(items):
    scorer = LexicalScorer()
    rewriter = KeywordRewriter()
    refine_cfg = RefineConfig()
    problems = []
    for idx, (question, golds, relevant, d1, d2) in enumerate(items, start=1):
        tag = f"q{idx:02d}"
        score = scorer.score_text(question, relevant)
        if not score > UPPER:
            problems.append(f"{tag}: relevant doc scores {score:.3f}, needs > {UPPER}")
        if len(split_sentences(relevant)) > 2:
            problems.append(f"{tag}: relevant doc must stay a single strip")
        if not any(g.lower() in relevant.lower() for g in golds):
            problems.append(f"{tag}: relevant doc lacks every gold")
        if not score > scorer.score_text(question, d1):
            problems.append(f"{tag}: distractor 1 outscores the relevant doc")
        for label, text in (("distractor 1", d1), ("distractor 2", d2)):
            dscore = scorer.score_text(question, text)
            if dscore != -1.0:
                problems.append(
                    f"{tag}: {label} scores {dscore:.3f}, needs exactly -1.0 "
                    f"(shared tokens: {set(tokenize(question)) & set(tokenize(text))})"
                )
            for gold in golds:
                if gold.lower() in text.lower():
                    problems.append(f"{tag}: {label} contains gold {gold!r}")
        for gold in golds:
            if gold.lower() in "unknown":
                problems.append(f"{tag}: stub fallback contains gold {gold!r}")
        # The web page's answer paragraph must survive external selection.
        if not scorer.score_text(question, relevant) > refine_cfg.strip_threshold:
            problems.append(f"{tag}: page answer paragraph would be filtered out")
        if not rewriter.rewrite(question):
            problems.append(f"{tag}: rewriter produced no keywords")
    if len(items) != 20:
        problems.append(f"expected 20 items, got {len(items)}")
    return problems


def build(out_dir: Path):
    problems = validate(ITEMS)
    if problems:
        for p in problems:
            print(f"INVALID {p}", file=sys.stderr)
        sys.exit(1)

    pages_dir = out_dir / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)

    dataset_lines = []
    search_map = {}
    for idx, (question, golds, relevant, d1, d2) in enumerate(ITEMS, start=1):
        tag = f"q{idx:02d}"
        instance = {
            "id": tag,
            "question": question,
            "answers": golds,
            "docs": [
                {"id": f"{tag}_irr1", "text": d1},
                {"id": f"{tag}_rel", "text": relevant},
                {"id": f"{tag}_irr2", "text": d2},
            ],
            "relevant_doc_ids": [f"{tag}_rel"],
        }
        dataset_lines.append(json.dumps(instance, ensure_ascii=False))

        page_name = f"{tag}.html"
        (pages_dir / page_name).write_text(
            PAGE_TEMPLATE.format(title=f"Reference {tag}", answer=relevant, decoy=d1),
            "utf-8",
        )
        entry = [{"url": "{base}/page/" + page_name, "title": f"Reference {tag}"}]
        search_map[rewrite(Query(question))] = entry
        search_map[question] = entry

    (out_dir / "dataset_20.jsonl").write_text("\n".join(dataset_lines) + "\n", "utf-8")
    (out_dir / "search.json").write_text(
        json.dumps(search_map, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        "utf-8",
    )
    print(f"wrote fixture for {len(ITEMS)} questions to {out_dir}")


if __name__ == "__main__":
    import argparse

    default = Path(__file__).resolve().parents[1] / "src" / "ragmend" / "fixtures"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", type=Path, default=default)
    build(parser.parse_args().output_dir)
