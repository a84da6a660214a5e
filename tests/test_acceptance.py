"""Release acceptance gate.

One test per shipping criterion. The conftest hook prints a PASS/FAIL line
for each, so a full run doubles as the release checklist.
"""

import json
import random
import time

from conftest import FakeWeb, TableScorer, selection_oracle
from ragmend import pipeline
from ragmend.config import load_config
from ragmend.harness import (
    DatasetInstance,
    degrade,
    run_experiment,
)
from ragmend.mockserver import MockService
from ragmend.pipeline import AblationFlags, PipelineConfig, StubGenerator
from ragmend.refinement import KnowledgeStrip, RefineConfig, filter_strips, segment
from ragmend.scoring import Document, LexicalScorer, Query
from ragmend.trigger import THRESHOLD_PRESETS, Action, Thresholds, judge
from ragmend.websearch import (
    HttpSearchClient,
    SearchConfig,
    fetch_and_extract,
)


def test_criterion_1_trigger_matches_oracle():
    """10,000 random score lists agree with the brute-force decision rule."""
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(10_000):
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if a == b:
            continue
        lower, upper = sorted((a, b))
        thresholds = Thresholds(upper=upper, lower=lower)
        scores = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))]
        # Pin a score to a boundary sometimes to stress strict comparison.
        if rng.random() < 0.2:
            scores[rng.randrange(len(scores))] = rng.choice((upper, lower))

        best = max(scores)
        if best > upper:
            expected = Action.CORRECT
        elif best < lower:
            expected = Action.INCORRECT
        else:
            expected = Action.AMBIGUOUS

        judgment = judge(scores, thresholds)
        assert judgment.action is expected
        assert judge([best], thresholds).action is expected
    assert time.perf_counter() - start < 5.0


def test_criterion_2_selection_matches_oracle():
    """1,000 random strip sets select exactly the oracle's indices."""
    rng = random.Random(202)
    query = Query("selection check")
    start = time.perf_counter()
    for _ in range(1_000):
        n = rng.randint(1, 12)
        # Coarse grid plus exact-threshold values to force ties and boundaries.
        choices = [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]
        scores = [rng.choice(choices) for _ in range(n)]
        threshold = rng.choice([-1.0, -0.5, 0.0, 0.5])
        top_k = rng.randint(1, 6)

        strips = [
            KnowledgeStrip(doc_id="d", index=i, text=f"strip {i}") for i in range(n)
        ]
        table = {f"strip {i}": scores[i] for i in range(n)}
        config = RefineConfig(top_k=top_k, strip_threshold=threshold)

        kept = filter_strips(strips, query, TableScorer(table), config)
        assert [s.index for s in kept] == selection_oracle(scores, threshold, top_k)
        assert all(s.score == scores[s.index] for s in kept)
    assert time.perf_counter() - start < 5.0


def test_criterion_3_segmentation_round_trips():
    """Strips of 500 random texts concatenate back to the sentence sequence."""
    rng = random.Random(303)
    words = ["alpha", "brook", "cedar", "delta", "ember", "frost", "gleam"]

    def sentence():
        body = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        return body + rng.choice(".!?")

    config = RefineConfig(strip_sentences=3)
    for _ in range(500):
        sentences = [sentence() for _ in range(rng.randint(3, 12))]
        doc = Document(id="d", text=" ".join(sentences))
        strips = segment(doc, config)
        rebuilt = " ".join(s.text for s in strips)
        assert rebuilt == doc.text
        assert all(len(s.text.split()) > 0 for s in strips)

    for _ in range(50):
        sentences = [sentence() for _ in range(rng.randint(1, 2))]
        doc = Document(id="d", text=" ".join(sentences))
        strips = segment(doc, config)
        assert len(strips) == 1
        assert strips[0].text == doc.text


QUESTION = "What is the capital city of France?"
REL = "The capital city of France is Paris."
MID = "capital France mention"
BAD = "Granite weathers slowly under arid climates."


def test_criterion_4_branches_stay_pure(tmp_path, monkeypatch):
    """Correct runs never search; Incorrect runs never refine. 50 cases."""
    refine_calls = []
    original_refine = pipeline.refine

    def counting_refine(*args, **kwargs):
        refine_calls.append(1)
        return original_refine(*args, **kwargs)

    monkeypatch.setattr(pipeline, "refine", counting_refine)

    rng = random.Random(404)
    client = FakeWeb()
    cfg = PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "cache"))
    scorer = LexicalScorer()
    seen = {Action.CORRECT: 0, Action.INCORRECT: 0, Action.AMBIGUOUS: 0}

    for case in range(50):
        target = (Action.CORRECT, Action.INCORRECT, Action.AMBIGUOUS)[case % 3]
        if target is Action.CORRECT:
            texts = [REL] + rng.choices([MID, BAD], k=rng.randint(0, 3))
        elif target is Action.AMBIGUOUS:
            texts = [MID] + [BAD] * rng.randint(0, 3)
        else:
            texts = [BAD] * rng.randint(1, 4)
        rng.shuffle(texts)
        docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]

        search_before = len(client.queries)
        refine_before = len(refine_calls)
        record = pipeline.run(QUESTION, docs, cfg, scorer, client)
        assert record.action is target
        seen[target] += 1
        if target is Action.CORRECT:
            assert len(client.queries) == search_before
        elif target is Action.INCORRECT:
            assert len(refine_calls) == refine_before

    assert min(seen.values()) >= 16


def test_criterion_5_fixture_end_to_end(fixtures_dir, fixture_dataset, tmp_path):
    """Degradation sweep: the corrective pipeline holds 1.0 while plain
    retrieval decays to 0.0, entirely against local fixtures."""
    start = time.perf_counter()
    accuracies = {"crag": {}, "plain_rag": {}}
    with MockService(fixtures_dir) as svc:
        client = HttpSearchClient(f"{svc.base_url}/search")
        for mode in ("crag", "plain_rag"):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = PipelineConfig(
                    search=SearchConfig(cache_dir=tmp_path / "cache")
                )
                report = run_experiment(
                    fixture_dataset,
                    cfg,
                    mode,
                    degradation=(p, 42),
                    scorer=LexicalScorer(),
                    search_client=client,
                    generator=StubGenerator(),
                )
                accuracies[mode][p] = report.accuracy

    assert accuracies["crag"][0.0] == 1.0
    assert accuracies["crag"][1.0] == 1.0
    assert accuracies["plain_rag"][0.0] == 1.0
    assert accuracies["plain_rag"][1.0] == 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert accuracies["crag"][p] >= accuracies["plain_rag"][p]
    assert time.perf_counter() - start < 30.0


def run_fixture(fixture_dataset, fixture_web, tmp_path, subdir, **cfg_kwargs):
    cfg = PipelineConfig(
        search=SearchConfig(cache_dir=tmp_path / subdir), **cfg_kwargs
    )
    return run_experiment(
        fixture_dataset,
        cfg,
        "crag",
        scorer=LexicalScorer(),
        search_client=fixture_web.search_client(),
    )


def test_criterion_6_ablations_remap_actions(fixture_dataset, fixture_web, tmp_path):
    """disable/only flags reshape the action histogram as advertised."""
    baseline = run_fixture(fixture_dataset, fixture_web, tmp_path, "base")
    assert baseline.action_histogram == {"Correct": 20}

    rerouted = run_fixture(
        fixture_dataset,
        fixture_web,
        tmp_path,
        "reroute",
        ablations=AblationFlags(disable_action=Action.CORRECT),
    )
    assert rerouted.action_histogram == {"Ambiguous": 20}

    for action in Action:
        only = run_fixture(
            fixture_dataset,
            fixture_web,
            tmp_path,
            f"only_{action.value}",
            ablations=AblationFlags(only_action=action),
        )
        assert only.action_histogram == {action.value: 20}

    # With a raised upper threshold everything is Ambiguous; removing that
    # action collapses the trigger to the single upper threshold.
    high = Thresholds(upper=0.9, lower=-0.99)
    ambiguous = run_fixture(
        fixture_dataset, fixture_web, tmp_path, "high", thresholds=high
    )
    assert ambiguous.action_histogram.get("Ambiguous", 0) > 0

    collapsed = run_fixture(
        fixture_dataset,
        fixture_web,
        tmp_path,
        "collapsed",
        thresholds=high,
        ablations=AblationFlags(disable_action=Action.AMBIGUOUS),
    )
    assert collapsed.action_histogram.get("Ambiguous", 0) == 0
    assert sum(collapsed.action_histogram.values()) == 20


def dataset_snapshot(instances):
    return json.dumps(
        [
            {
                "id": inst.id,
                "docs": [[d.id, d.text] for d in inst.docs],
            }
            for inst in instances
        ],
        sort_keys=True,
    )


def test_criterion_7_degradation_is_deterministic_and_nested(fixture_dataset):
    """Same seed gives byte-identical degraded data; removals nest over p."""
    big = DatasetInstance(
        id="big",
        question="q?",
        answers=("a",),
        docs=tuple(Document(id=f"d{i}", text=f"text {i}") for i in range(60)),
        relevant_doc_ids=tuple(f"d{i}" for i in range(60)),
    )
    instances = list(fixture_dataset) + [big]

    for p in (0.0, 0.3, 0.7, 1.0):
        first = dataset_snapshot(degrade(instances, p, seed=7))
        second = dataset_snapshot(degrade(instances, p, seed=7))
        assert first == second

    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    kept_by_level = []
    for p in levels:
        degraded = degrade(instances, p, seed=7)
        kept_by_level.append(
            {inst.id: {d.id for d in inst.docs} for inst in degraded}
        )
    for earlier, later in zip(kept_by_level, kept_by_level[1:]):
        for instance_id, kept in later.items():
            assert kept <= earlier[instance_id]


def test_criterion_8_fetch_cache_deduplicates(tmp_path):
    """Back-to-back fetches of one URL hit the network exactly once."""
    url = "mock://web/page"
    web = FakeWeb(pages={url: "<p>alpha</p><p>beta</p>"})
    config = SearchConfig(cache_dir=tmp_path / "cache")

    first = fetch_and_extract(url, config, web)
    second = fetch_and_extract(url, config, web)
    assert web.fetched == [url]
    assert first == second
    assert [strip.text for strip in first] == ["alpha", "beta"]


def test_criterion_9_threshold_presets_and_precedence(tmp_path):
    """Published preset pairs load exactly; overrides still win."""
    assert THRESHOLD_PRESETS == {
        "popqa": (0.59, -0.99),
        "pubhealth": (0.5, -0.91),
        "arc": (0.5, -0.91),
        "biography": (0.95, -0.91),
    }
    for name, (upper, lower) in THRESHOLD_PRESETS.items():
        preset = Thresholds.preset(name)
        assert (preset.upper, preset.lower) == (upper, lower)

    assert PipelineConfig().thresholds == Thresholds(upper=0.59, lower=-0.99)

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"thresholds": {"preset": "biography"}}), encoding="utf-8"
    )
    cfg = load_config(config_path)
    assert (cfg.thresholds.upper, cfg.thresholds.lower) == (0.95, -0.91)

    cfg = load_config(config_path, ["thresholds.upper=0.8"])
    assert (cfg.thresholds.upper, cfg.thresholds.lower) == (0.8, -0.91)
