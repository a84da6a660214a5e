"""Experiment harness: dataset loading, degradation, accuracy, reports."""

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import JSON_VALUES, BoomScorer, FakeWeb
from ragmend.errors import DatasetError, InputError, ScorerUnavailableError
from ragmend.harness import (
    DatasetInstance,
    ExperimentReport,
    accuracy,
    csv_row,
    degrade,
    load_dataset,
    read_jsonl,
    removal_draw,
    run_experiment,
)
from ragmend.mockserver import MockService
from ragmend.pipeline import MODES, AblationFlags, PipelineConfig
from ragmend.refinement import BundleKind
from ragmend.scoring import Document, LexicalScorer
from ragmend.trigger import Action, ActionJudgment
from ragmend.websearch import HttpSearchClient, SearchConfig


DOCS = st.fixed_dictionaries(
    {},
    optional={
        "id": JSON_VALUES,
        "text": st.text(max_size=12) | JSON_VALUES,
        "title": JSON_VALUES,
    },
)


# Schema-valid datasets, instances without documents included; every
# instance has relevant_doc_ids, so each one can be degraded.
DATASETS = st.lists(
    st.builds(
        DatasetInstance,
        id=st.text(max_size=4),
        question=st.text(min_size=1, max_size=30).filter(str.strip),
        answers=st.lists(st.text(min_size=1, max_size=8).filter(str.strip), min_size=1, max_size=2),
        docs=st.lists(st.text(max_size=40), max_size=4).map(
            lambda texts: [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
        ),
        relevant_doc_ids=st.lists(st.sampled_from(["d0", "d1", "d2", "d3"]), max_size=4),
    ),
    max_size=4,
    unique_by=lambda instance: instance.id,
)

ABLATIONS = st.sampled_from(
    [
        AblationFlags(),
        *(AblationFlags(disable_action=action) for action in Action),
        *(AblationFlags(only_action=action) for action in Action),
        AblationFlags(no_refinement=True),
        AblationFlags(no_rewriting=True),
        AblationFlags(no_selection=True),
    ]
)


def comparable(report):
    """A report's dict without the degradation settings and the timings."""
    data = report.to_dict()
    del data["degradation_level"], data["degradation_seed"]
    for record in data["records"]:
        del record["timings"]
    return data


def write_jsonl(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def valid_line(instance_id="q1", **extra):
    payload = {
        "id": instance_id,
        "question": "What is the capital city of France?",
        "answers": ["Paris"],
        "docs": [{"id": "d1", "text": "The capital city of France is Paris."}],
    }
    payload.update(extra)
    return json.dumps(payload)


class TestLoadDataset:
    def test_parses_instances(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                valid_line("q1", relevant_doc_ids=["d1"]),
                valid_line("q2", docs=[{"text": "a"}, {"text": "b", "title": "T"}]),
            ],
        )
        instances = load_dataset(path)
        assert [i.id for i in instances] == ["q1", "q2"]
        assert instances[0].relevant_doc_ids == ("d1",)
        assert instances[1].relevant_doc_ids is None
        assert [d.id for d in instances[1].docs] == ["doc0", "doc1"]
        assert instances[1].docs[1] == Document("doc1", "b")

    def test_blank_lines_skipped(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line("q1"), "", valid_line("q2")])
        assert len(load_dataset(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(valid_line().encode("utf-8") + b"\n\xff\n")
        with pytest.raises(DatasetError, match="^line 2: invalid JSON: 'utf-8' codec"):
            load_dataset(path)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(['{"a": 1}', "[2]", '"é"', "", " "]),
                st.sampled_from(["\n", "\r\n", "\r", "\r\r", "\n\r"]),
            ),
            max_size=8,
        )
    )
    def test_lines_are_numbered_as_text_mode_numbers_them(self, parts):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_bytes("".join(text + end for text, end in parts).encode("utf-8"))
            with path.open(encoding="utf-8") as fh:
                expected = [(n, json.loads(line)) for n, line in enumerate(fh, 1) if line.strip()]
            assert list(read_jsonl(path, DatasetError, "dataset")) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ascii", "non-ascii", "stray 0xff", "surrogate", "blank"]),
                st.sampled_from(["\n", "\r\n", "\r", "\r\r", "\n\r"]),
            ),
            max_size=8,
        )
    )
    def test_loads_valid_lines_or_names_the_first_line_that_is_not_utf8(self, parts):
        def line(kind, k):
            question = "Qu'est-ce que la capitale de la Suisse, Zürich ☃?"
            payload = json.loads(valid_line(f"q{k}"))
            if kind == "non-ascii":
                payload["question"] = question
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            bad = {"stray 0xff": b"\xff", "surrogate": b"\xed\xa0\x80"}.get(kind)
            if bad:
                data = data.replace(b"capital", b"capi" + bad + b"tal")
            return b"  " if kind == "blank" else data

        data = b"".join(line(kind, k) + end.encode() for k, (kind, end) in enumerate(parts))
        # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does.
        expected, error = [], None
        for line_no, raw in enumerate(data.splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                expected.append(json.loads(raw.decode("utf-8"))["id"])
            except UnicodeDecodeError as exc:
                error = f"line {line_no}: invalid JSON: {exc}"
                break
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_bytes(data)
            if error is None:
                assert [instance.id for instance in load_dataset(path)] == expected
            else:
                with pytest.raises(DatasetError) as caught:
                    load_dataset(path)
                assert str(caught.value) == error

    def test_invalid_json_names_line(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line("q1"), "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("missing", ["id", "question", "answers", "docs"])
    def test_missing_field_named(self, tmp_path, missing):
        payload = json.loads(valid_line())
        del payload[missing]
        path = write_jsonl(tmp_path, [json.dumps(payload)])
        with pytest.raises(DatasetError, match=f"line 1.*{missing}"):
            load_dataset(path)

    def test_doc_without_text(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line(docs=[{"id": "d1"}])])
        with pytest.raises(DatasetError, match=r"docs\[0\]"):
            load_dataset(path)

    def test_doc_errors_and_default_ids_name_the_doc_position(self, tmp_path):
        docs = [{"text": "a"}, {"id": None, "text": "b"}, {"text": "c"}]
        [instance] = load_dataset(write_jsonl(tmp_path, [valid_line(docs=docs)]))
        assert [d.id for d in instance.docs] == ["doc0", "None", "doc2"]
        path = write_jsonl(tmp_path, [valid_line("q1"), valid_line("q2", docs=[*docs, 5])])
        with pytest.raises(DatasetError) as caught:
            load_dataset(path)
        assert str(caught.value) == "line 2: docs[3] needs a string 'text' field"

    def test_duplicate_instance_id(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line("q1"), valid_line("q1")])
        with pytest.raises(DatasetError, match="line 2.*duplicate"):
            load_dataset(path)

    def test_empty_answers_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line(answers=[])])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_duplicate_doc_ids_rejected(self, tmp_path):
        docs = [{"id": "d", "text": "a"}, {"id": "d", "text": "b"}]
        path = write_jsonl(tmp_path, [valid_line(docs=docs)])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("question", 5),
            ("question", None),
            ("question", " \n "),
            ("answers", "xyz"),
            ("answers", ["Paris", 5]),
            ("docs", 5),
            ("docs", [{"id": "d1", "text": 5}]),
            ("relevant_doc_ids", "d1"),
            ("relevant_doc_ids", 5),
        ],
    )
    def test_bad_field_type_rejected(self, tmp_path, name, value):
        path = write_jsonl(tmp_path, [valid_line("q1"), valid_line("q2", **{name: value})])
        with pytest.raises(DatasetError, match=f"line 2.*{name}"):
            load_dataset(path)

    def test_lone_surrogate_question_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [valid_line("q1", question="Who is Zorblax \ud800 here?")])
        with pytest.raises(DatasetError, match="line 1: 'question': .* valid UTF-8"):
            load_dataset(path)

    # Every line separator of `str.splitlines`, other whitespace, and a lone surrogate.
    @given(st.text(st.sampled_from("a \t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\u3000\ud800")))
    def test_question_loads_iff_nonblank_and_utf8(self, question):
        try:
            question.encode("utf-8")
            expected = bool(question.strip())
        except UnicodeEncodeError:
            expected = False
        with tempfile.TemporaryDirectory() as tmp:
            path = write_jsonl(Path(tmp), [valid_line("q1", question=question)])
            try:
                load_dataset(path)
            except DatasetError as exc:
                assert not expected, exc
            else:
                assert expected

    @pytest.mark.parametrize("line", ["5", '"id question answers docs"'])
    def test_non_object_line_rejected(self, tmp_path, line):
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(write_jsonl(tmp_path, [line]))

    @given(
        st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "id": JSON_VALUES,
                    "question": st.text(max_size=12) | JSON_VALUES,
                    "answers": st.lists(st.text(max_size=6), max_size=3) | JSON_VALUES,
                    "docs": st.lists(DOCS | JSON_VALUES, max_size=3) | JSON_VALUES,
                    "relevant_doc_ids": st.lists(JSON_VALUES, max_size=3) | JSON_VALUES,
                },
            ),
            st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
        )
    )
    def test_any_object_line_loads_or_raises_dataset_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            try:
                (instance,) = load_dataset(path)
            except DatasetError:
                return
        assert isinstance(instance.question, str) and instance.question.strip()
        assert all(isinstance(answer, str) for answer in instance.answers)
        assert all(isinstance(doc.text, str) for doc in instance.docs)


class TestRemovalDraw:
    def test_unit_interval_and_distinct(self):
        draws = [removal_draw(1, "inst", f"d{i}") for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == 2000

    def test_roughly_uniform(self):
        draws = [removal_draw(1, "inst", f"d{i}") for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55

    def test_deterministic(self):
        assert removal_draw(7, "a", "b") == removal_draw(7, "a", "b")

    def test_sensitive_to_each_component(self):
        base = removal_draw(1, "a", "b")
        assert base != removal_draw(2, "a", "b")
        assert base != removal_draw(1, "x", "b")
        assert base != removal_draw(1, "a", "y")


def many_docs_instance(n, question="q?", answer="a"):
    docs = tuple(Document(id=f"d{i}", text=f"text {i}") for i in range(n))
    return DatasetInstance(
        id="big",
        question=question,
        answers=(answer,),
        docs=docs,
        relevant_doc_ids=tuple(d.id for d in docs),
    )


class TestDegrade:
    def simple_instance(self):
        docs = (
            Document(id="irr", text="noise"),
            Document(id="rel", text="signal"),
        )
        return DatasetInstance(
            id="q1", question="q?", answers=("a",), docs=docs, relevant_doc_ids=("rel",)
        )

    def test_p_zero_keeps_everything(self):
        inst = many_docs_instance(50)
        [out] = degrade([inst], 0.0, seed=1)
        assert out.docs == inst.docs

    def test_p_one_removes_all_relevant(self):
        [out] = degrade([self.simple_instance()], 1.0, seed=1)
        assert [d.id for d in out.docs] == ["irr"]

    def test_everything_removed_leaves_no_documents(self):
        inst = many_docs_instance(5)
        [out] = degrade([inst], 1.0, seed=1)
        assert out.docs == ()
        assert (out.id, out.question, out.answers) == (inst.id, inst.question, inst.answers)

    @given(instances=DATASETS, seed=st.integers(min_value=0, max_value=2**32))
    def test_p_zero_is_the_identity(self, instances, seed):
        assert degrade(instances, 0.0, seed) == list(instances)

    @given(instances=DATASETS, seed=st.integers(min_value=0, max_value=2**32))
    def test_p_zero_returns_the_instances_it_was_given(self, instances, seed):
        out = degrade(instances, 0.0, seed)
        assert len(out) == len(instances)
        assert all(after is before for before, after in zip(instances, out))

    @given(
        instances=DATASETS,
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_only_an_instance_that_loses_a_document_is_rebuilt(self, instances, p, seed):
        out = degrade(instances, p, seed)
        assert len(out) == len(instances)
        for before, after in zip(instances, out):
            kept = tuple(
                d
                for d in before.docs
                if d.id not in before.relevant_doc_ids or removal_draw(seed, before.id, d.id) >= p
            )
            if kept == before.docs:
                assert after is before
            else:
                assert after is not before
                assert after == DatasetInstance(
                    before.id, before.question, before.answers, kept, before.relevant_doc_ids
                )

    def test_a_rebuilt_instance_is_validated_again(self, monkeypatch):
        validated = []
        post_init = DatasetInstance.__post_init__

        def spy(instance):
            validated.append(instance.id)
            post_init(instance)

        inst = self.simple_instance()
        monkeypatch.setattr(DatasetInstance, "__post_init__", spy)
        assert degrade([inst], 0.0, seed=2) == [inst]
        assert validated == []
        [out] = degrade([inst], 1.0, seed=2)
        assert validated == ["q1"]
        assert [d.id for d in out.docs] == ["irr"]
        assert isinstance(out.docs, tuple)

    def test_deterministic(self):
        inst = many_docs_instance(100)
        a = degrade([inst], 0.5, seed=9)
        b = degrade([inst], 0.5, seed=9)
        assert [d.id for d in a[0].docs] == [d.id for d in b[0].docs]

    def test_levels_nest(self):
        inst = many_docs_instance(60)
        kept = {}
        for p in (0.2, 0.5, 0.8):
            [out] = degrade([inst], p, seed=7)
            kept[p] = {d.id for d in out.docs}
        assert kept[0.8] <= kept[0.5] <= kept[0.2]

    def test_matches_per_doc_draws(self):
        inst = many_docs_instance(60)
        [out] = degrade([inst], 0.5, seed=3)
        expected = {
            d.id for d in inst.docs if removal_draw(3, inst.id, d.id) >= 0.5
        }
        assert {d.id for d in out.docs} == expected

    def test_removal_rate_plausible(self):
        inst = many_docs_instance(400)
        [out] = degrade([inst], 0.5, seed=11)
        assert 160 <= len(out.docs) <= 240

    def test_irrelevant_docs_immune(self):
        [out] = degrade([self.simple_instance()], 1.0, seed=2)
        assert any(d.id == "irr" for d in out.docs)

    def test_other_fields_preserved(self):
        inst = self.simple_instance()
        [out] = degrade([inst], 1.0, seed=2)
        assert (out.id, out.question, out.answers) == (inst.id, inst.question, inst.answers)
        assert out.relevant_doc_ids == inst.relevant_doc_ids

    def test_missing_labels_rejected(self):
        inst = DatasetInstance(
            id="q1",
            question="q?",
            answers=("a",),
            docs=(Document(id="d", text="t"),),
        )
        with pytest.raises(DatasetError, match="relevant_doc_ids"):
            degrade([inst], 0.5, seed=1)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_out_of_range_probability(self, p):
        with pytest.raises(InputError):
            degrade([self.simple_instance()], p, seed=1)


class TestAccuracy:
    def test_substring_case_insensitive(self):
        assert accuracy("The answer is PARIS, France.", ["paris"])
        assert not accuracy("The answer is Lyon.", ["Paris"])

    def test_any_gold_suffices(self):
        assert accuracy("It was Mozart.", ["Beethoven", "mozart"])

    def test_empty_answer(self):
        assert not accuracy("", ["Paris"])

    def test_no_golds_rejected(self):
        with pytest.raises(ValueError):
            accuracy("anything", [])


def make_instance(tag, question, gold, rel_text, irr_text):
    docs = (
        Document(id=f"{tag}_irr", text=irr_text),
        Document(id=f"{tag}_rel", text=rel_text),
    )
    return DatasetInstance(
        id=tag,
        question=question,
        answers=(gold,),
        docs=docs,
        relevant_doc_ids=(f"{tag}_rel",),
    )


# Lexical scores against the popqa thresholds: i1 and i2 land Correct,
# i3 lands Ambiguous, i4 (no relevant doc at all) lands Incorrect.
INSTANCES = [
    make_instance(
        "i1",
        "What is the capital city of France?",
        "Paris",
        "The capital city of France is Paris.",
        "Granite weathers slowly under arid climates.",
    ),
    make_instance(
        "i2",
        "Which metal has the symbol Au on the periodic table?",
        "gold",
        "The metal that has the symbol Au on the periodic table is gold.",
        "Maple sap flows during early spring thaw.",
    ),
    make_instance(
        "i3",
        "Who wrote the novel Dracula?",
        "Bram Stoker",
        "The novel Dracula is famous. Bram Stoker is the author.",
        "Deep ocean trenches stay cold.",
    ),
    DatasetInstance(
        id="i4",
        question="What is the melting point of nobelium?",
        answers=("nobelium melts",),
        docs=(Document(id="i4_irr", text="Quartz sand dunes shift overnight."),),
        relevant_doc_ids=(),
    ),
]

PAGE_URL = "mock://web/france"
PAGE_HTML = "<p>The capital city of France is Paris.</p>"


class TestRunExperiment:
    def test_unknown_mode(self, lexical):
        with pytest.raises(InputError, match="mode"):
            run_experiment(INSTANCES, PipelineConfig(), "turbo", scorer=lexical)

    def test_bad_workers(self, lexical):
        with pytest.raises(InputError):
            run_experiment(INSTANCES, PipelineConfig(), "crag", scorer=lexical, workers=0)

    def test_empty_instances(self, lexical):
        report = run_experiment([], PipelineConfig(), "crag", scorer=lexical)
        assert report.accuracy == 0.0
        assert report.records == []

    def test_instances_without_documents_run_as_incorrect(self, lexical):
        empty = [
            DatasetInstance(id=tag, question="q?", answers=("a",), docs=(), relevant_doc_ids=())
            for tag in ("e1", "e2")
        ]
        instances = [INSTANCES[0], *empty]
        report = run_experiment(instances, PipelineConfig(), "crag", scorer=lexical)
        assert report.action_histogram == {"Correct": 1, "Incorrect": 2}
        for record in report.records[1:]:
            assert record.run.doc_scores == ()
            assert record.run.judgment == ActionJudgment(Action.INCORRECT, max_score=-1.0)
            assert record.run.answer == "UNKNOWN"
        degraded = run_experiment(instances, PipelineConfig(), "crag", (0.0, 0), scorer=lexical)
        assert comparable(degraded) == comparable(report)
        report = run_experiment(instances, PipelineConfig(), "plain_rag", scorer=BoomScorer())
        assert [r.run.answer for r in report.records[1:]] == ["UNKNOWN", "UNKNOWN"]

    def test_crag_accuracy_and_histogram(self, lexical):
        report = run_experiment(INSTANCES, PipelineConfig(), "crag", scorer=lexical)
        assert report.degradation_level == 0.0
        assert report.accuracy == pytest.approx(0.75)
        assert report.action_histogram == {"Correct": 2, "Ambiguous": 1, "Incorrect": 1}
        assert [r.instance_id for r in report.records] == ["i1", "i2", "i3", "i4"]
        by_id = {r.instance_id: r for r in report.records}
        assert by_id["i1"].correct and by_id["i3"].correct
        assert not by_id["i4"].correct

    def test_crag_full_degradation_breaks_it(self, lexical):
        report = run_experiment(
            INSTANCES, PipelineConfig(), "crag", degradation=(1.0, 42), scorer=lexical
        )
        assert report.degradation_level == 1.0
        assert report.accuracy == 0.0
        assert report.action_histogram == {"Incorrect": 4}

    def test_plain_rag_ignores_scorer_and_search(self):
        client = FakeWeb()
        report = run_experiment(
            INSTANCES, PipelineConfig(), "plain_rag", scorer=BoomScorer(), search_client=client
        )
        assert report.accuracy == pytest.approx(0.75)
        assert report.action_histogram == {}
        assert client.queries == []
        record = report.records[0].run
        assert record.judgment is None and record.action is None
        assert record.doc_scores == ()

    def test_plain_rag_degrades_with_retrieval(self):
        report = run_experiment(
            INSTANCES, PipelineConfig(), "plain_rag", degradation=(1.0, 42), scorer=BoomScorer()
        )
        assert report.accuracy == 0.0

    def test_rag_web_always_combines(self, tmp_path, lexical):
        client = FakeWeb({"capital city France": [PAGE_URL]}, {PAGE_URL: PAGE_HTML})
        cfg = PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "cache"))
        report = run_experiment(
            INSTANCES[:1], cfg, "rag_web", scorer=lexical, search_client=client
        )
        record = report.records[0].run
        assert record.knowledge.kind is BundleKind.COMBINED
        assert record.searched_urls == (PAGE_URL,)
        assert len(client.queries) == 1
        assert report.records[0].correct

    def test_baseline_timings_cover_knowledge(self, tmp_path, lexical):
        client = FakeWeb({"capital city France": [PAGE_URL]}, {PAGE_URL: PAGE_HTML})
        cfg = PipelineConfig(search=SearchConfig(cache_dir=tmp_path / "cache"))
        for mode in ("plain_rag", "rag_web"):
            report = run_experiment(
                INSTANCES[:1], cfg, mode, scorer=lexical, search_client=client
            )
            timings = report.records[0].run.timings
            assert set(timings) == {"knowledge", "generate", "total"}
            assert timings["total"] >= timings["knowledge"]

    @given(instances=DATASETS, mode=st.sampled_from(["plain_rag", "rag_web"]))
    def test_baselines_give_one_record_per_instance(self, instances, mode):
        client = FakeWeb()
        scorer = BoomScorer() if mode == "plain_rag" else LexicalScorer()
        report = run_experiment(
            instances, PipelineConfig(), mode, scorer=scorer, search_client=client
        )
        assert [r.instance_id for r in report.records] == [i.id for i in instances]
        assert len(client.queries) == (len(instances) if mode == "rag_web" else 0)
        for record in report.records:
            assert record.run.action is None and record.run.judgment is None
            assert record.run.doc_scores == ()
            assert set(record.run.timings) == {"knowledge", "generate", "total"}

    @given(
        instances=DATASETS,
        mode=st.sampled_from(MODES),
        ablations=ABLATIONS,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_any_dataset_gives_one_record_per_instance_as_at_p_zero(
        self, instances, mode, ablations, seed
    ):
        cfg = PipelineConfig(ablations=ablations)
        undegraded, degraded = [
            run_experiment(
                instances, cfg, mode, degradation, scorer=LexicalScorer(), search_client=FakeWeb()
            )
            for degradation in (None, (0.0, seed))
        ]
        assert [r.instance_id for r in undegraded.records] == [i.id for i in instances]
        assert comparable(degraded) == comparable(undegraded)

    def test_workers_match_serial(self, lexical):
        def project(report):
            return (
                report.accuracy,
                report.action_histogram,
                [(r.instance_id, r.correct, r.run.answer, r.run.action) for r in report.records],
            )

        serial = run_experiment(INSTANCES, PipelineConfig(), "crag", scorer=lexical)
        threaded = run_experiment(
            INSTANCES, PipelineConfig(), "crag", scorer=lexical, workers=4
        )
        assert project(serial) == project(threaded)

    def test_workers_match_serial_with_web_fetches(self, fixtures_dir, fixture_dataset, tmp_path):
        def project(report):
            return (
                report.accuracy,
                [(r.instance_id, r.run.answer, r.run.searched_urls) for r in report.records],
            )

        # More workers than cores, switching threads often, on the shared fetch session.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MockService(fixtures_dir) as svc:
                client = HttpSearchClient(f"{svc.base_url}/search")
                reports = [
                    run_experiment(
                        fixture_dataset,
                        PipelineConfig(search=SearchConfig(cache_dir=tmp_path / f"cache{workers}")),
                        "rag_web",
                        scorer=LexicalScorer(),
                        search_client=client,
                        workers=workers,
                    )
                    for workers in (1, 4)
                ]
        finally:
            sys.setswitchinterval(interval)
        serial, threaded = map(project, reports)
        assert serial == threaded
        assert serial[0] == 1.0
        assert all(urls for _, _, urls in serial[1])

    def test_generation_failure_counts_incorrect(self, lexical):
        from ragmend.errors import GenerationError

        class Exploding:
            def generate(self, prompt):
                raise GenerationError("kaput")

        report = run_experiment(
            INSTANCES[:2], PipelineConfig(), "crag", scorer=lexical, generator=Exploding()
        )
        assert report.accuracy == 0.0
        assert all(r.run.error for r in report.records)
        assert all(r.run.answer == "" for r in report.records)

    def test_scorer_failure_aborts(self):
        class Unavailable:
            def score_batch(self, query, texts):
                raise ScorerUnavailableError("down")

        with pytest.raises(ScorerUnavailableError):
            run_experiment(INSTANCES[:1], PipelineConfig(), "crag", scorer=Unavailable())

    @pytest.mark.parametrize("workers", [1, 4])
    def test_remote_failure_names_its_instance(self, workers):
        class Unavailable:
            def score_batch(self, query, texts):
                raise ScorerUnavailableError("down")

        with pytest.raises(ScorerUnavailableError, match=r"^instance 'i1': down$"):
            run_experiment(
                INSTANCES, PipelineConfig(), "crag", scorer=Unavailable(), workers=workers
            )

    def test_one_worker_stops_before_the_next_instance(self):
        # A pool, even of one thread, would start the next instance while the
        # first one's failure is raised, doubling the wait on a dead scorer.
        questions = []

        class SlowUnavailable:
            def score_batch(self, query, texts):
                questions.append(query)
                time.sleep(0.05)
                raise ScorerUnavailableError("down")

        with pytest.raises(ScorerUnavailableError):
            run_experiment(INSTANCES, PipelineConfig(), "crag", scorer=SlowUnavailable())
        assert questions == [INSTANCES[0].question]

    def test_report_round_trips_through_json(self, lexical):
        report = run_experiment(INSTANCES, PipelineConfig(), "crag", scorer=lexical)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["accuracy"] == pytest.approx(0.75)
        assert parsed["mode"] == "crag"
        assert parsed["config"]["thresholds"] == {"upper": 0.59, "lower": -0.99}
        first = parsed["records"][0]
        assert first["instance_id"] == "i1"
        assert first["judgment"]["action"] == "Correct"
        assert first["knowledge_kind"] == "Internal"

    def test_action_values_are_strings(self, lexical):
        report = run_experiment(INSTANCES[:1], PipelineConfig(), "crag", scorer=lexical)
        assert set(report.action_histogram) == {Action.CORRECT.value}

    @pytest.mark.parametrize("mode, lines", [("crag", 1), ("rag_web", 1), ("plain_rag", 0)])
    def test_missing_search_client_logged_once(self, lexical, caplog, mode, lines):
        # At p=1 every crag instance is Incorrect, so each one takes the web path.
        report = run_experiment(
            INSTANCES, PipelineConfig(), mode, degradation=(1.0, 42), scorer=lexical
        )
        assert all(r.run.searched_urls == () for r in report.records)
        messages = [record.getMessage() for record in caplog.records]
        assert messages.count("no search client configured; external knowledge is empty") == lines


class TestCsvRow:
    def test_flattens_report(self):
        report = ExperimentReport(
            mode="crag",
            degradation_level=0.25,
            accuracy=0.5,
            action_histogram={"Correct": 3, "Incorrect": 1},
            config={},
            records=[],
        )
        assert csv_row(report) == {
            "mode": "crag",
            "degradation_level": 0.25,
            "accuracy": 0.5,
            "correct": 3,
            "incorrect": 1,
            "ambiguous": 0,
        }
