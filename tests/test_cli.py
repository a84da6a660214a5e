"""Command-line behavior: exit codes, outputs, offline guard."""

import _thread
import csv
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import JSON_VALUES, FakeWeb
import ragmend
from ragmend import cli, harness
from ragmend.cli import (
    OfflineGuard,
    _is_local_url,
    _load_docs_jsonl,
    build_parser,
    default_fixtures_dir,
    main,
)
from ragmend.config import SCHEMA
from ragmend.errors import InputError, OfflineViolationError
from ragmend.mockserver import MockService


ENDPOINT_SECTIONS = sorted(section for section, keys in SCHEMA.items() if "endpoint" in keys)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def docs_file(tmp_path):
    return write_lines(
        tmp_path / "docs.jsonl",
        [
            json.dumps({"id": "a", "text": "The capital city of France is Paris."}),
            json.dumps({"text": "Granite weathers slowly under arid climates."}),
        ],
    )


def mini_dataset(tmp_path):
    lines = [
        json.dumps(
            {
                "id": "m1",
                "question": "What is the capital city of France?",
                "answers": ["Paris"],
                "docs": [{"id": "m1_rel", "text": "The capital city of France is Paris."}],
                "relevant_doc_ids": ["m1_rel"],
            }
        ),
        json.dumps(
            {
                "id": "m2",
                "question": "Who wrote the novel Dracula?",
                "answers": ["Bram Stoker"],
                "docs": [{"id": "m2_rel", "text": "Bram Stoker wrote the novel Dracula."}],
                "relevant_doc_ids": ["m2_rel"],
            }
        ),
    ]
    return write_lines(tmp_path / "mini.jsonl", lines)


class TestLocalUrlChecks:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("http://localhost:8080/x", True),
            ("http://127.0.0.1/x", True),
            ("http://[::1]:9/x", True),
            ("http://example.com/x", False),
            ("https://wikipedia.org/wiki/A", False),
        ],
    )
    def test_is_local(self, url, expected):
        assert _is_local_url(url) is expected

    def test_guard_blocks_remote(self):
        inner = FakeWeb(pages={"http://example.com/page": "<p>body</p>"})
        with pytest.raises(OfflineViolationError):
            OfflineGuard(inner).fetch("http://example.com/page", timeout=1)
        assert inner.fetched == []

    def test_guard_delegates_local(self):
        inner = FakeWeb(
            {"q": ["http://example.com/page"]}, {"http://localhost:9/x": "<p>body</p>"}
        )
        guard = OfflineGuard(inner)
        assert guard.search("q") == ["http://example.com/page"]
        assert guard.fetch("http://localhost:9/x", timeout=1) == "<p>body</p>"
        assert (inner.queries, inner.fetched) == (["q"], ["http://localhost:9/x"])


class TestArgParsing:
    def test_no_args(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "ragmend" in capsys.readouterr().out

    def test_judge_missing_args(self, capsys):
        assert main(["judge"]) == 2

    def test_bad_mode_rejected(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        assert main(["run", str(dataset), "--mode", "turbo"]) == 2

    def test_defaults(self):
        parser = build_parser()
        run_args = parser.parse_args(["run", "data.jsonl"])
        assert (run_args.seed, run_args.workers) == (0, 1)
        assert parser.parse_args(["mock-serve"]).port == 8080

    @pytest.mark.parametrize(
        "option",
        [
            ["--disable-action", "Incorrect"],
            ["--only-action", "Incorrect"],
            ["--no-refinement"],
            ["--no-rewriting"],
            ["--no-selection"],
        ],
        ids=lambda option: option[0],
    )
    def test_ablations_have_no_flags(self, tmp_path, capsys, option):
        # An ablation is set like every other key: --set ablations.<key>=...
        report = tmp_path / "r.json"
        code = main(["run", str(mini_dataset(tmp_path)), "--report", str(report)] + option)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not report.exists()


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", ["not-utf-8", "directory"])
    @pytest.mark.parametrize("command", ["run", "judge"])
    def test_input_file_exits_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "input.jsonl"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"id": "a", "text": "caf\xe9"}\n')
        if command == "run":
            args = ["run", str(path), "--report", str(tmp_path / "r.json")]
        else:
            args = ["judge", "q?", str(path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert ("line 1: invalid JSON" if kind == "not-utf-8" else "cannot read") in err

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"refine": {"top_k": 3}, "note": "\xff"}')
        assert main(["judge", "q?", str(docs_file(tmp_path)), "--config", str(config)]) == 2
        assert "cannot read config file" in capsys.readouterr().err


class TestJudgeCommand:
    def test_prints_judgment(self, tmp_path, capsys):
        code = main(
            ["judge", "What is the capital city of France?", str(docs_file(tmp_path))]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            '{"action": "Correct", "max_score": 0.7142857142857142, '
            '"scores": [0.7142857142857142, -1.0]}\n'
        )

    def test_thresholds_change_action(self, tmp_path, capsys):
        code = main(
            [
                "judge",
                "What is the capital city of France?",
                str(docs_file(tmp_path)),
                "--set",
                "thresholds.upper=0.9",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["action"] == "Ambiguous"

    def test_empty_docs_file(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text("\n", encoding="utf-8")
        assert main(["judge", "q?", str(path)]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply == {"action": "Incorrect", "max_score": -1.0, "scores": []}

    def test_malformed_line_numbered(self, tmp_path, capsys):
        path = write_lines(tmp_path / "docs.jsonl", [json.dumps({"text": "a"}), "{oops"])
        assert main(["judge", "q?", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("question", ["   ", "caf\udce9?"], ids=["blank", "lone-surrogate"])
    def test_bad_question_is_input_error(self, question, tmp_path, capsys):
        assert main(["judge", question, str(docs_file(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: question: query text must be")
        assert "Traceback" not in err

    def test_missing_docs_file(self, tmp_path, capsys):
        assert main(["judge", "q?", str(tmp_path / "nope.jsonl")]) == 2

    def test_bad_override(self, tmp_path, capsys):
        code = main(
            ["judge", "q?", str(docs_file(tmp_path)), "--set", "turbo.x=1"]
        )
        assert code == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_every_endpoint_section_is_checked_offline(self):
        assert set(ENDPOINT_SECTIONS) == {"search", "scorer", "generator", "rewriter"}

    @pytest.mark.parametrize("section", ENDPOINT_SECTIONS)
    def test_offline_rejects_remote_endpoint(self, tmp_path, capsys, section):
        url = f"http://example.com/{section}"
        docs = str(docs_file(tmp_path))
        code = main(["judge", "q?", docs, "--offline", "--set", f"{section}.endpoint={url}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--offline forbids non-local endpoint {section}.endpoint={url}" in err

    def test_offline_allows_lexical(self, tmp_path, capsys):
        code = main(
            ["judge", "What is the capital city of France?", str(docs_file(tmp_path)), "--offline"]
        )
        assert code == 0


class TestLoadDocsJsonl:
    def test_auto_ids_use_line_numbers(self, tmp_path):
        path = write_lines(
            tmp_path / "docs.jsonl", [json.dumps({"text": "a"}), json.dumps({"text": "b"})]
        )
        docs = _load_docs_jsonl(path)
        assert [d.id for d in docs] == ["doc1", "doc2"]

    def test_text_required(self, tmp_path):
        path = write_lines(tmp_path / "docs.jsonl", [json.dumps({"id": "x"})])
        with pytest.raises(InputError, match="text"):
            _load_docs_jsonl(path)

    def test_bad_document_error_names_its_line(self, tmp_path):
        lines = [json.dumps({"text": "a"}), "", json.dumps({"id": "c", "text": None})]
        path = write_lines(tmp_path / "docs.jsonl", lines)
        with pytest.raises(InputError) as caught:
            _load_docs_jsonl(path)
        assert str(caught.value) == "line 3: document needs a string 'text' field"

    def test_judge_rejects_non_string_text(self, tmp_path, capsys):
        path = write_lines(tmp_path / "docs.jsonl", [json.dumps({"id": "a", "text": 5})])
        assert main(["judge", "what is it", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "text" in err

    @given(
        st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "id": JSON_VALUES,
                    "text": st.text(max_size=12) | JSON_VALUES,
                    "title": JSON_VALUES,
                },
            ),
            st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
        )
    )
    def test_any_object_line_loads_or_raises_input_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "docs.jsonl"
            path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            try:
                (doc,) = _load_docs_jsonl(path)
            except InputError:
                return
        assert isinstance(doc.id, str) and isinstance(doc.text, str)


class TestRunCommand:
    def test_writes_report_and_prints_path(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        report_path = tmp_path / "sub" / "report.json"
        code = main(["run", str(dataset), "--report", str(report_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(report_path)
        text = report_path.read_text()
        assert text.startswith('{\n  "mode": "crag",\n')
        report = json.loads(text)
        assert report["accuracy"] == 1.0
        assert report["action_histogram"] == {"Correct": 2}

    def test_plain_rag_full_degradation(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "run",
                str(dataset),
                "--mode",
                "plain_rag",
                "--degrade-p",
                "1.0",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 0.0
        assert report["degradation_level"] == 1.0
        assert report["action_histogram"] == {}

    def test_csv_appends_with_single_header(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "sweep.csv"
        for _ in range(2):
            code = main(
                ["run", str(dataset), "--report", str(report_path), "--csv", str(csv_path)]
            )
            assert code == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "mode",
            "degradation_level",
            "accuracy",
            "correct",
            "incorrect",
            "ambiguous",
        ]
        assert len(rows) == 3
        assert rows[1] == rows[2]

    def test_only_action_flag(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "run",
                str(dataset),
                "--set",
                "ablations.only_action=Incorrect",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["action_histogram"] == {"Incorrect": 2}
        assert report["accuracy"] == 0.0

    def test_report_config_reruns_the_report(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        first, rerun = tmp_path / "first.json", tmp_path / "rerun.json"
        code = main(
            [
                "run",
                str(dataset),
                "--set",
                "ablations.no_refinement=true",
                "--set",
                "ablations.disable_action=Incorrect",
                "--report",
                str(first),
            ]
        )
        assert code == 0
        report = json.loads(first.read_text())
        assert report["config"]["ablations"]["no_refinement"] is True
        assert report["config"]["ablations"]["disable_action"] == "Incorrect"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(report["config"]), encoding="utf-8")
        assert main(["run", str(dataset), "--config", str(config), "--report", str(rerun)]) == 0
        reports = [report, json.loads(rerun.read_text())]
        for record in reports[0]["records"] + reports[1]["records"]:
            del record["timings"]
        assert reports[1] == reports[0]

    def test_degraded_report_reruns_from_its_own_fields(self, tmp_path, fixtures_dir, capsys):
        dataset = str(fixtures_dir / "dataset_20.jsonl")
        paths = {name: tmp_path / f"{name}.json" for name in ("first", "rerun", "seed0", "intact")}
        degraded = ["--degrade-p", "0.5", "--seed", "7"]
        assert main(["run", dataset, *degraded, "--report", str(paths["first"])]) == 0
        report = json.loads(paths["first"].read_text())
        assert (report["degradation_level"], report["degradation_seed"]) == (0.5, 7)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(report["config"]), encoding="utf-8")
        rerun = [
            "--config",
            str(config),
            "--mode",
            report["mode"],
            "--degrade-p",
            str(report["degradation_level"]),
            "--seed",
            str(report["degradation_seed"]),
        ]
        assert main(["run", dataset, *rerun, "--report", str(paths["rerun"])]) == 0
        seed0 = ["--degrade-p", "0.5"]
        assert main(["run", dataset, *seed0, "--report", str(paths["seed0"])]) == 0
        assert main(["run", dataset, "--report", str(paths["intact"])]) == 0
        reports = {name: json.loads(path.read_text()) for name, path in paths.items()}
        for name in reports:
            for record in reports[name]["records"]:
                del record["timings"]
        assert reports["rerun"] == reports["first"]
        # The seed decides which documents go, so a rerun needs it.
        assert reports["seed0"]["degradation_seed"] == 0
        assert reports["seed0"]["records"] != reports["first"]["records"]
        assert reports["intact"]["degradation_seed"] is None

    def test_non_object_config_section_exits_2(self, tmp_path, capsys):
        # config._validate_tree: "section ... must be an object"
        dataset = mini_dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scorer": 5}), encoding="utf-8")
        code = main(
            ["run", str(dataset), "--config", str(config), "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "section 'scorer' must be an object" in capsys.readouterr().err

    def test_instance_without_documents_runs_as_at_p_zero(self, tmp_path):
        lines = mini_dataset(tmp_path).read_text("utf-8").splitlines()
        second = json.loads(lines[1])
        dataset = write_lines(tmp_path / "empty.jsonl", [lines[0], json.dumps({**second, "docs": []})])
        report = tmp_path / "r.json"
        for mode in harness.MODES:
            runs = []
            for extra in ([], ["--degrade-p", "0"]):
                assert main(["run", str(dataset), "--mode", mode, "--report", str(report), *extra]) == 0
                data = json.loads(report.read_text())
                del data["degradation_level"], data["degradation_seed"]
                for record in data["records"]:
                    del record["timings"]
                runs.append(data)
            assert runs[0] == runs[1]
            record = runs[0]["records"][1]
            assert (record["instance_id"], record["doc_scores"]) == ("m2", [])
            if mode == "crag":
                assert record["judgment"] == {"action": "Incorrect", "max_score": -1.0}

    @pytest.mark.parametrize(
        "instance_id,doc_id", [("q\ud800", "m1_rel"), ("m1", "d\udc80")]
    )
    def test_lone_surrogate_id_degrades(self, tmp_path, instance_id, doc_id):
        # A JSON escape writes the lone surrogate on an ASCII line.
        line = json.dumps(
            {
                "id": instance_id,
                "question": "What is the capital city of France?",
                "answers": ["Paris"],
                "docs": [{"id": doc_id, "text": "The capital city of France is Paris."}],
                "relevant_doc_ids": [doc_id],
            }
        )
        dataset = write_lines(tmp_path / "ds.jsonl", [line])
        report = tmp_path / "r.json"
        assert main(["run", str(dataset), "--degrade-p", "0.5", "--report", str(report)]) == 0
        [record] = json.loads(report.read_text("utf-8"))["records"]
        assert record["instance_id"] == instance_id

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_remote_failure_names_its_instance(self, tmp_path, capsys, workers):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        code = main(
            [
                "run",
                str(mini_dataset(tmp_path)),
                "--set",
                "scorer.kind=remote",
                "--set",
                f"scorer.endpoint=http://127.0.0.1:{port}/score",
                "--set",
                "scorer.retries=0",
                "--workers",
                workers,
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: instance 'm1': scorer unreachable after 1 attempts: " in err
        assert err.count("scorer unreachable") == 1

    @pytest.mark.parametrize(
        "ablation", ["disable_action=Incorrect", "only_action=Correct", "only_action=Ambiguous"]
    )
    def test_blank_document_gives_empty_knowledge(self, tmp_path, ablation):
        lines = mini_dataset(tmp_path).read_text("utf-8").splitlines()
        second = json.loads(lines[1])
        blank = {**second, "docs": [{"id": "m2_blank", "text": "   "}], "relevant_doc_ids": []}
        dataset = write_lines(tmp_path / "blank.jsonl", [lines[0], json.dumps(blank)])
        report = tmp_path / "r.json"
        args = ["run", str(dataset), "--set", f"ablations.{ablation}", "--report", str(report)]
        assert main(args) == 0
        record = json.loads(report.read_text())["records"][1]
        assert (record["knowledge"], record["answer"]) == ("", "UNKNOWN")

    def test_missing_dataset(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.jsonl")]) == 2

    def test_degrade_p_out_of_range(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        code = main(
            ["run", str(dataset), "--degrade-p", "1.5", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "pair", ["refine.top_k=2.5", "ablations.no_refinement=no", "scorer.timeout=0"]
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, pair):
        dataset = mini_dataset(tmp_path)
        code = main(
            ["run", str(dataset), "--set", pair, "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert pair.split("=")[0].split(".")[1] in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("api_key", ["ключ", "sek\nrit"], ids=["non-latin-1", "newline"])
    def test_search_api_key_that_is_no_header_value_exits_2(
        self, tmp_path, capsys, monkeypatch, api_key
    ):
        monkeypatch.setenv("RAGMEND_SEARCH_API_KEY", api_key)
        dataset = mini_dataset(tmp_path)
        report = tmp_path / "r.json"
        code = main(
            [
                "run",
                str(dataset),
                "--degrade-p",
                "1.0",
                "--set",
                "search.endpoint=http://localhost:9/search",
                "--report",
                str(report),
            ]
        )
        assert code == 2
        assert "RAGMEND_SEARCH_API_KEY" in capsys.readouterr().err
        assert not report.exists()

    def test_bad_workers(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        code = main(
            ["run", str(dataset), "--workers", "0", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--degrade-p", "2"], "degradation probability must be in [0, 1], got 2"),
            (["--degrade-p", "nan"], "degradation probability must be in [0, 1], got nan"),
        ],
    )
    def test_refused_option_is_usage_error_that_creates_nothing(
        self, tmp_path, capsys, option, message
    ):
        dataset = mini_dataset(tmp_path)
        out = tmp_path / "out"
        report, table = out / "sub" / "r.json", out / "csv" / "t.csv"
        code = main(["run", str(dataset), *option, "--report", str(report), "--csv", str(table)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_offline_without_search_endpoint_has_no_web_knowledge(self, tmp_path, capsys):
        dataset = mini_dataset(tmp_path)
        report_path = tmp_path / "r.json"
        code = main(
            ["run", str(dataset), "--offline", "--degrade-p", "1", "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["action_histogram"] == {"Incorrect": 2}
        assert all(r["searched_urls"] == [] for r in report["records"])


def _destinations(tmp_path, option, path):
    """`run` arguments writing the report and the CSV, with `option`'s file at `path`."""
    paths = {"--report": tmp_path / "r.json", "--csv": tmp_path / "s.csv", option: path}
    return paths, [arg for pair in paths.items() for arg in map(str, pair)]


class TestRunDestinations:
    """`--report` and `--csv` are checked before the first instance runs."""

    def test_report_directory_sends_no_request(self, tmp_path, fixtures_dir, wire_counts, capsys):
        with MockService(fixtures_dir) as svc:
            code = main(
                [
                    "run",
                    str(fixtures_dir / "dataset_20.jsonl"),
                    "--set",
                    "scorer.kind=remote",
                    "--set",
                    f"scorer.endpoint={svc.base_url}/score",
                    "--report",
                    str(tmp_path),
                ]
            )
        assert code == 2
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
        assert wire_counts.connections == []

    @pytest.mark.parametrize("option", ["--report", "--csv"])
    @pytest.mark.parametrize("shape", ["directory", "parent-is-a-file"])
    def test_unwritable_destination_exits_2_before_the_run(self, tmp_path, capsys, option, shape):
        blocker = tmp_path / "blocker"
        if shape == "directory":
            blocker.mkdir()
            target = blocker
        else:
            blocker.write_text("", encoding="utf-8")
            target = blocker / "out"
        paths, args = _destinations(tmp_path, option, target)
        code = main(["run", str(mini_dataset(tmp_path)), *args])
        assert code == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err
        assert not any(path.is_file() for path in paths.values() if path != target)

    @pytest.mark.parametrize("option", ["--report", "--csv"])
    def test_write_failure_after_the_run_is_input_error(
        self, tmp_path, capsys, monkeypatch, option
    ):
        paths, args = _destinations(tmp_path, option, tmp_path / "out")
        run_experiment = harness.run_experiment

        def run_then_block(*a, **kw):
            report = run_experiment(*a, **kw)
            paths[option].mkdir()  # the destination becomes a directory during the run
            return report

        monkeypatch.setattr(harness, "run_experiment", run_then_block)
        code = main(["run", str(mini_dataset(tmp_path)), *args])
        assert code == 2
        assert f"error: cannot write {paths[option]}: " in capsys.readouterr().err


class TestRunAgainstMockService:
    def test_offline_crag_with_local_endpoints(self, tmp_path, fixtures_dir, capsys):
        report_path = tmp_path / "report.json"
        with MockService(fixtures_dir) as svc:
            code = main(
                [
                    "run",
                    str(fixtures_dir / "dataset_20.jsonl"),
                    "--degrade-p",
                    "1.0",
                    "--seed",
                    "42",
                    "--offline",
                    "--report",
                    str(report_path),
                    "--set",
                    f"search.endpoint={svc.base_url}/search",
                    "--set",
                    f"search.cache_dir={tmp_path / 'cache'}",
                ]
            )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0
        assert report["action_histogram"] == {"Incorrect": 20}
        assert all(r["searched_urls"] for r in report["records"])

    def test_offline_blocks_external_fetch(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "search.json").write_text(
            json.dumps(
                {"capital city France": [{"url": "http://example.com/p.html"}]}
            ),
            encoding="utf-8",
        )
        dataset = write_lines(
            tmp_path / "data.jsonl",
            [
                json.dumps(
                    {
                        "id": "x1",
                        "question": "What is the capital city of France?",
                        "answers": ["Paris"],
                        "docs": [{"id": "d1", "text": "Granite weathers slowly."}],
                        "relevant_doc_ids": [],
                    }
                )
            ],
        )
        report_path = tmp_path / "report.json"
        with MockService(fixtures) as svc:
            code = main(
                [
                    "run",
                    str(dataset),
                    "--offline",
                    "--report",
                    str(report_path),
                    "--set",
                    f"search.endpoint={svc.base_url}/search",
                    "--set",
                    f"search.cache_dir={tmp_path / 'cache'}",
                ]
            )
        assert code == 3
        assert "offline" in capsys.readouterr().err


class TestMockServeCommand:
    def test_missing_fixtures_dir(self, tmp_path, capsys):
        code = main(["mock-serve", "--fixtures", str(tmp_path / "nope")])
        assert code == 2

    def test_refused_search_json_exits_2(self, tmp_path, capsys):
        (tmp_path / "search.json").write_text("{bad", encoding="utf-8")
        assert main(["mock-serve", "--fixtures", str(tmp_path), "--port", "0"]) == 2
        assert f"error: {tmp_path / 'search.json'} is not readable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--config", "missing.json"], ["--set", "scorer.kind=bogus"], ["--offline"]],
        ids=lambda option: option[0],
    )
    def test_config_options_are_usage_errors(self, tmp_path, capsys, option):
        # The mock serves fixtures and reads no config; a missing fixtures
        # directory keeps a parser that took the option from serving.
        code = main(["mock-serve", "--fixtures", str(tmp_path / "nope")] + option)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-1", "65536"])
    def test_port_out_of_range_is_usage_error(self, capsys, port):
        assert main(["mock-serve", f"--port={port}"]) == 2
        assert f"port must be in 0-65535, got {port}" in capsys.readouterr().err

    def test_highest_port_parses(self):
        assert build_parser().parse_args(["mock-serve", "--port", "65535"]).port == 65535

    def test_port_in_use(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["mock-serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 3
        assert "cannot bind" in capsys.readouterr().err

    def test_serves_until_interrupted(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ragmend.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ragmend.cli", "mock-serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            base_url = proc.stdout.readline().strip()
            session = requests.Session()
            session.trust_env = False
            with session:
                status = session.get(f"{base_url}/search", params={"q": "x"}, timeout=5).status_code
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert status == 200
        assert code == 0

    def test_serves_in_process_until_interrupted(self, monkeypatch, capsys):
        # cli.cmd_mock_serve's serve loop and its KeyboardInterrupt exit, in this process.
        services = []

        class Recorded(MockService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(cli, "MockService", Recorded)
        statuses = []

        def interrupt_once_served():
            # A reply proves the main thread is in the serve loop. Without a bound
            # service there is no loop to end, so no interrupt either.
            deadline = time.monotonic() + 10
            while not services and time.monotonic() < deadline:
                time.sleep(0.01)
            if not services:
                return
            session = requests.Session()
            session.trust_env = False
            try:
                with session:
                    resp = session.get(
                        f"{services[0].base_url}/search", params={"q": "x"}, timeout=5
                    )
                statuses.append(resp.status_code)
            finally:
                _thread.interrupt_main()

        helper = threading.Thread(target=interrupt_once_served, daemon=True)
        helper.start()
        code = main(["mock-serve", "--port", "0"])
        helper.join(timeout=15)
        assert not helper.is_alive()
        assert code == 0
        assert statuses == [200]
        assert capsys.readouterr().out.strip() == services[0].base_url
        port = int(services[0].base_url.rsplit(":", 1)[1])
        with pytest.raises(OSError), socket.create_connection(("127.0.0.1", port), timeout=1):
            pass

    def test_default_fixtures_bundled(self):
        assert (default_fixtures_dir() / "dataset_20.jsonl").is_file()
