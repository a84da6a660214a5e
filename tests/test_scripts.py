"""The scripts under scripts/ run end to end."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degradation_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    script = SCRIPTS / "run_degradation_sweep.py"
    subprocess.run(
        [sys.executable, str(script), "--levels", "0", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    with out.open(newline="", encoding="utf-8") as fh:
        rows = [
            (r["mode"], float(r["degradation_level"]), float(r["accuracy"]))
            for r in csv.DictReader(fh)
        ]
    assert rows == [
        ("crag", 0.0, 1.0),
        ("plain_rag", 0.0, 1.0),
        ("crag", 1.0, 1.0),
        ("plain_rag", 1.0, 0.0),
    ]


def test_uncovered_allowlist_matches_src():
    uncovered = load_script("uncovered")
    assert 0 < len(uncovered.ALLOWLIST) <= 4
    for (module, text), reason in uncovered.ALLOWLIST.items():
        source = (uncovered.PACKAGE / module).read_text("utf-8").splitlines()
        assert text in {line.strip() for line in source}, (module, text)
        assert reason.strip()


def test_mutants_allowlist_matches_src():
    mutants = load_script("mutants")
    assert 0 < len(mutants.ALLOWLIST) <= 8
    for (module, text), reason in mutants.ALLOWLIST.items():
        source = (mutants.PACKAGE / module).read_text("utf-8").splitlines()
        assert text in {line.strip() for line in source}, (module, text)
        assert reason.strip()


def test_build_fixture_reproduces_the_bundled_fixture(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPTS / "build_fixture.py"), str(tmp_path)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    bundled = SCRIPTS.parent / "src" / "ragmend" / "fixtures"

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files(tmp_path) == files(bundled)


def test_build_fixture_rejects_a_question_without_keywords():
    build_fixture = load_script("build_fixture")
    question, *rest = build_fixture.ITEMS[0]
    problems = build_fixture.validate([("What, is, it?", *rest)])
    assert "q01: rewriter produced no keywords" in problems
    assert not any("keywords" in p for p in build_fixture.validate(build_fixture.ITEMS))
