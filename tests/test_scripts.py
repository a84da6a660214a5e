"""The scripts under scripts/ run end to end."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    spec = importlib.util.spec_from_file_location("uncovered", SCRIPTS / "uncovered.py")
    uncovered = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(uncovered)
    assert 0 < len(uncovered.ALLOWLIST) <= 4
    for (module, text), reason in uncovered.ALLOWLIST.items():
        source = (uncovered.PACKAGE / module).read_text("utf-8").splitlines()
        assert text in {line.strip() for line in source}, (module, text)
        assert reason.strip()
