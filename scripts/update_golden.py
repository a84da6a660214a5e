#!/usr/bin/env python3
"""Rewrite tests/golden/reports.jsonl from the current source.

Runs every configuration of the golden-report matrix (see
tests/golden_reports.py) on the bundled fixture against a throwaway mock
server and writes one line per configuration. Rewrite the file only for a
change meant to alter reports, and name the configurations that changed.

Usage: python3 scripts/update_golden.py [--out PATH]
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from golden_reports import CONFIGURATIONS, GOLDEN_FILE, golden_line, run_configuration
from ragmend.cli import default_fixtures_dir
from ragmend.harness import load_dataset
from ragmend.mockserver import MockService


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=GOLDEN_FILE)
    args = parser.parse_args()

    instances = load_dataset(default_fixtures_dir() / "dataset_20.jsonl")
    lines = []
    with MockService(default_fixtures_dir()) as svc, tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGURATIONS:
            report = run_configuration(name, instances, svc.base_url, Path(tmp) / "cache")
            lines.append(golden_line(name, report))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n", "utf-8")
    print(f"wrote {len(lines)} configurations to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
