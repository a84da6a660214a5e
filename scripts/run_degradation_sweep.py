#!/usr/bin/env python3
"""Sweep retrieval degradation levels and emit a CSV of accuracy per mode.

Runs the bundled fixture (or any dataset) through crag and plain_rag at a
grid of removal probabilities against a throwaway mock server, writing one
CSV row per (mode, p). The CSV plots directly as an accuracy-vs-degradation
curve.

Usage: python3 scripts/run_degradation_sweep.py [--dataset PATH] [--out sweep.csv]
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ragmend.cli import default_fixtures_dir
from ragmend.config import build_roles, load_config
from ragmend.harness import csv_row, load_dataset, run_experiment
from ragmend.mockserver import MockService


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("sweep.csv"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--levels", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0]
    )
    args = parser.parse_args()

    dataset = args.dataset or default_fixtures_dir() / "dataset_20.jsonl"
    instances = load_dataset(dataset)

    rows = []
    with MockService(default_fixtures_dir()) as svc:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = load_config(
                None,
                [f"search.endpoint={svc.base_url}/search", f"search.cache_dir={tmp}/cache"],
            )
            roles = build_roles(cfg)
            for p in args.levels:
                for mode in ("crag", "plain_rag"):
                    report = run_experiment(
                        instances, cfg, mode, (p, args.seed), **roles
                    )
                    rows.append(csv_row(report))
                    print(
                        f"mode={mode} p={p:.2f} accuracy={report.accuracy:.3f} "
                        f"actions={report.action_histogram}"
                    )

    with args.out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
