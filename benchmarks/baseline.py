"""Cross-check of the ROADMAP baseline table on the bundled 20-question fixture.

Not a workload and not a gate: it reruns the four rows of the table once
(`crag` mode, serial, mock server in-process) and prints the median over
repeats of the experiment wall time and of the summed per-stage timings the
records carry (`score`, `knowledge`, `generate`).

    python3 benchmarks/baseline.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ragmend import config as config_mod  # noqa: E402
from ragmend import harness  # noqa: E402
from ragmend.cli import default_fixtures_dir  # noqa: E402
from ragmend.mockserver import MockService  # noqa: E402

from measure import build_roles  # noqa: E402

STAGES = ("score", "knowledge", "generate")


def experiment(instances, base: str, cache: Path, p: float, remote: bool) -> dict:
    overrides = [f"search.endpoint={base}/search", f"search.cache_dir={cache}"]
    if remote:
        overrides += [
            "scorer.kind=remote",
            f"scorer.endpoint={base}/score",
            f"generator.endpoint={base}/generate",
        ]
    cfg = config_mod.load_config(None, overrides)
    roles = build_roles(cfg)
    t0 = time.perf_counter()
    report = harness.run_experiment(instances, cfg, "crag", (p, 42), **roles)
    wall = time.perf_counter() - t0
    if report.accuracy != 1.0:
        raise SystemExit(f"baseline row p={p} remote={remote}: accuracy {report.accuracy}")
    sums = {s: sum(r.run.timings.get(s, 0.0) for r in report.records) for s in STAGES}
    return {"wall": wall, **sums}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    fixtures = default_fixtures_dir()
    instances = harness.load_dataset(fixtures / "dataset_20.jsonl")
    rows = {
        "lexical p=0": [],
        "lexical p=1 cold": [],
        "lexical p=1 warm": [],
        "remote p=0 warm": [],
    }
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with MockService(fixtures) as service:
        base = service.base_url
        for _ in range(args.repeats):
            cache = Path(tempfile.mkdtemp(prefix="ragmend-baseline-", dir=ROOT / ".bench_work"))
            try:
                rows["lexical p=0"].append(experiment(instances, base, cache, 0.0, False))
                rows["lexical p=1 cold"].append(experiment(instances, base, cache, 1.0, False))
                rows["lexical p=1 warm"].append(experiment(instances, base, cache, 1.0, False))
                experiment(instances, base, cache, 0.0, True)
                rows["remote p=0 warm"].append(experiment(instances, base, cache, 0.0, True))
            finally:
                shutil.rmtree(cache, ignore_errors=True)
    print(f"{'row':18s} {'wall ms':>9s} " + " ".join(f"{s + ' ms':>12s}" for s in STAGES))
    for name, runs in rows.items():
        med = {k: 1000.0 * statistics.median(r[k] for r in runs) for k in runs[0]}
        print(f"{name:18s} {med['wall']:9.1f} " + " ".join(f"{med[s]:12.1f}" for s in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
