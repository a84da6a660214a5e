"""The ragmend benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload refine-heavy --seed 1 --seconds 10 --trace 0

Generates the workload from the seed under `.bench_work/`, checks its
designed properties (and refuses to start if one is off), then times it in
a fresh process (`measure.py`). With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run, and the spans are written to `.bench_work/trace-<workload>-<seed>.jsonl`.

Standard output: a provenance line, one line per metric with its unit, the
output digest, and last the JSON result
`{"correct", "attempted", "failed", "metrics"}`. See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# A run must end within 180 s; leave room for generation and clean-up.
CHILD_TIMEOUT_S = 160

# Reported in the metric lines but not in the result: failed_share is 0 when
# all is well and the result carries it as failed / attempted; the wall_*
# figures are the timings before host-speed normalization (speed.py).
EXTRA_UNITS = {
    "failed_share": "ratio",
    "wall_questions_per_s": "1/s",
    "wall_question_p50_ms": "ms",
    "wall_question_p90_ms": "ms",
    "wall_setup_s": "s",
}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    """Hash of the files under src/, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    try:
        requests_version = importlib.metadata.version("requests")
    except importlib.metadata.PackageNotFoundError:
        requests_version = None
    return {
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "requests": requests_version,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parser = argparse.ArgumentParser(description="ragmend benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "ragmend" / "__init__.py").is_file():
        print(f"no ragmend sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        try:
            design = workloads.generate(args.workload, args.seed, work)
        except workloads.DesignError as exc:
            print(f"workload {args.workload} seed {args.seed} is off its design: {exc}",
                  file=sys.stderr)
            return 2
        command = [
            sys.executable,
            str(HERE / "measure.py"),
            "--work", str(work),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            command += ["--trace-out", str(WORK / f"trace-{args.workload}-{args.seed}.jsonl")]
        try:
            child = subprocess.run(
                command,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S - (time.monotonic() - started),
            )
        except subprocess.TimeoutExpired:
            print("measurement did not finish in time", file=sys.stderr)
            return 3
        if child.returncode != 0:
            print(f"measurement failed with exit code {child.returncode}", file=sys.stderr)
            return 3
        outcome = json.loads(child.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in outcome["metrics"]]
    if missing:
        print(f"measurement gave no value for {missing}", file=sys.stderr)
        return 3

    print("provenance " + json.dumps(provenance(args.seed)))
    print(f"workload {args.workload} passes={outcome['passes']} questions={outcome['attempted']}")
    for name, value in outcome["metrics"].items():
        unit = units.get(name) or EXTRA_UNITS.get(name, "")
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"digest {args.workload} {outcome['digest']}")
    for problem in outcome["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome["problems"] and outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    n: {"value": outcome["metrics"][n], "unit": units[n]} for n in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
