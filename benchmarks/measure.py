"""Set up and time one generated workload through ragmend.run.

`run.py` starts this in a fresh process, so the peak resident memory it
reports is the program's own and not the generator's. The roles are built
the way `ragmend run` builds them, against an in-process MockService that
serves the generated fixtures; `fetch_transport` stays at its default.

The timed loop is closed, one client, one question per `run` call. It runs
whole passes over the dataset, each pass with an empty page cache, until
both the time budget and the minimum sample count are met, so every pass
has the designed cache-hit share. Every record is checked: no exception, no
`record.error`, the gold answer present, the designed action taken, and the
same output as the first pass. Times are normalized by the host-speed probe
(speed.py), which runs between questions, outside the timed calls; the raw
wall times are reported too, as the `wall_*` figures.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ragmend  # noqa: E402

if Path(ragmend.__file__).resolve().parent != ROOT / "src" / "ragmend":
    sys.exit(f"ragmend was imported from {ragmend.__file__}, not from this checkout")

from ragmend import config as config_mod  # noqa: E402
from ragmend import harness, pipeline  # noqa: E402
from ragmend.mockserver import MockService  # noqa: E402

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_QUESTIONS = 100
# The traced phase keeps every span in memory, so it is kept short.
TRACE_SECONDS = 3.0
# Seconds of `run` calls between two host-speed probes.
PROBE_EVERY_S = 0.05
SETUP_REPEATS = 15


@dataclasses.dataclass
class Setup:
    service: MockService
    instances: list
    cfg: pipeline.PipelineConfig
    roles: dict
    seconds: dict


def build_roles(cfg: pipeline.PipelineConfig) -> dict:
    """The roles `ragmend run` builds for this config."""
    search_client = None
    if cfg.search.endpoint:
        search_client = ragmend.HttpSearchClient(
            cfg.search.endpoint, timeout=cfg.search.timeout, retries=cfg.search.retries
        )
    rewriter = (
        ragmend.RemoteRewriter(cfg.rewriter_endpoint, timeout=cfg.generator_timeout)
        if cfg.rewriter_endpoint
        else ragmend.KeywordRewriter()
    )
    generator = (
        ragmend.RemoteGenerator(
            cfg.generator_endpoint,
            timeout=cfg.generator_timeout,
            retries=cfg.generator_retries,
            max_tokens=cfg.generator_max_tokens,
        )
        if cfg.generator_endpoint
        else ragmend.StubGenerator()
    )
    return {
        "scorer": ragmend.build_scorer(cfg.scorer),
        "search_client": search_client,
        "rewriter": rewriter,
        "generator": generator,
    }


def set_up(work: Path, design: dict) -> Setup:
    """Start the mock service, load and degrade the dataset, build config and roles."""
    t0 = time.perf_counter()
    service = MockService(work / "fixtures").start()
    t1 = time.perf_counter()
    instances = harness.load_dataset(work / "dataset.jsonl")
    t2 = time.perf_counter()
    instances = harness.degrade(instances, design["degrade_p"], design["degrade_seed"])
    t3 = time.perf_counter()
    base = service.base_url
    overrides = [f"search.endpoint={base}/search", f"search.cache_dir={work / 'cache'}"]
    if design["scorer"] == "remote":
        overrides += [
            "scorer.kind=remote",
            f"scorer.endpoint={base}/score",
            f"generator.endpoint={base}/generate",
        ]
    cfg = config_mod.load_config(None, overrides)
    roles = build_roles(cfg)
    t4 = time.perf_counter()
    return Setup(
        service,
        instances,
        cfg,
        roles,
        {"total": t4 - t0, "mock_start": t1 - t0, "load_dataset": t2 - t1, "degrade": t3 - t2},
    )


def _stop_all(services: list[MockService]) -> None:
    """Stop services together: each stop waits out the server's poll interval."""
    threads = [threading.Thread(target=service.stop) for service in services]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def set_up_repeatedly(work: Path, design: dict, speed: SpeedProbe) -> tuple[Setup, dict]:
    """Set up SETUP_REPEATS times; keep the last, report normalized medians of each part."""
    parts: dict[str, list[float]] = {}
    idle: list[MockService] = []
    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            idle.append(setup.service)
        speed.fill()
        setup = set_up(work, design)
        factor = speed.factor()
        for key, seconds in setup.seconds.items():
            parts.setdefault(key, []).append(seconds * factor)
            parts.setdefault("wall_" + key, []).append(seconds)
    _stop_all(idle)
    return setup, {key: statistics.median(values) for key, values in parts.items()}


class Loop:
    """Closed-loop passes over the dataset with the correctness gate."""

    def __init__(self, setup: Setup, design: dict, work: Path, speed: SpeedProbe):
        self.setup = setup
        self.speed = speed
        self.work = work
        self.designed = {q["id"]: q["action"] for q in design["questions"]}
        self.golds = {inst.id: inst.answers for inst in setup.instances}
        self.first_pass: dict[str, tuple] = {}
        self.passes = 0
        self.problems: list[str] = []

    def output(self, record) -> tuple:
        base = self.setup.service.base_url
        return (
            record.action.value,
            record.knowledge.text if record.knowledge is not None else None,
            [url.replace(base, "{base}") for url in record.searched_urls],
            record.answer,
        )

    def run(self, seconds: float, min_questions: int, roles: dict, tracer=None) -> dict:
        latencies, scaled, actions = [], [], []
        failed = 0
        since_probe = PROBE_EVERY_S
        run_fn = pipeline.run if tracer is None else tracer.wrap("pipeline.run", pipeline.run)
        setup = self.setup
        elapsed = 0.0
        while True:
            cache = self.work / f"cache-pass{self.passes}"
            cfg = dataclasses.replace(
                setup.cfg, search=dataclasses.replace(setup.cfg.search, cache_dir=cache)
            )
            for inst in setup.instances:
                if since_probe >= PROBE_EVERY_S:
                    self.speed.probe()
                    since_probe = 0.0
                factor = self.speed.factor()
                if tracer is not None:
                    tracer.question = inst.id
                t0 = time.perf_counter()
                try:
                    record = run_fn(
                        inst.question,
                        inst.docs,
                        cfg,
                        roles["scorer"],
                        roles["search_client"],
                        roles["rewriter"],
                        roles["generator"],
                    )
                except Exception:
                    latencies.append(time.perf_counter() - t0)
                    scaled.append(latencies[-1] * factor)
                    elapsed += latencies[-1]
                    since_probe += latencies[-1]
                    failed += 1
                    self.problem(f"{inst.id} raised:\n{traceback.format_exc()}")
                    continue
                latency = time.perf_counter() - t0
                latencies.append(latency)
                scaled.append(latency * factor)
                elapsed += latency
                since_probe += latency
                actions.append(record.action.value)
                if record.error is not None or not harness.accuracy(
                    record.answer, self.golds[inst.id]
                ):
                    failed += 1
                    self.problem(f"{inst.id}: error={record.error!r} answer={record.answer!r}")
                if record.action.value != self.designed[inst.id]:
                    self.problem(
                        f"{inst.id}: action {record.action.value}, "
                        f"designed {self.designed[inst.id]}"
                    )
                out = self.output(record)
                if self.first_pass.setdefault(inst.id, out) != out:
                    self.problem(f"{inst.id}: output differs from the first pass")
            if tracer is not None:
                tracer.question = None
            shutil.rmtree(cache, ignore_errors=True)
            self.passes += 1
            if elapsed >= seconds and len(latencies) >= min_questions:
                break
        return {"latencies": latencies, "scaled": scaled, "actions": actions, "failed": failed}

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def digest(self) -> str:
        outputs = [[qid, *self.first_pass[qid]] for qid in sorted(self.first_pass)]
        return hashlib.sha256(json.dumps(outputs).encode("utf-8")).hexdigest()[:16]


def _timings(latencies: list[float]) -> tuple[float, float, float]:
    """Questions per second, p50 ms and p90 ms of per-question times."""
    return (
        len(latencies) / sum(latencies),
        1000.0 * statistics.median(latencies),
        1000.0 * statistics.quantiles(latencies, n=10)[-1],
    )


def end_to_end(result: dict, setup_s: dict) -> dict:
    n = len(result["latencies"])
    qps, p50, p90 = _timings(result["scaled"])
    wall_qps, wall_p50, wall_p90 = _timings(result["latencies"])
    return {
        "questions_per_s": qps,
        "question_p50_ms": p50,
        "question_p90_ms": p90,
        "failed_share": result["failed"] / n,
        "accuracy": (n - result["failed"]) / n,
        "setup_s": setup_s["total"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_questions_per_s": wall_qps,
        "wall_question_p50_ms": wall_p50,
        "wall_question_p90_ms": wall_p90,
        "wall_setup_s": setup_s["wall_total"],
    }


def check_trace(layers: dict, design: dict, traced_questions: int) -> list[str]:
    """The traced counts must be the ones the workload was designed to give."""
    problems = []
    per_pass = len(design["questions"])
    mix = design["mix"]
    expected = {
        "scoring.pairs_per_question": design["pairs_per_pass"] / per_pass,
        "refinement.refine_calls_per_question": (mix.get("Correct", 0) + mix.get("Ambiguous", 0))
        / per_pass,
        "websearch.search_calls_per_question": (
            mix.get("Incorrect", 0) + mix.get("Ambiguous", 0)
        )
        / per_pass,
        "websearch.fetch_failures": 0,
        "scoring.retries": 0,
    }
    if design["scorer"] == "lexical":
        expected["scoring.http_requests_per_question"] = 0
    else:
        expected["scoring.http_requests_per_question"] = design["pairs_per_pass"] / per_pass
    if design["expected_hit_share"] is not None:
        expected["websearch.cache_hit_share"] = design["expected_hit_share"]
    for name, value in expected.items():
        if abs(layers[name] - value) > 1e-9:
            problems.append(f"trace: {name} = {layers[name]}, designed {value}")
    if traced_questions % per_pass:
        problems.append("trace: a pass was cut short")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    design = json.loads((args.work / "design.json").read_text("utf-8"))

    speed = SpeedProbe(design["probe_net_weight"])
    setup, setup_s = set_up_repeatedly(args.work, design, speed)
    try:
        loop = Loop(setup, design, args.work, speed)
        # Warm-up: one untimed question of each designed action.
        firsts = {}
        for inst in setup.instances:
            firsts.setdefault(loop.designed[inst.id], inst)
        warm = dataclasses.replace(setup, instances=list(firsts.values()))
        Loop(warm, design, args.work / "warm", speed).run(0.0, 0, setup.roles)
        speed.fill()

        if not args.trace:
            result = loop.run(args.seconds, MIN_QUESTIONS, setup.roles)
            metrics = end_to_end(result, setup_s)
        else:
            traced_s = min(TRACE_SECONDS, args.seconds / 2)
            plain = loop.run(args.seconds - traced_s, 0, setup.roles)
            tracer = tracing.Tracer()
            roles = {k: v if v is None else tracer.proxy(k, v) for k, v in setup.roles.items()}
            tracer.install()
            try:
                result = loop.run(traced_s, 0, roles, tracer)
            finally:
                tracer.uninstall()
            n = len(result["latencies"])
            metrics = tracing.layer_metrics(tracer, n, result["actions"])
            untraced_qps = _timings(plain["scaled"])[0]
            traced_qps = _timings(result["scaled"])[0]
            metrics.update(
                {
                    "harness.load_dataset_s": setup_s["load_dataset"],
                    "harness.degrade_s": setup_s["degrade"],
                    "mockserver.start_s": setup_s["mock_start"],
                    "trace.untraced_questions_per_s": untraced_qps,
                    "trace.traced_questions_per_s": traced_qps,
                    "trace.overhead_share": 1.0 - traced_qps / untraced_qps,
                }
            )
            loop.problems += check_trace(metrics, design, n)
            result["failed"] += plain["failed"]
            result["latencies"] += plain["latencies"]
            if args.trace_out is not None:
                tracer.write(args.trace_out, {"workload": design["workload"], "seed": design["seed"]})
    finally:
        setup.service.stop()

    print(
        json.dumps(
            {
                "attempted": len(result["latencies"]),
                "failed": result["failed"],
                "passes": loop.passes,
                "problems": loop.problems,
                "digest": loop.digest(),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
