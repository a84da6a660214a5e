"""Command-line entry point.

Subcommands: judge (standalone action trigger), run (experiment driver), and
mock-serve (fixture-backed endpoints for hermetic runs). Exit codes: 0 on
success, 2 for usage or input errors, 3 for runtime or network errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

from . import config as config_mod
from . import harness
from .errors import ConfigError, InputError, RemoteError
from .http_session import is_local_url
from .mockserver import MockService
from .pipeline import PipelineConfig
from .scoring import Document, Query, build_scorer
from .trigger import judge

logger = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

def _offline(cfg: PipelineConfig, roles) -> None:
    """Refuse a configured non-local endpoint, then make each remote role's
    session send only to local hosts, with no proxy: a local host could
    redirect to any other, or a proxy stand in the way."""
    for section, values in config_mod.config_snapshot(cfg).items():
        url = values.get("endpoint")
        if url and not is_local_url(url):
            raise ConfigError(f"--offline forbids non-local endpoint {section}.endpoint={url}")
    for role in roles:
        if hasattr(role, "session"):
            role.session.local_only = True


def port(text: str) -> int:
    if not 0 <= int(text) <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0-65535, got {text}")
    return int(text)


def workers(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {text}")
    return int(text)


def probability(text: str) -> float:
    if not 0.0 <= float(text) <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"degradation probability must be in [0, 1], got {text}")
    return float(text)


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="config override, highest precedence (repeatable)",
    )
    parser.add_argument(
        "--offline",
        action="store_true",
        help="send only to localhost, 127.0.0.1 or ::1, with no proxy",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragmend",
        description="Corrective retrieval-augmented generation pipeline.",
        epilog="A real search backend API key can be supplied via RAGMEND_SEARCH_API_KEY.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_judge = sub.add_parser("judge", help="score documents and print the action")
    p_judge.add_argument("question", help="the question text")
    p_judge.add_argument("docs_file", type=Path, help="JSONL file of documents")
    _add_config_options(p_judge)

    p_run = sub.add_parser("run", help="run an experiment over a dataset")
    p_run.add_argument("dataset", type=Path, help="JSONL dataset file")
    _add_config_options(p_run)
    p_run.add_argument("--mode", choices=harness.MODES, default="crag")
    p_run.add_argument(
        "--degrade-p", type=probability, default=None, help="relevant-doc removal probability"
    )
    p_run.add_argument("--seed", type=int, default=0, help="degradation seed")
    p_run.add_argument("--report", type=Path, default=Path("report.json"))
    p_run.add_argument("--csv", type=Path, default=None, help="append a summary row")
    p_run.add_argument("--workers", type=workers, default=1)

    p_mock = sub.add_parser("mock-serve", help="serve fixture-backed mock endpoints")
    p_mock.add_argument("--host", default="127.0.0.1")
    p_mock.add_argument("--port", type=port, default=8080)
    p_mock.add_argument(
        "--fixtures", type=Path, default=None, help="fixtures directory (default: bundled)"
    )

    for p in (p_judge, p_run, p_mock):
        p.add_argument(
            "--log-level", choices=sorted(_LOG_LEVELS), default="warn", help="log verbosity"
        )
    return parser


def _load_docs_jsonl(path: Path) -> list[Document]:
    """The file's documents; `judge` judges a file with none Incorrect at -1.0."""
    return [
        harness.parse_document(raw, line_no, "line {}: document", InputError)
        for line_no, raw in harness.read_jsonl(path, InputError, "docs file")
    ]


def cmd_judge(args: argparse.Namespace) -> int:
    cfg = config_mod.load_config(args.config, args.overrides)
    scorer = build_scorer(cfg.scorer)
    if args.offline:
        _offline(cfg, [scorer])
    try:
        question = Query(args.question)
    except ValueError as exc:
        raise InputError(f"question: {exc}") from None
    docs = _load_docs_jsonl(args.docs_file)
    scores = scorer.score_batch(question.text, [doc.text for doc in docs])
    judgment = judge(scores, cfg.thresholds)
    print(
        json.dumps(
            {"action": judgment.action.value, "max_score": judgment.max_score, "scores": scores}
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = config_mod.load_config(args.config, args.overrides)
    roles = config_mod.build_roles(cfg)
    if args.offline:
        _offline(cfg, roles.values())
    instances = harness.load_dataset(args.dataset)
    # Every exit-2 check runs before an output's parent directory is made.
    outputs = list(filter(None, (args.report, args.csv)))
    for i, path in enumerate(outputs):
        for other in filter(None, (args.dataset, args.config, *outputs[:i])):
            if _same_file(path, other):
                raise InputError(f"cannot write {path}: it is the same file as {other}")
        if path.is_dir():
            raise InputError(f"cannot write {path}: it is a directory")
    for path in outputs:
        _writing(path, path.parent.mkdir, parents=True, exist_ok=True)
    degradation = None if args.degrade_p is None else (args.degrade_p, args.seed)

    report = harness.run_experiment(
        instances, cfg, args.mode, degradation, **roles, workers=args.workers
    )

    report_text = json.dumps(report.to_dict(), indent=2) + "\n"
    _writing(args.report, args.report.write_text, report_text, "utf-8")
    if args.csv is not None:
        _writing(args.csv, _append_csv, args.csv, harness.csv_row(report))
    logger.info(
        "mode=%s p=%.2f accuracy=%.3f actions=%s",
        report.mode,
        report.degradation_level,
        report.accuracy,
        report.action_histogram,
    )
    print(args.report)
    return 0


def _same_file(a: Path, b: Path) -> bool:
    """Whether two paths resolve to one path, or name one existing file (say, by a hard link).

    `os.path.realpath` is used because, unlike `Path.resolve`, it returns on a symlink loop."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def _writing(path: Path, write, *args, **kwargs) -> None:
    """Call `write`; an OSError becomes an InputError that names `path`."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _append_csv(path: Path, row: dict) -> None:
    new_file = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        if new_file:
            writer.writeheader()
        writer.writerow(row)


def default_fixtures_dir() -> Path:
    """The fixtures bundled inside the package."""
    return Path(__file__).resolve().parent / "fixtures"


def cmd_mock_serve(args: argparse.Namespace) -> int:
    fixtures = args.fixtures if args.fixtures is not None else default_fixtures_dir()
    if not Path(fixtures).is_dir():
        raise InputError(f"fixtures directory not found: {fixtures}")
    try:
        service = MockService(fixtures, host=args.host, port=args.port)
    except OSError as exc:
        raise RemoteError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    print(service.base_url, flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=_LOG_LEVELS[args.log_level], format="%(levelname)s %(name)s: %(message)s")
    handlers = {"judge": cmd_judge, "run": cmd_run, "mock-serve": cmd_mock_serve}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
