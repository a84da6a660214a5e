"""Experiment harness: datasets, degradation, accuracy, and reports.

Datasets arrive as JSONL with precomputed retrieval. The degradation
simulator removes ground-truth-relevant documents with a seeded per-document
draw so different probability levels nest exactly. Experiments pass every
instance to `pipeline.run` in one of its `MODES` (crag, plain_rag, rag_web)
and emit a JSON-serializable report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from . import pipeline
from .config import config_snapshot
from .errors import DatasetError, InputError, RemoteError
from .pipeline import MODES, PipelineConfig, RunRecord
from .scoring import Document, Query, Scorer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetInstance:
    """One question with gold answers and precomputed retrieved documents."""

    id: str
    question: str
    answers: tuple[str, ...]
    docs: tuple[Document, ...]
    relevant_doc_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "docs", tuple(self.docs))
        if self.relevant_doc_ids is not None:
            object.__setattr__(self, "relevant_doc_ids", tuple(self.relevant_doc_ids))
        if not self.answers or any(not a.strip() for a in self.answers):
            raise ValueError(f"instance {self.id!r} needs non-empty answers")
        ids = [d.id for d in self.docs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"instance {self.id!r} has duplicate doc ids")


def read_jsonl(
    path: Union[str, Path], error: Callable[[str], Exception], what: str
) -> Iterator[tuple[int, object]]:
    """Yield (line number, value) for each non-blank line of a JSONL file.

    A missing or unreadable file, or a line that is not UTF-8 JSON, raises
    `error`; the message names the file as `what`, or the line number.
    """
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                # surrogateescape keeps each byte that is not UTF-8; decoding the
                # line's bytes again raises the error that names it. An ASCII
                # line holds no escaped byte.
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                payload = json.loads(line)
            except ValueError as exc:
                raise error(f"line {line_no}: invalid JSON: {exc}") from exc
            yield line_no, payload


def parse_document(raw, n: int, where: str, bad: Callable[[str], Exception]) -> Document:
    """A Document from a JSON object's string 'text' and optional 'id'; others are ignored.

    Without an 'id' the document's id is `doc<n>`. A `raw` that is not such an
    object raises `bad(message)`, where the message starts with `where.format(n)`.
    """
    text = raw.get("text") if isinstance(raw, dict) else None
    if not isinstance(text, str):
        raise bad(f"{where.format(n)} needs a string 'text' field")
    return Document(str(raw["id"]) if "id" in raw else f"doc{n}", text)


def _parse_instance(payload, line_no: int) -> DatasetInstance:
    def bad(message: str) -> DatasetError:
        return DatasetError(f"line {line_no}: {message}")

    if not isinstance(payload, dict):
        raise bad("an instance must be a JSON object")
    for field_name in ("id", "question", "answers", "docs"):
        if field_name not in payload:
            raise bad(f"missing field {field_name!r}")
    question = payload["question"]
    if not isinstance(question, str):
        raise bad("'question' must be a string")
    try:
        Query(question)
    except ValueError as exc:
        raise bad(f"'question': {exc}") from None
    answers = payload["answers"]
    if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
        raise bad("'answers' must be a list of strings")
    if not isinstance(payload["docs"], list):
        raise bad("'docs' must be a list")
    docs = [parse_document(raw, i, "docs[{}]", bad) for i, raw in enumerate(payload["docs"])]
    relevant = payload.get("relevant_doc_ids")
    if relevant is not None and not isinstance(relevant, list):
        raise bad("'relevant_doc_ids' must be a list")
    try:
        return DatasetInstance(
            id=str(payload["id"]),
            question=question,
            answers=tuple(answers),
            docs=tuple(docs),
            relevant_doc_ids=tuple(str(r) for r in relevant) if relevant is not None else None,
        )
    except ValueError as exc:
        raise bad(str(exc)) from exc


def load_dataset(path: Union[str, Path]) -> list[DatasetInstance]:
    """Read a JSONL dataset, attaching line numbers to every error."""
    instances = []
    seen_ids = set()
    for line_no, payload in read_jsonl(path, DatasetError, "dataset"):
        instance = _parse_instance(payload, line_no)
        if instance.id in seen_ids:
            raise DatasetError(f"line {line_no}: duplicate instance id {instance.id!r}")
        seen_ids.add(instance.id)
        instances.append(instance)
    return instances


def removal_draw(seed: int, instance_id: str, doc_id: str) -> float:
    """Deterministic uniform draw in [0, 1) for one (seed, instance, doc)."""
    key = f"{seed}\x1f{instance_id}\x1f{doc_id}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def degrade(
    instances: Sequence[DatasetInstance], p: float, seed: int
) -> list[DatasetInstance]:
    """Remove each relevant document with probability p, deterministically.

    The per-document draw depends only on (seed, instance id, doc id), so the
    removed sets nest as p grows: anything removed at p1 is also removed at
    any p2 >= p1 under the same seed. An instance may be left with no
    documents, which `crag` judges Incorrect. An instance that loses no
    document is returned as it is, not copied.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"degradation probability must be in [0, 1], got {p}")
    degraded = []
    for instance in instances:
        if instance.relevant_doc_ids is None:
            raise DatasetError(
                f"instance {instance.id!r} has no relevant_doc_ids; cannot degrade"
            )
        relevant = set(instance.relevant_doc_ids)
        kept = tuple(
            doc
            for doc in instance.docs
            if doc.id not in relevant or removal_draw(seed, instance.id, doc.id) >= p
        )
        if len(kept) < len(instance.docs):
            instance = dataclasses.replace(instance, docs=kept)
        degraded.append(instance)
    return degraded


def accuracy(answer: str, golds: Sequence[str]) -> bool:
    """True iff any gold answer appears in the answer, case-insensitively."""
    if not golds:
        raise ValueError("golds must be non-empty")
    lowered = answer.lower()
    return any(gold.lower() in lowered for gold in golds)


@dataclass
class InstanceRecord:
    """One instance's outcome inside a report."""

    instance_id: str
    golds: tuple[str, ...]
    correct: bool
    run: RunRecord


@dataclass
class ExperimentReport:
    """Aggregated experiment outcome plus the settings that produced it.

    `config` is `config_snapshot` of the run's config: the tree a `--config`
    file holds, so `ragmend run --config` loads it back unchanged. `mode`,
    `degradation_level` and `degradation_seed` (None without degradation) are
    the run's other settings.
    """

    mode: str
    degradation_level: float
    accuracy: float
    action_histogram: dict
    config: dict
    records: list[InstanceRecord]
    degradation_seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "degradation_level": self.degradation_level,
            "degradation_seed": self.degradation_seed,
            "accuracy": self.accuracy,
            "action_histogram": dict(self.action_histogram),
            "config": self.config,
            "records": [_record_dict(r) for r in self.records],
        }


def _record_dict(record: InstanceRecord) -> dict:
    run = record.run
    return {
        "instance_id": record.instance_id,
        "golds": list(record.golds),
        "correct": record.correct,
        "question": run.question,
        "doc_scores": list(run.doc_scores),
        "judgment": None
        if run.judgment is None
        else {"action": run.judgment.action.value, "max_score": run.judgment.max_score},
        "action": None if run.action is None else run.action.value,
        "knowledge_kind": run.knowledge.kind.value,
        "knowledge": run.knowledge.text,
        "searched_urls": list(run.searched_urls),
        "answer": run.answer,
        "timings": dict(run.timings),
        "error": run.error,
    }


def run_experiment(
    instances: Sequence[DatasetInstance],
    cfg: PipelineConfig,
    mode: str,
    degradation: Optional[tuple[float, int]] = None,
    *,
    scorer: Scorer,
    search_client=None,
    rewriter=None,
    generator=None,
    workers: int = 1,
) -> ExperimentReport:
    """Run one experiment over a dataset and aggregate the report.

    degradation is an optional (p, seed) pair applied before dispatch. With
    no search client, a mode that searches logs that once, up front. A
    generation failure is recorded and counted incorrect; another RemoteError
    aborts the experiment, with one worker before the next instance starts,
    re-raised with the instance id in front of its message.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; choose from {MODES}")
    if workers < 1:
        raise InputError("workers must be >= 1")

    level, seed = 0.0, None
    if degradation is not None:
        level, seed = degradation
        instances = degrade(instances, level, seed)
    if search_client is None and mode != "plain_rag":
        logger.warning("no search client configured; external knowledge is empty")

    def run_one(instance: DatasetInstance) -> InstanceRecord:
        try:
            record = pipeline.run(
                instance.question,
                instance.docs,
                cfg,
                scorer,
                search_client,
                rewriter,
                generator,
                mode=mode,
            )
        except RemoteError as exc:
            exc.args = (f"instance {instance.id!r}: {exc}",)
            raise
        correct = record.error is None and accuracy(record.answer, instance.answers)
        return InstanceRecord(
            instance_id=instance.id,
            golds=instance.answers,
            correct=correct,
            run=record,
        )

    if workers == 1:
        records = [run_one(instance) for instance in instances]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_one, instances))

    histogram = Counter(
        r.run.action.value for r in records if r.run.action is not None
    )
    correct_count = sum(1 for r in records if r.correct)
    return ExperimentReport(
        mode=mode,
        degradation_level=level,
        degradation_seed=seed,
        accuracy=correct_count / len(records) if records else 0.0,
        action_histogram=dict(histogram),
        config=config_snapshot(cfg),
        records=records,
    )


def csv_row(report: ExperimentReport) -> dict:
    """Flat summary row for degradation curves: mode, p, accuracy, actions."""
    row = {
        "mode": report.mode,
        "degradation_level": report.degradation_level,
        "accuracy": report.accuracy,
    }
    for action in ("Correct", "Incorrect", "Ambiguous"):
        row[action.lower()] = report.action_histogram.get(action, 0)
    return row
