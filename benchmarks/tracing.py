"""Out-of-program tracing for the ragmend benchmark.

Spans come from the benchmark's side of each layer boundary: proxies around
the injected roles (scorer, search client, rewriter, generator), wrappers on
the stage functions at the module-level names the pipeline calls them by,
and wrappers on `requests.Session.request` and `__init__`. A counter on the
mock server's request handlers counts requests where they arrive. Nothing
is installed until `Tracer.install` and everything is restored by
`Tracer.uninstall`; a target name that no longer exists fails the install.

A span is (name, start, end, parent span index, question id, notes). The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import urlparse

import requests

from ragmend import mockserver, pipeline, refinement, websearch


class Span:
    __slots__ = ("name", "start", "end", "parent", "question", "notes")

    def __init__(self, name, start, parent, question):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.question = question
        self.notes: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _route(url: str) -> str:
    path = urlparse(url).path
    return "page" if path.startswith("/page/") else path.strip("/")


def _note_pairs(span, args, kwargs, result):
    span.notes["pairs"] = len(result) if isinstance(result, list) else 1


def _note_segment(span, args, kwargs, result):
    span.notes["strips"] = len(result)


def _note_filter(span, args, kwargs, result):
    span.notes["strips_in"] = len(args[0] if args else kwargs["strips"])
    span.notes["kept"] = len(result)


def _note_prompt(span, args, kwargs, result):
    span.notes["prompt_chars"] = len(args[0] if args else kwargs["prompt"])


def _note_http(span, args, kwargs, result):
    # Session.request(self, method, url, ...)
    span.notes["route"] = _route(args[2] if len(args) > 2 else kwargs["url"])


# (module, attribute, span name, note): the stage functions, patched at the
# name their caller looks up. `filter_strips` is patched in `refinement`
# only, so filtering inside `select_external` stays in the websearch layer.
STAGES = (
    (pipeline, "refine", "refinement.refine", None),
    (refinement, "segment", "refinement.segment", _note_segment),
    (refinement, "filter_strips", "refinement.filter_strips", _note_filter),
    (pipeline, "rewrite", "websearch.rewrite", None),
    (pipeline, "search", "websearch.search", None),
    (pipeline, "fetch_and_extract", "websearch.fetch", None),
    (websearch, "extract_paragraphs", "websearch.extract", None),
    (pipeline, "select_external", "websearch.select", None),
)

# role -> (method, span name, note) for the proxies around injected roles.
ROLES = {
    "scorer": (
        ("score_batch", "scoring.score", _note_pairs),
        ("score", "scoring.score", _note_pairs),
        ("score_text", "scoring.score", _note_pairs),
    ),
    "search_client": (("search", "websearch.client", None),),
    "rewriter": (("rewrite", "websearch.rewriter", None),),
    "generator": (("generate", "pipeline.generate", _note_prompt),),
}


def _target(owner, name: str):
    target = getattr(owner, name, None)
    if not callable(target):
        raise RuntimeError(f"trace target {getattr(owner, '__name__', owner)}.{name} is gone")
    return target


class RoleProxy:
    """Delegates to a role, with a span around each traced method."""

    def __init__(self, tracer: "Tracer", role, methods):
        self._role = role
        for method, name, note in methods:
            setattr(self, method, tracer.wrap(name, _target(role, method), note))

    def __getattr__(self, attr):
        return getattr(self._role, attr)


class Tracer:
    """Keeps spans in memory for one traced phase of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.question = None
        self.sessions = 0
        self.server_requests = 0
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.question)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.notes["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def proxy(self, role_name: str, role):
        return RoleProxy(self, role, ROLES[role_name])

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch the stage functions, requests.Session and the mock handler."""
        try:
            for module, name, span_name, note in STAGES:
                self._patch(module, name, self.wrap(span_name, _target(module, name), note))
            self._patch(
                requests.Session,
                "request",
                self.wrap("http.request", _target(requests.Session, "request"), _note_http),
            )
            init = _target(requests.Session, "__init__")

            @functools.wraps(init)
            def counting_init(session, *args, **kwargs):
                if self.question is not None:
                    self.sessions += 1
                init(session, *args, **kwargs)

            self._patch(requests.Session, "__init__", counting_init)
            handler = getattr(mockserver, "_Handler", None)
            if handler is None:
                raise RuntimeError("trace target ragmend.mockserver._Handler is gone")
            for method in ("do_GET", "do_POST"):
                self._patch(handler, method, self._count_served(_target(handler, method)))
        except BaseException:
            self.uninstall()
            raise

    def _count_served(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.server_requests += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def write(self, path: Path, header: dict) -> None:
        """Write the header and one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "question": span.question,
                            **span.notes,
                        }
                    )
                    + "\n"
                )


def _p50_ms(durations: list[float]) -> float:
    return 1000.0 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer: Tracer, questions: int, actions: list[str]) -> dict:
    """Per-layer metrics of one traced phase, per question where so named.

    Metrics of a layer that did no work read 0.
    """
    spans = tracer.spans
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    by_name: dict[str, list[int]] = defaultdict(list)
    self_s: Counter = Counter()
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
        own = span.duration - sum(child.duration for child in children[i])
        self_s[span.name.split(".", 1)[0]] += own

    def named(name):
        return [spans[i] for i in by_name[name]]

    def per_q(value):
        return value / questions

    def ms_per_q(name):
        return per_q(1000.0 * sum(s.duration for s in named(name)))

    http = named("http.request")
    routes = Counter(s.notes.get("route") for s in http)
    score_http = [s for s in http if s.notes.get("route") == "score"]

    scoring = named("scoring.score")
    pairs = sum(s.notes.get("pairs", 0) for s in scoring)
    retries = 0
    for i in by_name["scoring.score"]:
        sent = sum(1 for c in children[i] if c.name == "http.request")
        if sent:
            retries += sent - spans[i].notes.get("pairs", 0)

    filters = named("refinement.filter_strips")
    strips_in = sum(s.notes.get("strips_in", 0) for s in filters)
    kept = sum(s.notes.get("kept", 0) for s in filters)

    fetch_hit, fetch_miss, failures = [], [], 0
    for i in by_name["websearch.fetch"]:
        span = spans[i]
        if "error" in span.notes:
            failures += 1
        elif any(c.name == "http.request" for c in children[i]):
            fetch_miss.append(span.duration)
        else:
            fetch_hit.append(span.duration)
    fetched = len(fetch_hit) + len(fetch_miss)

    action_counts = Counter(actions)
    share = {a: action_counts[a] / len(actions) for a in ("Correct", "Ambiguous", "Incorrect")}

    return {
        "scoring.pairs_per_question": per_q(pairs),
        "scoring.busy_ms_per_question": ms_per_q("scoring.score"),
        "scoring.self_ms_per_question": per_q(1000.0 * self_s["scoring"]),
        "scoring.http_requests_per_question": per_q(routes["score"]),
        "scoring.http_request_p50_ms": _p50_ms([s.duration for s in score_http]),
        "scoring.retries": retries,
        "trigger.share_correct": share["Correct"],
        "trigger.share_ambiguous": share["Ambiguous"],
        "trigger.share_incorrect": share["Incorrect"],
        "refinement.refine_calls_per_question": per_q(len(by_name["refinement.refine"])),
        "refinement.refine_ms_per_question": ms_per_q("refinement.refine"),
        "refinement.segment_ms_per_question": ms_per_q("refinement.segment"),
        "refinement.filter_strips_ms_per_question": ms_per_q("refinement.filter_strips"),
        "refinement.self_ms_per_question": per_q(1000.0 * self_s["refinement"]),
        "refinement.strips_per_question": per_q(
            sum(s.notes.get("strips", 0) for s in named("refinement.segment"))
        ),
        "refinement.strips_kept_share": kept / strips_in if strips_in else 0.0,
        "websearch.search_calls_per_question": per_q(len(by_name["websearch.search"])),
        "websearch.rewrite_ms_per_question": ms_per_q("websearch.rewrite"),
        "websearch.search_ms_per_question": ms_per_q("websearch.search"),
        "websearch.fetch_ms_per_question": ms_per_q("websearch.fetch"),
        "websearch.fetch_miss_p50_ms": _p50_ms(fetch_miss),
        "websearch.fetch_hit_p50_ms": _p50_ms(fetch_hit),
        "websearch.cache_hit_share": len(fetch_hit) / fetched if fetched else 0.0,
        "websearch.extract_ms_per_question": ms_per_q("websearch.extract"),
        "websearch.select_ms_per_question": ms_per_q("websearch.select"),
        "websearch.self_ms_per_question": per_q(1000.0 * self_s["websearch"]),
        "websearch.fetch_failures": failures,
        "websearch.sessions_per_question": per_q(tracer.sessions),
        "pipeline.generate_ms_per_question": ms_per_q("pipeline.generate"),
        "pipeline.generator_http_requests_per_question": per_q(routes["generate"]),
        "pipeline.self_ms_per_question": per_q(1000.0 * self_s["pipeline"]),
        "pipeline.prompt_chars_per_question": per_q(
            sum(s.notes.get("prompt_chars", 0) for s in named("pipeline.generate"))
        ),
        "http.requests_per_question": per_q(len(http)),
        "http.self_ms_per_question": per_q(1000.0 * self_s["http"]),
        "mockserver.requests_per_question": per_q(tracer.server_requests),
        "trace.spans_per_question": per_q(len(spans)),
    }
