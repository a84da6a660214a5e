"""The names the benchmark reaches into still exist.

`benchmarks/measure.py` builds the roles from the flat `generator_*` and
`rewriter_endpoint` config fields, and `benchmarks/tracing.py` wraps the
three scorer methods and patches stage functions by module-level name.
`measure.py` calls `pipeline.run` with seven positional arguments. A rename
or a signature change in the program would only fail the benchmark run;
this fails here. No request is sent.

`tracing.py` also counts HTTP requests by patching `requests.Session.request`
on the class, so the role session must not override the methods that reach
it: an override would bypass the patch and read as zero requests. One test
sends real requests to the mock server, so that a change below
`Session.request` cannot change what the traced benchmark counts.
"""

import inspect
import sys
from pathlib import Path

import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import measure  # noqa: E402
import tracing  # noqa: E402

from ragmend import build_roles, pipeline  # noqa: E402
from ragmend.config import load_config  # noqa: E402
from ragmend.http_session import EnvCachedSession  # noqa: E402
from ragmend.mockserver import MockService  # noqa: E402
from ragmend.scoring import RemoteScorer, ScorerConfig  # noqa: E402

BASE = "http://127.0.0.1:9"


def remote_config():
    return load_config(
        None,
        [
            f"search.endpoint={BASE}/search",
            "scorer.kind=remote",
            f"scorer.endpoint={BASE}/score",
            f"generator.endpoint={BASE}/generate",
            f"rewriter.endpoint={BASE}/generate",
        ],
    )


def test_measure_builds_the_roles_ragmend_builds():
    cfg = remote_config()
    ours = build_roles(cfg)
    theirs = measure.build_roles(cfg)
    assert set(theirs) == set(ours)
    for name, role in theirs.items():
        assert type(role) is type(ours[name])
        assert {k: v for k, v in vars(role).items() if k != "session"} == {
            k: v for k, v in vars(ours[name]).items() if k != "session"
        }


def test_tracer_proxies_every_role_and_patches_every_stage():
    roles = measure.build_roles(remote_config())
    tracer = tracing.Tracer()
    for name, role in roles.items():
        assert role is not None
        tracer.proxy(name, role)
    original = pipeline.refine
    tracer.install()
    try:
        assert pipeline.refine is not original
    finally:
        tracer.uninstall()
    assert pipeline.refine is original


def test_role_session_keeps_the_traced_request_method():
    assert {"request", "get", "post"}.isdisjoint(vars(EnvCachedSession))
    roles = measure.build_roles(remote_config())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = requests.Session.request
        assert all(type(role.session).request is patched for role in roles.values())
    finally:
        tracer.uninstall()


def test_traced_scorer_call_has_one_request_span_per_pair(fixtures_dir):
    tracer = tracing.Tracer()
    with MockService(fixtures_dir) as svc:
        config = ScorerConfig(kind="remote", endpoint=f"{svc.base_url}/score")
        scorer = tracer.proxy("scorer", RemoteScorer(config))
        tracer.install()
        try:
            scores = scorer.score_batch("capital of France", ["Paris", "France", "Lyon"])
        finally:
            tracer.uninstall()
            scorer.session.close()
    assert len(scores) == 3
    [scoring] = [i for i, span in enumerate(tracer.spans) if span.name == "scoring.score"]
    http = [span for span in tracer.spans if span.name == "http.request"]
    assert [(span.notes["route"], span.parent) for span in http] == [("score", scoring)] * 3
    assert tracing.layer_metrics(tracer, 1, ["Correct"])["scoring.retries"] == 0


def test_run_takes_the_benchmark_positional_call():
    params = inspect.signature(pipeline.run).parameters
    positional = [
        name
        for name, p in params.items()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    assert positional == [
        "question",
        "docs",
        "cfg",
        "scorer",
        "search_client",
        "rewriter",
        "generator",
    ]
    assert params["mode"].default == "crag"
