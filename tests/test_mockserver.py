"""Live HTTP tests against the bundled mock service."""

import importlib.util
import json
import logging
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

import pytest
import requests
from hypothesis import assume, example, given, strategies as st

from ragmend import build_roles, mockserver
from ragmend.config import load_config
from ragmend.errors import InputError
from ragmend.harness import degrade
from ragmend.http_session import EnvCachedSession
from ragmend.mockserver import MockService
from ragmend.pipeline import RemoteRewriter, StubGenerator, run
from ragmend.prompts import REWRITE_PROMPT, fill
from ragmend.scoring import LexicalScorer, Query, RemoteScorer, ScorerConfig
from ragmend.websearch import KeywordRewriter, rewrite


@pytest.fixture(scope="module")
def service(fixtures_dir):
    with MockService(fixtures_dir) as svc:
        yield svc


class TestSearchRoute:
    def test_known_query_substitutes_base(self, service):
        resp = requests.get(
            f"{service.base_url}/search",
            params={"q": "What is the capital city of France?"},
            timeout=5,
        )
        assert resp.status_code == 200
        results = resp.json()["results"]
        assert len(results) == 1
        assert results[0]["url"] == f"{service.base_url}/page/q01.html"
        assert "{base}" not in results[0]["url"]

    def test_unknown_query_empty(self, service):
        resp = requests.get(
            f"{service.base_url}/search", params={"q": "zzz nothing"}, timeout=5
        )
        assert resp.json() == {"results": []}

    def test_missing_q_param(self, service):
        resp = requests.get(f"{service.base_url}/search", timeout=5)
        assert resp.status_code == 200
        assert resp.json() == {"results": []}


class TestPageRoute:
    def test_serves_fixture_page(self, service):
        resp = requests.get(f"{service.base_url}/page/q01.html", timeout=5)
        assert resp.status_code == 200
        assert "text/html" in resp.headers["Content-Type"]
        assert "<p>" in resp.text

    def test_unknown_page_404(self, service):
        resp = requests.get(f"{service.base_url}/page/nope.html", timeout=5)
        assert resp.status_code == 404

    def test_no_path_traversal(self, service):
        resp = requests.get(
            f"{service.base_url}/page/..%2Fsearch.json", timeout=5
        )
        assert resp.status_code == 404


class TestScoreRoute:
    def test_falls_back_to_lexical(self, service):
        document = "The capital of France is Paris."
        for query in ("capital of France", "zzz-score-probe capital"):
            resp = requests.post(
                f"{service.base_url}/score",
                json={"query": query, "document": document},
                timeout=5,
            )
            assert resp.json() == {"score": LexicalScorer().score_text(query, document)}

    def test_invalid_body_400(self, service):
        resp = requests.post(
            f"{service.base_url}/score",
            data="{broken",
            headers={"Content-Type": "application/json"},
            timeout=5,
        )
        assert resp.status_code == 400

    @pytest.mark.parametrize("route", ["/score", "/generate"])
    def test_non_object_body_400(self, service, route):
        resp = requests.post(f"{service.base_url}{route}", json=["a"], timeout=5)
        assert resp.status_code == 400


class TestGenerateRoute:
    def test_falls_back_to_stub(self, service):
        replies = {
            "Paris is the capital.\n\nQuestion: capital of France\nAnswer:": (
                "Paris is the capital."
            ),
            "Lyon.\nzzz-fixture-probe here.\n\nQuestion: zzz-fixture-probe\nAnswer:": (
                "zzz-fixture-probe here."
            ),
            "say zzz-fixture-probe now": "UNKNOWN",
        }
        for prompt, text in replies.items():
            resp = requests.post(
                f"{service.base_url}/generate",
                json={"prompt": prompt, "max_tokens": 16},
                timeout=5,
            )
            assert resp.json() == {"text": text} == {"text": StubGenerator().generate(prompt)}


@pytest.fixture(scope="module")
def remote_rewriter(service):
    return RemoteRewriter(f"{service.base_url}/generate", timeout=5)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


WORDS = ["What", "is", "the", "of", "Magic", "Flute", "city,", "Paris?", "zzz-fixture-probe"]
QUESTIONS = st.text(max_size=30) | st.lists(
    st.sampled_from(WORDS) | st.text(max_size=6), max_size=6
).map(" ".join)


class TestRewritePrompt:
    def test_rewrite_prompt_gets_query_line(self, service):
        resp = requests.post(
            f"{service.base_url}/generate",
            json={
                "prompt": fill(REWRITE_PROMPT, question="What is Henry Feilden's occupation?")
            },
            timeout=5,
        )
        assert resp.json() == {"text": "query: Henry Feilden, occupation"}

    def test_rewrite_head_without_tail_is_no_rewrite(self, service):
        prompt = mockserver._REWRITE_HEAD + "What is Henry Feilden's occupation?"
        resp = requests.post(f"{service.base_url}/generate", json={"prompt": prompt}, timeout=5)
        assert resp.json() == {"text": "UNKNOWN"}

    @given(QUESTIONS)
    @example("What, is, it?")
    @example("How far is 1,000 km from Oslo?")
    def test_remote_rewriter_matches_keyword_rewriter(self, remote_rewriter, question):
        try:
            query = Query(question)
        except ValueError:
            assume(False)
        expected = KeywordRewriter().rewrite(query.text)
        warnings = _Warnings()
        logger = logging.getLogger("ragmend")
        level = logger.level
        logger.setLevel(logging.WARNING)
        logger.addHandler(warnings)
        try:
            # The mock sends "query: " and the keywords joined by ", ".
            parts = remote_rewriter.rewrite(query.text)
            assert [part.strip() for part in parts] == (expected or [""])
            assert rewrite(query, remote_rewriter) == rewrite(query)
        finally:
            logger.removeHandler(warnings)
            logger.setLevel(level)
        assert warnings.records == []


class TestUnknownRoutes:
    def test_get_404(self, service):
        assert requests.get(f"{service.base_url}/nope", timeout=5).status_code == 404

    def test_post_404(self, service):
        resp = requests.post(f"{service.base_url}/nope", json={}, timeout=5)
        assert resp.status_code == 404


class TestFixtureFallbacks:
    def test_empty_dir_still_serves(self, tmp_path):
        with MockService(tmp_path) as svc:
            resp = requests.get(f"{svc.base_url}/search", params={"q": "x"}, timeout=5)
            assert resp.json() == {"results": []}
            resp = requests.post(
                f"{svc.base_url}/generate", json={"prompt": "free text"}, timeout=5
            )
            assert resp.json() == {"text": "UNKNOWN"}


_WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


class TestSearchFixture:
    """search.json is checked once, when the service is built."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"{bad",
            b"\xff{}",
            b'["x"]',
            b'{"q": "x"}',
            b'{"q": ["x"]}',
            b'{"q": [{"title": "t"}]}',
            b'{"q": [{"url": 5}]}',
            b'{"ok": [{"url": "u"}], "q": [{"url": "u"}, null]}',
        ],
        ids=[
            "not-json",
            "not-utf-8",
            "not-an-object",
            "results-not-a-list",
            "result-not-an-object",
            "no-url",
            "url-not-a-string",
            "one-bad-result",
        ],
    )
    def test_refused_before_any_socket_listens(self, tmp_path, closed_port, raw):
        (tmp_path / "search.json").write_bytes(raw)
        with pytest.raises(InputError, match="search.json"):
            MockService(tmp_path, port=closed_port)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", closed_port), timeout=5).close()

    def test_unreadable_file_refused(self, tmp_path):
        (tmp_path / "search.json").mkdir()
        with pytest.raises(InputError, match="search.json"):
            MockService(tmp_path)

    def test_title_passes_through(self, tmp_path):
        table = {"q": [{"url": "{base}/a", "title": 3}, {"url": "http://x/{base}"}]}
        (tmp_path / "search.json").write_text(json.dumps(table), "utf-8")
        with MockService(tmp_path) as svc:
            resp = requests.get(f"{svc.base_url}/search", params={"q": "q"}, timeout=5)
        assert resp.json() == {
            "results": [
                {"url": f"{svc.base_url}/a", "title": 3},
                {"url": f"http://x/{svc.base_url}", "title": None},
            ]
        }

    @pytest.mark.parametrize("workload", ["web-fallback", "remote-mixed"])
    def test_benchmark_fixtures_load(self, tmp_path, workload):
        spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workloads.generate(workload, 1, tmp_path)
        table = json.loads((tmp_path / "fixtures" / "search.json").read_text("utf-8"))
        query, items = next(iter(table.items()))
        with MockService(tmp_path / "fixtures") as svc:
            resp = requests.get(f"{svc.base_url}/search", params={"q": query}, timeout=5)
            urls = [item["url"] for item in resp.json()["results"]]
            assert urls == [item["url"].replace("{base}", svc.base_url) for item in items]
            assert requests.get(urls[0], timeout=5).status_code == 200


@pytest.fixture
def accepted(monkeypatch):
    """Client addresses of the connections the mock server accepts."""
    seen = []
    setup = mockserver._Handler.setup

    def counting_setup(handler):
        seen.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(mockserver._Handler, "setup", counting_setup)
    return seen


def _raw_exchange(base_url: str, data: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    url = urlparse(base_url)
    chunks = []
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(data)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


SMUGGLED = b"GET /search?q=x HTTP/1.1\r\nHost: mock\r\n\r\n"


class TestKeepAlive:
    def test_scorer_posts_share_one_connection(self, service, accepted):
        scorer = RemoteScorer(ScorerConfig(kind="remote", endpoint=f"{service.base_url}/score"))
        try:
            scores = [scorer.score_text("capital of France", f"France doc {i}") for i in range(20)]
        finally:
            scorer.session.close()
        assert len(scores) == 20
        assert len(accepted) == 1

    @pytest.mark.parametrize(
        "headers",
        [b"", b"Content-Length: abc\r\n", b"Content-Length: -1\r\n"],
        ids=["missing", "not-a-number", "negative"],
    )
    def test_unreadable_body_closes_connection(self, service, headers):
        request = b"POST /score HTTP/1.1\r\nHost: mock\r\n" + headers + b"\r\n"
        reply = _raw_exchange(service.base_url, request + SMUGGLED)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        # The bytes after the headers were never parsed as a second request.
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_short_body_closes_connection(self, service):
        request = b"POST /score HTTP/1.1\r\nHost: mock\r\nContent-Length: 50\r\n\r\n{}"
        url = urlparse(service.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply

    def test_invalid_json_keeps_connection(self, service, accepted):
        with EnvCachedSession() as session:
            bad = session.post(f"{service.base_url}/score", data="{broken")
            # requests sends an empty body with Content-Length: 0.
            empty = session.post(f"{service.base_url}/score")
            good = session.post(f"{service.base_url}/score", json={"query": "a", "document": "a"})
        assert bad.status_code == empty.status_code == 400
        assert empty.json() == {"error": "invalid JSON"}
        assert good.json() == {"score": 1.0}
        assert len(accepted) == 1


@pytest.fixture
def scored(monkeypatch):
    """The (query, document) of each `/score` request the mock server answers."""
    seen = []
    score = mockserver._Handler._score

    def counting_score(body):
        seen.append((body["query"], body["document"]))
        return score(body)

    monkeypatch.setattr(mockserver._Handler, "_score", staticmethod(counting_score))
    return seen


@pytest.fixture(scope="module")
def remote_scorer(service):
    scorer = RemoteScorer(ScorerConfig(kind="remote", endpoint=f"{service.base_url}/score"))
    yield scorer
    scorer.session.close()


class BatchCountingScorer(RemoteScorer):
    """A remote scorer that records the number of texts in each `score_batch` call."""

    def __init__(self, config):
        super().__init__(config)
        self.batches = []

    def score_batch(self, query, texts):
        self.batches.append(len(texts))
        return super().score_batch(query, texts)


# JSON-encodable text: no lone surrogate.
_WIRE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


class TestPerPairScoreWire:
    """The remote scorer sends one `/score` request per pair, and `run` makes one
    `score_batch` call per scoring stage: documents, strips, page paragraphs.
    The traced benchmark counts one `/score` request per scored pair."""

    @pytest.mark.parametrize(
        "p, overrides, action, stages",
        [
            (0.0, [], "Correct", 2),
            (1.0, [], "Incorrect", 2),
            (0.0, ["ablations.only_action=Ambiguous"], "Ambiguous", 3),
        ],
    )
    def test_run_sends_one_request_per_pair(
        self, service, scored, fixture_dataset, tmp_path, p, overrides, action, stages
    ):
        base = service.base_url
        cfg = load_config(
            None,
            [
                "scorer.kind=remote",
                f"scorer.endpoint={base}/score",
                f"search.endpoint={base}/search",
                f"search.cache_dir={tmp_path}",
                *overrides,
            ],
        )
        roles = build_roles(cfg)
        scorer = BatchCountingScorer(cfg.scorer)
        (instance,) = degrade(fixture_dataset[:1], p, 0)
        try:
            record = run(
                instance.question,
                instance.docs,
                cfg,
                scorer,
                roles["search_client"],
                roles["rewriter"],
                roles["generator"],
            )
        finally:
            scorer.session.close()
        assert record.action.value == action
        assert len(scorer.batches) == stages
        assert scorer.batches[0] == len(instance.docs)
        assert all(scorer.batches)
        assert len(scored) == sum(scorer.batches)

    def test_empty_batch_sends_nothing(self, remote_scorer, scored):
        assert remote_scorer.score_batch("capital of France", []) == []
        assert scored == []
        texts = ["Paris is the capital of France", "Lyon"]
        assert remote_scorer.score_batch("capital of France", texts) == [1.0, -1.0]
        assert scored == [("capital of France", text) for text in texts]

    @given(
        st.builds(str.__add__, st.sampled_from(["", "zzz-score-probe "]), _WIRE_TEXT),
        st.lists(_WIRE_TEXT, max_size=5),
    )
    def test_batch_equals_score_text(self, remote_scorer, query, texts):
        scores = remote_scorer.score_batch(query, texts)
        assert scores == [remote_scorer.score_text(query, t) for t in texts]
        assert scores == [LexicalScorer().score_text(query, t) for t in texts]


class TestStop:
    def test_stop_ends_held_connections(self, tmp_path):
        svc = MockService(tmp_path).start()
        session = EnvCachedSession()
        try:
            session.post(f"{svc.base_url}/score", json={"query": "a", "document": "b"}, timeout=5)
            t0 = time.monotonic()
            svc.stop()
            assert time.monotonic() - t0 < 2.0
            with pytest.raises(requests.ConnectionError):
                session.post(
                    f"{svc.base_url}/score", json={"query": "a", "document": "b"}, timeout=2
                )
        finally:
            session.close()

    def test_idle_stop_is_quick(self, tmp_path):
        svc = MockService(tmp_path).start()
        t0 = time.monotonic()
        svc.stop()
        assert time.monotonic() - t0 < 0.25

    def test_close_connections_skips_a_closed_socket(self, tmp_path):
        # _Server.close_connections: a handler thread may close its socket first
        svc = MockService(tmp_path)
        closed = socket.socket()
        closed.close()
        svc._server._open.add(closed)
        try:
            svc._server.close_connections()
        finally:
            svc.stop()

    def test_stop_without_start_returns(self, tmp_path):
        svc = MockService(tmp_path)
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2.0)
        assert not stopper.is_alive()
