"""Live HTTP tests against the bundled mock service."""

import json
import socket
import threading
import time
from urllib.parse import urlparse

import pytest
import requests

from ragmend import mockserver
from ragmend.http_session import EnvCachedSession
from ragmend.mockserver import MockService
from ragmend.scoring import LexicalScorer, RemoteScorer, ScorerConfig


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
    def test_fixture_pair_wins(self, service):
        resp = requests.post(
            f"{service.base_url}/score",
            json={"query": "zzz-score-probe anything", "document": "whatever"},
            timeout=5,
        )
        assert resp.json() == {"score": 0.25}

    def test_falls_back_to_lexical(self, service):
        query = "capital of France"
        document = "The capital of France is Paris."
        resp = requests.post(
            f"{service.base_url}/score",
            json={"query": query, "document": document},
            timeout=5,
        )
        expected = LexicalScorer().score_text(query, document)
        assert resp.json()["score"] == pytest.approx(expected)

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
    def test_fixture_reply_wins(self, service):
        resp = requests.post(
            f"{service.base_url}/generate",
            json={"prompt": "say zzz-fixture-probe now", "max_tokens": 16},
            timeout=5,
        )
        assert resp.json() == {"text": "fixture reply"}

    def test_falls_back_to_stub(self, service):
        prompt = "Paris is the capital.\n\nQuestion: capital of France\nAnswer:"
        resp = requests.post(
            f"{service.base_url}/generate",
            json={"prompt": prompt, "max_tokens": 16},
            timeout=5,
        )
        assert resp.json() == {"text": "Paris is the capital."}


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

    def test_generate_default_key(self, tmp_path):
        (tmp_path / "generate.json").write_text(
            json.dumps({"replies": [], "default": "canned"}), encoding="utf-8"
        )
        with MockService(tmp_path) as svc:
            resp = requests.post(
                f"{svc.base_url}/generate", json={"prompt": "anything"}, timeout=5
            )
            assert resp.json() == {"text": "canned"}


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
            good = session.post(f"{service.base_url}/score", json={"query": "a", "document": "a"})
        assert bad.status_code == 400
        assert good.json() == {"score": 1.0}
        assert len(accepted) == 1


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

    def test_stop_without_start_returns(self, tmp_path):
        svc = MockService(tmp_path)
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2.0)
        assert not stopper.is_alive()
