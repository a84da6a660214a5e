"""Shared fixtures and test doubles."""

import json
import shutil
import socket
import subprocess
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import settings, strategies as st

from ragmend import mockserver
from ragmend.cli import default_fixtures_dir
from ragmend.errors import FetchError
from ragmend.harness import load_dataset
from ragmend.scoring import LexicalScorer, Scorer

# `scripts/uncovered.py` runs the suite with this profile: its line tracer slows
# an example several-fold, past hypothesis' default 200 ms deadline. Plain runs
# keep the default profile and its deadline.
settings.register_profile("traced", deadline=None)

# Any value a JSON document can hold, NaN and the infinities aside.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TableScorer(Scorer):
    """Scores a text by table lookup, so scores need not come from token overlap."""

    def __init__(self, table):
        self.table = table

    def score_text(self, query, document):
        return self.table[document]


class BoomScorer(Scorer):
    """Fails the test if any scoring happens."""

    def score_text(self, query, document):
        raise AssertionError("scorer used")

    def score_batch(self, query, texts):
        raise AssertionError("scorer used")


def selection_oracle(scores, threshold, top_k):
    """Positions `filter_strips` keeps: above threshold, top-k by score, earlier wins
    ties, re-sorted; with none above threshold, the single best."""
    passing = [i for i, s in enumerate(scores) if s > threshold]
    if not passing:
        return [min(range(len(scores)), key=lambda i: (-scores[i], i))]
    ranked = sorted(passing, key=lambda i: (-scores[i], i))[:top_k]
    return sorted(ranked)


class FakeResponse:
    """A canned requests-style response; `json()` parses the text, as in `requests`."""

    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        return json.loads(self.text)


class FakeSession:
    """Replays queued responses; an Exception in the queue is raised instead."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def _next(self):
        if not self.replies:
            raise AssertionError("FakeSession ran out of replies")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def post(self, url, json=None, timeout=None, headers=None):
        self.calls.append(("post", url, json))
        return self._next()

    def get(self, url, params=None, timeout=None, headers=None, allow_redirects=True):
        self.calls.append(("get", url, params, headers))
        return self._next()


class FakeWeb:
    """A search client double: canned URLs per query and page bodies per URL.

    Records every search query and every page fetch.
    """

    def __init__(self, results=None, pages=None):
        self.results = dict(results or {})
        self.pages = dict(pages or {})
        self.queries = []
        self.fetched = []

    def search(self, query):
        self.queries.append(query)
        return list(self.results.get(query, []))

    def fetch(self, url):
        self.fetched.append(url)
        if url not in self.pages:
            raise FetchError(url, "no such page")
        return self.pages[url]


class FixtureWeb:
    """In-memory stand-in for the mock web server, built from the fixture files."""

    def __init__(self, fixtures_dir: Path):
        raw = json.loads((fixtures_dir / "search.json").read_text("utf-8"))
        self.pages = {}
        self.search_map = {}
        for query, items in raw.items():
            results = []
            for item in items:
                name = item["url"].rsplit("/", 1)[-1]
                url = f"mock://web/{name}"
                self.pages[url] = (fixtures_dir / "pages" / name).read_text("utf-8")
                results.append(url)
            self.search_map[query] = results

    def search_client(self) -> FakeWeb:
        return FakeWeb(self.search_map, self.pages)


class _RouteHandler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):
        pass

    def _serve(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests.append((self.command, self.path, dict(self.headers)))
        status, headers, body = self.server.reply(self.path)
        data = body.encode("utf-8")
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(data))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _serve


@contextmanager
def http_server(reply, host="127.0.0.1", tls=None):
    """A server on a free port of `host` whose `reply(path)` gives each reply as
    (status, headers, body); its `requests` lists each (method, path, headers)
    it got and its `base_url` is where it listens. With `tls`, an
    `ssl.SSLContext` holding a certificate, it serves https. A host that cannot
    be bound skips the test: Linux loopback answers all of 127/8, other systems
    may not."""
    try:
        server = ThreadingHTTPServer((host, 0), _RouteHandler)
    except OSError as exc:
        pytest.skip(f"cannot bind {host}: {exc}")
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    server.daemon_threads = True
    server.reply, server.requests = reply, []
    server.base_url = f"{'https' if tls else 'http'}://{host}:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def silent_listener(host="127.0.0.1"):
    """A socket listening on a free port of `host` that accepts nothing, so a
    connection made to it waits in its queue: `listener.accept()` on the
    non-blocking socket raises BlockingIOError if none was made."""
    sock = socket.socket()
    try:
        sock.bind((host, 0))
    except OSError as exc:
        sock.close()
        pytest.skip(f"cannot bind {host}: {exc}")
    sock.listen(8)
    sock.setblocking(False)
    with sock:
        yield sock


@pytest.fixture(scope="session")
def tls_certificate(tmp_path_factory) -> tuple[Path, Path]:
    """A self-signed certificate for 127.0.0.1 and its key, as two files made
    with the openssl tool; without the tool the test is skipped."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl tool is not installed")
    cert, key = (tmp_path_factory.mktemp("tls") / name for name in ("cert.pem", "key.pem"))
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1"]
        + ["-nodes", "-days", "1", "-subj", "/CN=127.0.0.1"]
        + ["-addext", "subjectAltName=IP:127.0.0.1", "-keyout", key, "-out", cert],
        check=True,
        capture_output=True,
    )
    return cert, key


def redirect(status, location):
    """A `reply` for `http_server` that redirects every request to `location`."""
    return lambda path: (status, {"Location": location}, "")


def a_page(path):
    """A `reply` for `http_server` that answers every request with one paragraph."""
    return 200, {}, "<p>A page from elsewhere.</p>"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return default_fixtures_dir()


@pytest.fixture(scope="session")
def fixture_dataset(fixtures_dir):
    return load_dataset(fixtures_dir / "dataset_20.jsonl")


@pytest.fixture(scope="session")
def fixture_web(fixtures_dir) -> FixtureWeb:
    return FixtureWeb(fixtures_dir)


@pytest.fixture
def lexical() -> LexicalScorer:
    return LexicalScorer()


@pytest.fixture
def closed_port() -> int:
    """A loopback port that was just free, so a connection to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class WireCounts:
    """`requests.Session` objects built and mock-server connections accepted."""

    def __init__(self):
        self.sessions = []
        self.connections = []


@pytest.fixture
def wire_counts(monkeypatch) -> WireCounts:
    """Count through the hooks the benchmark trace uses, from now on."""
    counts = WireCounts()
    session_init = requests.Session.__init__
    handler_setup = mockserver._Handler.setup

    def counting_init(session, *args, **kwargs):
        counts.sessions.append(session)
        session_init(session, *args, **kwargs)

    def counting_setup(handler):
        counts.connections.append(handler.client_address)
        handler_setup(handler)

    monkeypatch.setattr(requests.Session, "__init__", counting_init)
    monkeypatch.setattr(mockserver._Handler, "setup", counting_setup)
    return counts


def pytest_runtest_logreport(report):
    """Print one PASS/FAIL line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if report.passed else 'FAIL'}")
