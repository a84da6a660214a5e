"""Fixture-backed HTTP server mocking the search, scorer, and generator wires.

Routes:
  GET  /search?q=...   -> {"results": [{"url", "title"}, ...]} from search.json
  POST /score          -> {"score": ...} from score.json or the lexical formula
  POST /generate       -> {"text": ...} from generate.json or the stub generator;
                          "query: " and KeywordRewriter's keywords for a rewrite prompt
  GET  /page/<name>    -> HTML file from the pages/ directory

URLs in search.json may contain the literal "{base}", replaced with this
server's own base URL so fixtures stay port-agnostic.

The server speaks HTTP/1.1 with keep-alive: a client session sends all its
requests over one connection, served by one thread.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .pipeline import StubGenerator
from .prompts import REWRITE_PROMPT
from .scoring import LexicalScorer
from .websearch import KeywordRewriter

logger = logging.getLogger(__name__)

_REWRITE_HEAD, _REWRITE_TAIL = REWRITE_PROMPT.split("[question]")


class _Fixtures:
    """A fixtures directory: its JSON files are loaded when this is built, and
    its pages are read on each request."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.search = self._load_json("search.json") or {}
        self.generate = self._load_json("generate.json")
        self.score = self._load_json("score.json")
        self.pages_dir = self.root / "pages"

    def _load_json(self, name: str) -> Optional[dict]:
        path = self.root / name
        if not path.exists():
            return None
        return json.loads(path.read_text("utf-8"))


class _BodyError(ValueError):
    """A request body that cannot be read to its declared end."""


class _Handler(BaseHTTPRequestHandler):
    # self.server carries .fixtures and .base_url, set by MockService.

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; without TCP_NODELAY, Nagle plus
    # the client's delayed ACK can hold each keep-alive reply back ~40 ms.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):
        logger.debug("mockserver: " + format, *args)

    def _send(self, body: bytes, content_type: str, status: int = 200):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200):
        self._send(json.dumps(payload).encode("utf-8"), "application/json", status)

    def _read_json_body(self) -> dict:
        """Read exactly Content-Length bytes and parse them as a JSON object.

        Raises _BodyError when the body's end is unknown or never arrives;
        the connection must then close, or leftover bytes would be parsed as
        the next request.
        """
        try:
            length = int(self.headers["Content-Length"])
        except (KeyError, TypeError, ValueError):
            raise _BodyError("missing or invalid Content-Length") from None
        if length < 0:
            raise _BodyError("negative Content-Length")
        raw = self.rfile.read(length)
        if len(raw) != length:
            raise _BodyError("body shorter than Content-Length")
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("JSON body is not an object")
        return payload

    def do_GET(self):
        parsed = urlparse(self.path)
        fixtures = self.server.fixtures
        if parsed.path == "/search":
            query = parse_qs(parsed.query).get("q", [""])[0]
            results = fixtures.search.get(query, [])
            base = self.server.base_url
            out = [
                {
                    "url": item["url"].replace("{base}", base),
                    "title": item.get("title"),
                }
                for item in results
            ]
            self._send_json({"results": out})
            return
        if parsed.path.startswith("/page/"):
            name = parsed.path[len("/page/") :]
            page = fixtures.pages_dir / name
            if "/" in name or not page.is_file():
                self._send_json({"error": "not found"}, status=404)
                return
            self._send(page.read_bytes(), "text/html; charset=utf-8")
            return
        self._send_json({"error": "not found"}, status=404)

    def do_POST(self):
        fixtures = self.server.fixtures
        try:
            body = self._read_json_body()
        except _BodyError as exc:
            self.close_connection = True
            self._send_json({"error": str(exc)}, status=400)
            return
        except ValueError:
            self._send_json({"error": "invalid JSON"}, status=400)
            return
        if self.path == "/score":
            self._send_json({"score": self._score(body, fixtures)})
            return
        if self.path == "/generate":
            self._send_json({"text": self._generate(body, fixtures)})
            return
        self._send_json({"error": "not found"}, status=404)

    @staticmethod
    def _score(body: dict, fixtures: _Fixtures) -> float:
        query = str(body.get("query", ""))
        document = str(body.get("document", ""))
        if fixtures.score:
            for pair in fixtures.score.get("pairs", []):
                if pair.get("query_contains", "") in query and (
                    pair.get("document_contains", "") in document
                ):
                    return pair["score"]
        return LexicalScorer().score_text(query, document)

    @staticmethod
    def _generate(body: dict, fixtures: _Fixtures) -> str:
        prompt = str(body.get("prompt", ""))
        if prompt.startswith(_REWRITE_HEAD) and prompt.endswith(_REWRITE_TAIL):
            question = prompt[len(_REWRITE_HEAD) : len(prompt) - len(_REWRITE_TAIL)]
            return "query: " + ", ".join(KeywordRewriter().rewrite(question))
        if fixtures.generate:
            for reply in fixtures.generate.get("replies", []):
                if reply.get("contains", "") in prompt:
                    return reply["text"]
            if "default" in fixtures.generate:
                return fixtures.generate["default"]
        return StubGenerator().generate(prompt)


class _Server(ThreadingHTTPServer):
    """Threaded server that can close the keep-alive connections it holds."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection; each handler thread then sees EOF and exits."""
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


# How often serve_forever checks for shutdown; stop() waits up to this long.
_POLL_INTERVAL_S = 0.05


class MockService:
    """Owns the threaded HTTP server and its lifecycle."""

    def __init__(self, fixtures_dir: Path, host: str = "127.0.0.1", port: int = 0):
        self._server = _Server((host, port), _Handler)
        self._server.fixtures = _Fixtures(fixtures_dir)
        host_out, port_out = self._server.server_address
        self._server.base_url = f"http://{host_out}:{port_out}"
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        return self._server.base_url

    def start(self) -> "MockService":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        """Stop serving and end the connections clients still hold open."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join()
            self._thread = None
        self._server.server_close()
        self._server.close_connections()

    def serve_forever(self):
        try:
            self._server.serve_forever(poll_interval=_POLL_INTERVAL_S)
        finally:
            self._server.server_close()
            self._server.close_connections()

    def __enter__(self) -> "MockService":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
