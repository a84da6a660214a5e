"""Fixture-backed HTTP server mocking the search, scorer, and generator wires.

Routes:
  GET  /search?q=...   -> {"results": [{"url", "title"}, ...]} from search.json
  POST /score          -> {"score": ...} by LexicalScorer
  POST /generate       -> {"text": ...}: "query: " and KeywordRewriter's keywords
                          for a rewrite prompt, the stub generator's answer otherwise
  GET  /page/<name>    -> HTML file from the pages/ directory

search.json is loaded and checked once; its URLs may hold the literal "{base}",
replaced with this server's own base URL so fixtures stay port-agnostic.

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

from .errors import InputError
from .pipeline import StubGenerator
from .prompts import REWRITE_PROMPT
from .scoring import LexicalScorer
from .websearch import KeywordRewriter

logger = logging.getLogger(__name__)

_REWRITE_HEAD, _REWRITE_TAIL = REWRITE_PROMPT.split("[question]")


def _load_search(path: Path) -> dict:
    """Read search.json, which must be UTF-8 JSON mapping each query to a list of
    objects with a string "url". A missing file serves no results."""
    if not path.exists():
        return {}
    try:
        table = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"{path} is not readable UTF-8 JSON: {exc}") from None
    if not isinstance(table, dict) or not all(
        isinstance(items, list)
        and all(isinstance(item, dict) and isinstance(item.get("url"), str) for item in items)
        for items in table.values()
    ):
        raise InputError(f"{path} must map each query to a list of objects with a string url")
    return table


class _BodyError(ValueError):
    """A request body that cannot be read to its declared end."""


class _Handler(BaseHTTPRequestHandler):
    # self.server carries .search, .pages_dir and .base_url, set by MockService.

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
        if parsed.path == "/search":
            query = parse_qs(parsed.query).get("q", [""])[0]
            self._send_json({"results": self.server.search.get(query, [])})
            return
        if parsed.path.startswith("/page/"):
            name = parsed.path[len("/page/") :]
            page = self.server.pages_dir / name
            if "/" in name or not page.is_file():
                self._send_json({"error": "not found"}, status=404)
                return
            self._send(page.read_bytes(), "text/html; charset=utf-8")
            return
        self._send_json({"error": "not found"}, status=404)

    def do_POST(self):
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
            self._send_json({"score": self._score(body)})
            return
        if self.path == "/generate":
            self._send_json({"text": self._generate(body)})
            return
        self._send_json({"error": "not found"}, status=404)

    @staticmethod
    def _score(body: dict) -> float:
        query = str(body.get("query", ""))
        return LexicalScorer().score_text(query, str(body.get("document", "")))

    @staticmethod
    def _generate(body: dict) -> str:
        prompt = str(body.get("prompt", ""))
        if prompt.startswith(_REWRITE_HEAD) and prompt.endswith(_REWRITE_TAIL):
            question = prompt[len(_REWRITE_HEAD) : len(prompt) - len(_REWRITE_TAIL)]
            return "query: " + ", ".join(KeywordRewriter().rewrite(question))
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
    """Owns the threaded HTTP server and its lifecycle. A refused search.json
    raises InputError before any socket is bound."""

    def __init__(self, fixtures_dir: Path, host: str = "127.0.0.1", port: int = 0):
        search = _load_search(Path(fixtures_dir) / "search.json")
        self._server = _Server((host, port), _Handler)
        host_out, port_out = self._server.server_address
        base = self._server.base_url = f"http://{host_out}:{port_out}"
        self._server.search = {
            query: [
                {"url": item["url"].replace("{base}", base), "title": item.get("title")}
                for item in items
            ]
            for query, items in search.items()
        }
        self._server.pages_dir = Path(fixtures_dir) / "pages"
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
