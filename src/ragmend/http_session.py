"""The HTTP session and the request policy every remote role uses.

A `requests.Session` already pools keep-alive connections per host. What it
does not keep is what it reads around each request. Before every request it
re-reads the proxy variables (`*_proxy`, `no_proxy`) and the CA-bundle
variables (`REQUESTS_CA_BUNDLE`, `CURL_CA_BUNDLE`), and it prepares the
request from scratch: it parses and requotes the URL, merges the default
headers and cookies, and reads the netrc file for credentials.
`EnvCachedSession` reads the environment once per host, and the netrc
credentials, default headers and prepared URL once per URL; a request with
`params` prepares only its URL again. On a 2-vCPU x86-64 host, preparing a
scorer POST took 0.20-0.31 ms in full and 0.02-0.03 ms as a copy of a stored
one, and a search GET 0.16-0.23 ms in full and 0.07-0.10 ms as a copy.

Below `requests`, urllib3 spends most of a loopback round trip on its own
per-request work: the pool lookup and checkout, its retry and timeout
objects, and its response wrapper. `KeepAliveAdapter`, which
`EnvCachedSession` mounts for `http://`, sends plain-http requests over
`http.client` keep-alive connections instead, by three rules:
- the head and a body leave in one write: `http.client` writes them apart,
  and under TCP_NODELAY each write is a segment the server wakes for;
- only a reply with a `Set-Cookie` or `Set-Cookie2` field gets a cookie pass;
- `EnvCachedSession.send` returns a reply that is not a redirect, sets no
  cookie and has no Content-Encoding without `requests`' redirect, cookie
  and body steps.
On the same host, over 6 runs of 3,000 `/score` POSTs to the mock server in
the same process, a loopback round trip had a p50 of 0.24-0.25 ms (0.28 ms in
one run), 0.28-0.29 ms without the three rules, and 0.47-0.97 ms over urllib3.

`request` is the one request loop of all five remote reads: the scorer,
generator, search, page fetch and rewriter.
"""

from __future__ import annotations

import io
import logging
import re
import threading
import time
import weakref
from datetime import timedelta
from http.client import HTTPConnection, HTTPException
from types import SimpleNamespace
from typing import Callable, Optional
from urllib.parse import urlsplit

import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter
from requests.cookies import extract_cookies_to_jar
from requests.exceptions import ChunkedEncodingError, ConnectTimeout, ReadTimeout
from requests.hooks import default_hooks
from requests.models import PreparedRequest
from requests.structures import CaseInsensitiveDict
from requests.utils import get_encoding_from_headers, select_proxy
from urllib3 import HTTPResponse
from urllib3.util import wait_for_read

from .errors import ConfigError, OfflineViolationError

logger = logging.getLogger(__name__)

# The hosts a session with `local_only` on may send to.
LOCAL_HOSTS = frozenset({"localhost", "127.0.0.1", "::1"})


def _sent_parts(url: str):
    """`urlsplit` of `url` as `requests` prepares it; a ValueError where it cannot."""
    prepared = PreparedRequest()
    prepared.prepare_headers(None)
    prepared.prepare_url(url, None)  # raises MissingSchema or InvalidURL, both ValueErrors
    prepared.prepare_auth(None)  # raises for a user name or password outside Latin-1
    return urlsplit(prepared.url)


def is_local_url(url: str) -> bool:
    return (_sent_parts(url).hostname or "") in LOCAL_HOSTS


# The largest timeout, in seconds, a config may set: one day. A much larger one
# (from ~9.2e9 s, or Infinity) overflows `socket.settimeout` on the first request.
MAX_TIMEOUT_S = 86400.0


def check_timeout(key: str, value: float) -> None:
    """Raise ConfigError naming `key` unless 0 < value <= MAX_TIMEOUT_S (NaN fails)."""
    if not 0 < value <= MAX_TIMEOUT_S:
        raise ConfigError(f"{key} must be > 0 and at most {MAX_TIMEOUT_S:g} s, got {value!r}")


def check_endpoint(key: str, value: Optional[str]) -> None:
    """Raise ConfigError naming `key` unless `value` is None or an http or https
    URL with a host, and a port in 0-65535 if it names one, as `requests` sends it."""
    if value is None:
        return
    try:
        parts = _sent_parts(value)
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"{key} must be an http or https URL with a host, got {value!r}")


def request(
    send: Callable[[], requests.Response],
    read: Callable[[requests.Response], object],
    *,
    what: str,
    error: Callable[[str], Exception],
    retries: int,
):
    """Send a request, retrying failures, and return `read` of the 200 reply.

    `send` makes one attempt. A transport error or a 5xx reply is retried
    after a 0.1 * 2**k s sleep before retry k+1, with one warning per retry;
    after `retries + 1` failed attempts `error` is raised, unlogged: its catcher
    logs it. A redirect loop (`TooManyRedirects`), any other
    non-200 reply, or a reply `read` rejects with ValueError, KeyError or
    TypeError (`malformed <what> reply: ...`), raises `error` at once.
    """
    last_error: object = None
    for attempt in range(retries + 1):
        if attempt:
            logger.warning(retried)
            time.sleep(0.1 * 2 ** (attempt - 1))
        try:
            resp = send()
        except requests.TooManyRedirects as exc:  # every attempt is redirected alike
            raise error(f"{what} unreachable after {attempt + 1} attempts: {exc}") from None
        except requests.RequestException as exc:
            last_error = exc
            retried = f"{what} request failed (attempt {attempt + 1}): {exc}"
            continue
        if resp.status_code >= 500:
            last_error = f"{what} returned {resp.status_code}"
            retried = f"{last_error} (attempt {attempt + 1})"
            continue
        if resp.status_code != 200:
            raise error(f"{what} returned {resp.status_code}: {resp.text[:200]}")
        try:
            return read(resp)
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"malformed {what} reply: {exc}") from exc
    raise error(f"{what} unreachable after {retries + 1} attempts: {last_error}")


# A request target that urllib3 sends as it is: unreserved and sub-delimiter
# characters, ":", "@", "/" (and "?" in the query), and upper-case percent
# escapes, with no "//" at its start. urllib3 re-encodes any other target.
_PLAIN_TARGET = re.compile(
    r"/(?!/)(?:[\w\-.~!$&'()*+,;=:@/]|%[0-9A-F]{2})*"
    r"(?:\?(?:[\w\-.~!$&'()*+,;=:@/?]|%[0-9A-F]{2})*)?",
    re.ASCII,
)


def _sets_cookie(headers) -> bool:
    """Whether a reply has one of the two fields the cookie jar reads."""
    return "Set-Cookie" in headers or "Set-Cookie2" in headers


class _OneWriteConnection(HTTPConnection):
    """An `HTTPConnection` that sends a request's head and bytes body in one
    write, so that under TCP_NODELAY they leave as one segment, not two."""

    def _send_output(self, message_body=None, encode_chunked=False):
        if type(message_body) is not bytes:
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        self.send(b"\r\n".join(self._buffer))
        del self._buffer[:]


class KeepAliveAdapter(HTTPAdapter):
    """Sends plain-http requests over standard-library keep-alive connections.

    It serves a request to an `http` URL with no proxy, `stream=False`, a
    positive number or None as timeout, no body or a bytes or str body with its
    Content-Length, a User-Agent header, and a target urllib3 sends as it is.
    Anything else (https, proxies, streaming, timeout tuples, file and generator
    bodies) goes to `HTTPAdapter.send`.

    At most `DEFAULT_POOLSIZE` idle connections are kept per (host, port). One
    is reused only if a zero-timeout readability check finds it open, as urllib3
    checks its pool, and no request is sent twice: retries stay with `request`.
    The head and a body go out in one write. A failure raises what the stock
    adapter raises. A reply with a Content-Encoding keeps a urllib3 response
    over its body as `raw`, so `requests` decodes it, or raises
    `ContentDecodingError`, as it does there. Only a reply with a `Set-Cookie`
    or `Set-Cookie2` field carries the `http.client` reply that `requests`
    reads cookies from, so on any other reply its cookie pass returns at once.
    """

    def __init__(self):
        super().__init__()
        self._idle: dict[tuple, list[HTTPConnection]] = {}
        self._lock = threading.Lock()
        # As urllib3's pools do, close the idle connections of an adapter nobody closed.
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        parts = urlsplit(request.url)
        target = f"{parts.path or '/'}?{parts.query}" if parts.query else parts.path or "/"
        body = request.body.encode() if isinstance(request.body, str) else request.body
        if (
            stream
            or parts.scheme != "http"
            or (proxies and select_proxy(request.url, proxies))
            or not (timeout is None or type(timeout) in (int, float) and timeout > 0)
            or not (body is None or type(body) is bytes and "Content-Length" in request.headers)
            or "User-Agent" not in request.headers
            or not _PLAIN_TARGET.fullmatch(target)
        ):
            return super().send(
                request, stream=stream, timeout=timeout, verify=verify, cert=cert, proxies=proxies
            )
        key = (parts.hostname, parts.port or HTTPConnection.default_port)
        conn = self._checkout(key) or _OneWriteConnection(*key, timeout=timeout)
        # The stock adapter's errors for a timeout and for any other failure, by phase.
        errors = ConnectTimeout, requests.ConnectionError
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.settimeout(timeout)
            errors = ReadTimeout, requests.ConnectionError
            conn.request(request.method, target, body, request.headers)
            reply = conn.getresponse()
            errors = requests.ConnectionError, ChunkedEncodingError
            content = reply.read()
        except TimeoutError as exc:
            conn.close()
            raise errors[0](f"{request.url}: {exc!r}", request=request)
        except (OSError, HTTPException) as exc:
            conn.close()
            raise errors[1](f"{request.url}: {exc!r}", request=request)
        if conn.sock is not None:  # None once the reply ended the connection
            self._checkin(key, conn)
        return self._response(request, reply, content)

    def _response(self, request, reply, content):
        # A repeated field is joined with ", " under its first name, as urllib3 joins it.
        fields = {}
        for name, value in reply.msg.items():
            first = fields.get(name.lower())
            fields[name.lower()] = (first[0], f"{first[1]}, {value}") if first else (name, value)
        response = requests.Response()
        response.status_code, response.reason = reply.status, reply.reason
        response.headers = CaseInsensitiveDict(fields.values())
        response.encoding = get_encoding_from_headers(response.headers)
        response.url, response.request, response.connection = request.url, request, self
        cookies = _sets_cookie(response.headers)
        if "Content-Encoding" in response.headers:
            response.raw = HTTPResponse(
                io.BytesIO(content),
                response.headers,
                reply.status,
                reason=reply.reason,
                preload_content=False,
                original_response=reply,
                request_method=request.method,
            )
        else:
            response.raw = SimpleNamespace(_original_response=reply if cookies else None)
            response._content, response._content_consumed = content, True
        if cookies:
            extract_cookies_to_jar(response.cookies, request, response.raw)
        return response

    def _checkout(self, key):
        """An idle connection to `key` that is still open, or None."""
        while True:
            with self._lock:
                if not self._idle.get(key):
                    return None
                conn = self._idle[key].pop()
            if not wait_for_read(conn.sock, timeout=0.0):
                return conn
            conn.close()

    def _checkin(self, key, conn):
        """Keep `conn` idle for `key`, or close it when `DEFAULT_POOLSIZE` already are."""
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if len(idle) < DEFAULT_POOLSIZE:
                idle.append(conn)
                return
        conn.close()

    def close(self):
        _close_idle(self._idle, self._lock)
        super().close()


def _close_idle(idle: dict, lock: threading.Lock) -> None:
    with lock:
        conns = [conn for kept in idle.values() for conn in kept]
        idle.clear()
    for conn in conns:
        conn.close()


class EnvCachedSession(requests.Session):
    """A `requests.Session` that reads the environment once per host and
    prepares each URL's request once.

    `merge_environment_settings` is cached per (scheme, host and port, stream,
    verify, cert) and the session's own proxies, stream, verify and cert.
    Requests with explicit proxies, and sessions with `trust_env` off, take
    the stock path.

    `prepare_request` is cached per (method, URL, request headers, session
    headers, `trust_env`, JSON body type, whether it has `params`). A request
    becomes a copy of its key's first stock-prepared request, with its own
    headers, cookie jar, hooks and JSON body; the stored request is never
    handed out. A request with `params` gets its own URL on the copy, from
    `requests`' `prepare_url` of its URL and params, so only the query is
    encoded again. A request with cookies, `auth`, `files`, form `data` or
    hooks takes the stock path, as does every request on a session with
    cookies (say, after a server set one), `auth`, `params` or hooks. So
    scorer, generator and rewriter POSTs, page GETs and search GETs are all
    copies.

    For a fixed environment and netrc file every result is the one `requests`
    computes. A proxy or CA-bundle variable changed after the session's first
    request to a host, or a netrc entry changed after its first request to a
    URL, is not seen, as with clients that read their settings when built.

    The session sends plain-http requests through a `KeepAliveAdapter`, which
    leaves the rest to `requests`' own adapter; `close` closes its idle
    connections. `send` returns the adapter's plain reply as it is; see there.

    With `local_only` on (`--offline`), `send`, which sends every request and
    every redirect hop, raises OfflineViolationError for a URL whose host is
    not in `LOCAL_HOSTS` before anything is sent, and sends the rest without
    a proxy or a `Proxy-Authorization` header.
    """

    # Bounds each cache, for a session that talks to many hosts or URLs.
    MAX_CACHED = 256
    local_only = False

    def __init__(self):
        super().__init__()
        self.mount("http://", KeepAliveAdapter())
        self._env_settings: dict = {}
        self._prepared: dict = {}

    def _remember(self, cache: dict, key, value) -> None:
        # Threads may race here; a lost insert costs one more stock computation.
        if len(cache) >= self.MAX_CACHED:
            cache.clear()
        cache[key] = value

    def prepare_request(self, request):
        if (
            request.data
            or request.files
            or request.cookies
            or request.auth
            or any(request.hooks.values())
            or self.params
            or self.cookies
            or self.auth
            or any(self.hooks.values())
        ):
            return super().prepare_request(request)
        key = (
            request.method,
            request.url,
            tuple(request.headers.items()),
            tuple(self.headers.items()),
            self.trust_env,
            # Only a JSON body sets Content-Type; its type tells None from a body.
            type(request.json),
            # A stored URL carries the query of the params it was prepared with.
            bool(request.params),
        )
        try:
            stored = self._prepared.get(key)
        except TypeError:  # an unhashable header value; `requests` says which
            return super().prepare_request(request)
        if stored is None:
            stored = super().prepare_request(request)
            self._remember(self._prepared, key, stored)
        prepared = stored.copy()
        prepared.hooks = default_hooks()
        if request.params:
            prepared.prepare_url(request.url, request.params)
        prepared.prepare_body(None, None, request.json)
        return prepared

    def send(self, request, **kwargs):
        """`requests.Session.send`, without the steps that do nothing on a plain reply.

        A prepared request with proxies given (as `request` gives them), no
        hooks and no `stream`, whose adapter is a `KeepAliveAdapter`, is sent
        here. Its reply gets `elapsed`, and is returned as it is when its body
        is read and it is neither a redirect nor sets a cookie. Any other reply
        gets `requests`' own steps: cookies, redirects (or `next`) and the body.
        Every other request takes the stock `send`.
        """
        if self.local_only:
            if not is_local_url(request.url):
                raise OfflineViolationError(f"offline mode forbids sending to {request.url}")
            # `resolve_redirects` gives a hop the environment proxy's credentials.
            request.headers.pop("Proxy-Authorization", None)
            kwargs["proxies"] = {}
        if (
            not isinstance(request, PreparedRequest)
            or any(request.hooks.values())
            or "proxies" not in kwargs
            or kwargs.get("stream", self.stream)
            or not isinstance(adapter := self.get_adapter(url=request.url), KeepAliveAdapter)
        ):
            return super().send(request, **kwargs)
        allow_redirects = kwargs.pop("allow_redirects", True)
        kwargs.setdefault("verify", self.verify)
        kwargs.setdefault("cert", self.cert)
        start = time.perf_counter()
        r = adapter.send(request, **kwargs)
        r.elapsed = timedelta(seconds=time.perf_counter() - start)
        if r._content_consumed and not r.is_redirect and not _sets_cookie(r.headers):
            return r
        extract_cookies_to_jar(self.cookies, request, r.raw)
        if allow_redirects:
            history = list(self.resolve_redirects(r, request, **kwargs))
            if history:
                history.insert(0, r)
                r = history.pop()
                r.history = history
        else:
            try:
                r._next = next(self.resolve_redirects(r, request, yield_requests=True, **kwargs))
            except StopIteration:
                pass
        r.content  # reads the body, as `requests` does unless streaming
        return r

    def merge_environment_settings(self, url, proxies, stream, verify, cert):
        if proxies or not self.trust_env:
            return super().merge_environment_settings(url, proxies, stream, verify, cert)
        parts = urlsplit(url)
        key = (
            parts.scheme,
            parts.netloc,
            stream,
            verify,
            cert,
            self.stream,
            self.verify,
            self.cert,
            tuple(self.proxies.items()),
        )
        settings = self._env_settings.get(key)
        if settings is None:
            settings = super().merge_environment_settings(url, {}, stream, verify, cert)
            self._remember(self._env_settings, key, settings)
        # Callers may mutate what they get back; the cached entry stays intact.
        return {**settings, "proxies": settings["proxies"].copy()}
