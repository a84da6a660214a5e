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
one, a search GET 0.16-0.23 ms in full and 0.07-0.10 ms as a copy, and a
loopback `/score` round trip had a p50 of 1.23 ms with full preparation and
0.95 ms with copies.

`request` is the one request loop of all five remote reads: the scorer,
generator, search, page fetch and rewriter.
"""

from __future__ import annotations

import logging
import time
from typing import Callable
from urllib.parse import urlsplit

import requests
from requests.hooks import default_hooks

from .errors import ConfigError

logger = logging.getLogger(__name__)

# The largest timeout, in seconds, a config may set: one day. A much larger one
# (from ~9.2e9 s, or Infinity) overflows `socket.settimeout` on the first request.
MAX_TIMEOUT_S = 86400.0


def check_timeout(key: str, value: float) -> None:
    """Raise ConfigError naming `key` unless 0 < value <= MAX_TIMEOUT_S (NaN fails)."""
    if not 0 < value <= MAX_TIMEOUT_S:
        raise ConfigError(f"{key} must be > 0 and at most {MAX_TIMEOUT_S:g} s, got {value!r}")


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
    logs it. Any other non-200 reply, or a reply `read` rejects with ValueError,
    KeyError or TypeError (`malformed <what> reply: ...`), raises `error` at once.
    """
    last_error: object = None
    for attempt in range(retries + 1):
        if attempt:
            logger.warning(retried)
            time.sleep(0.1 * 2 ** (attempt - 1))
        try:
            resp = send()
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


def read_text(resp: requests.Response) -> str:
    """The `text` of a `{"text": str}` reply, the generator's and the rewriter's wire."""
    text = resp.json()["text"]
    if not isinstance(text, str):
        raise TypeError(f"text is not a string: {text!r}")
    return text


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
    """

    # Bounds each cache, for a session that talks to many hosts or URLs.
    MAX_CACHED = 256

    def __init__(self):
        super().__init__()
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
