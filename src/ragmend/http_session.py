"""The HTTP session and the request policy every remote role uses.

A `requests.Session` already pools keep-alive connections per host. What it
does not keep is the environment: before every request it re-reads the proxy
variables (`*_proxy`, `no_proxy`) and the CA-bundle variables
(`REQUESTS_CA_BUNDLE`, `CURL_CA_BUNDLE`), a cost on the order of a loopback
round trip. `EnvCachedSession` reads them once per host instead.

`request_json` is the one retry-and-parse loop of the scorer, generator,
search client and rewriter.
"""

from __future__ import annotations

import logging
import time
from typing import Callable
from urllib.parse import urlsplit

import requests

from .errors import ConfigError

logger = logging.getLogger(__name__)

# The largest timeout, in seconds, a config may set: one day. A much larger one
# (from ~9.2e9 s, or Infinity) overflows `socket.settimeout` on the first request.
MAX_TIMEOUT_S = 86400.0


def check_timeout(key: str, value: float) -> None:
    """Raise ConfigError naming `key` unless 0 < value <= MAX_TIMEOUT_S (NaN fails)."""
    if not 0 < value <= MAX_TIMEOUT_S:
        raise ConfigError(f"{key} must be > 0 and at most {MAX_TIMEOUT_S:g} s, got {value!r}")


def request_json(
    send: Callable[[], requests.Response],
    key: str,
    *,
    what: str,
    error: Callable[[str], Exception],
    retries: int,
):
    """Send a request, retrying failures, and return `resp.json()[key]`.

    `send` makes one attempt. A transport error or a 5xx reply is retried,
    after a 0.1 * 2**k s sleep before retry k+1, with one warning logged per
    failed attempt; after `retries + 1` failed attempts `error` is raised. Any
    other non-200 reply, and a body that is not JSON or lacks `key`, raise
    `error` at once. The caller checks the type of the returned value.
    """
    last_error: object = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(0.1 * 2 ** (attempt - 1))
        try:
            resp = send()
        except requests.RequestException as exc:
            last_error = exc
            logger.warning("%s request failed (attempt %d): %s", what, attempt + 1, exc)
            continue
        if resp.status_code >= 500:
            last_error = f"{what} returned {resp.status_code}"
            logger.warning("%s (attempt %d)", last_error, attempt + 1)
            continue
        if resp.status_code != 200:
            raise error(f"{what} returned {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()[key]
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"malformed {what} reply: {exc}") from exc
    raise error(f"{what} unreachable after {retries + 1} attempts: {last_error}")


class EnvCachedSession(requests.Session):
    """A `requests.Session` that resolves the environment once per host.

    `merge_environment_settings` is cached per (scheme, host and port, stream,
    verify, cert) and the session's own proxies, stream, verify and cert. For
    a fixed environment the result is the one `requests` computes. A proxy or
    CA-bundle variable changed after the session's first request to a host is
    not seen, as with clients that read the environment when they are built.
    Requests with explicit proxies, and sessions with `trust_env` off, take
    the stock path.
    """

    # Bounds the cache for a session that fetches from many hosts.
    MAX_CACHED_HOSTS = 256

    def __init__(self):
        super().__init__()
        self._env_settings: dict = {}

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
            if len(self._env_settings) >= self.MAX_CACHED_HOSTS:
                self._env_settings.clear()
            self._env_settings[key] = settings
        # Callers may mutate what they get back; the cached entry stays intact.
        return {**settings, "proxies": settings["proxies"].copy()}
