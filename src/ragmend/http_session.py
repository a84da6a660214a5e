"""The HTTP session every remote role uses by default.

A `requests.Session` already pools keep-alive connections per host. What it
does not keep is the environment: before every request it re-reads the proxy
variables (`*_proxy`, `no_proxy`) and the CA-bundle variables
(`REQUESTS_CA_BUNDLE`, `CURL_CA_BUNDLE`), a cost on the order of a loopback
round trip. `EnvCachedSession` reads them once per host instead.
"""

from __future__ import annotations

from urllib.parse import urlsplit

import requests


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

    def __setstate__(self, state):
        super().__setstate__(state)
        self._env_settings = {}

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
        try:
            settings = self._env_settings.get(key)
        except TypeError:  # an unhashable verify or cert
            return super().merge_environment_settings(url, proxies, stream, verify, cert)
        if settings is None:
            settings = super().merge_environment_settings(url, {}, stream, verify, cert)
            if len(self._env_settings) >= self.MAX_CACHED_HOSTS:
                self._env_settings.clear()
            self._env_settings[key] = settings
        # Callers may mutate what they get back; the cached entry stays intact.
        return {**settings, "proxies": settings["proxies"].copy()}
