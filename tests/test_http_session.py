"""EnvCachedSession: environment resolved once per host, same settings as requests."""

import pytest
import requests
from hypothesis import given, strategies as st

from ragmend.http_session import EnvCachedSession
from ragmend.pipeline import RemoteGenerator
from ragmend.scoring import RemoteScorer, ScorerConfig
from ragmend.websearch import HttpSearchClient, HttpTransport, RemoteRewriter

ENV_NAMES = (
    "HTTP_PROXY",
    "HTTPS_PROXY",
    "ALL_PROXY",
    "NO_PROXY",
    "REQUESTS_CA_BUNDLE",
    "CURL_CA_BUNDLE",
)

URLS = st.builds(
    "{}://{}{}/path".format,
    st.sampled_from(["http", "https"]),
    st.sampled_from(
        ["localhost", "127.0.0.1", "10.1.2.3", "example.com", "api.example.com", "intra.corp"]
    ),
    st.sampled_from(["", ":8080", ":443"]),
)

ENVIRONMENTS = st.fixed_dictionaries(
    {},
    optional={
        "HTTP_PROXY": st.sampled_from(["http://proxy:3128", "http://user:pw@proxy:8080"]),
        "HTTPS_PROXY": st.sampled_from(["http://proxy:3128", "https://secure-proxy:443"]),
        "NO_PROXY": st.sampled_from(
            ["", "localhost,127.0.0.1", ".corp", "example.com:8080", "10.0.0.0/8", "*"]
        ),
        "REQUESTS_CA_BUNDLE": st.just("/etc/ssl/custom.pem"),
        "CURL_CA_BUNDLE": st.just("/etc/ssl/curl.pem"),
    },
)


def _clean_environment(mp: pytest.MonkeyPatch) -> None:
    for name in ENV_NAMES:
        mp.delenv(name, raising=False)
        mp.delenv(name.lower(), raising=False)


class TestMergeEnvironmentSettings:
    @given(
        env=ENVIRONMENTS,
        urls=st.lists(URLS, min_size=1, max_size=6),
        verify=st.sampled_from([None, True, False, "/etc/ssl/given.pem"]),
        stream=st.sampled_from([None, True]),
        cert=st.sampled_from([None, "/etc/ssl/client.pem"]),
    )
    def test_equals_plain_session(self, env, urls, verify, stream, cert):
        with pytest.MonkeyPatch.context() as mp:
            _clean_environment(mp)
            for name, value in env.items():
                mp.setenv(name, value)
            cached = EnvCachedSession()
            # The second round is served from the cache.
            for url in urls + urls:
                expected = requests.Session().merge_environment_settings(
                    url, {}, stream, verify, cert
                )
                got = cached.merge_environment_settings(url, {}, stream, verify, cert)
                assert got == expected

    def test_environment_read_once_per_host(self, monkeypatch):
        _clean_environment(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
        session = EnvCachedSession()
        url = "http://example.com/a"
        first = session.merge_environment_settings(url, {}, None, None, None)
        monkeypatch.setenv("HTTP_PROXY", "http://other:3128")
        again = session.merge_environment_settings("http://example.com/b", {}, None, None, None)
        assert again == first
        other_host = session.merge_environment_settings("http://example.org/", {}, None, None, None)
        assert other_host["proxies"]["http"] == "http://other:3128"

    def test_explicit_proxies_take_stock_path(self, monkeypatch):
        _clean_environment(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
        session = EnvCachedSession()
        url = "http://example.com/"
        session.merge_environment_settings(url, {}, None, None, None)
        explicit = {"http": "http://explicit:1"}
        got = session.merge_environment_settings(url, dict(explicit), None, None, None)
        assert got["proxies"]["http"] == "http://explicit:1"

    def test_trust_env_off_ignores_environment(self, monkeypatch):
        _clean_environment(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
        session = EnvCachedSession()
        session.trust_env = False
        got = session.merge_environment_settings("http://example.com/", {}, None, None, None)
        assert got["proxies"] == {}

    def test_session_settings_are_part_of_the_key(self, monkeypatch):
        _clean_environment(monkeypatch)
        session = EnvCachedSession()
        url = "https://example.com/"
        assert session.merge_environment_settings(url, {}, None, None, None)["verify"] is True
        session.verify = "/etc/ssl/session.pem"
        got = session.merge_environment_settings(url, {}, None, None, None)
        assert got["verify"] == "/etc/ssl/session.pem"

    def test_returned_proxies_are_a_copy(self, monkeypatch):
        _clean_environment(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
        session = EnvCachedSession()
        url = "http://example.com/"
        session.merge_environment_settings(url, {}, None, None, None)["proxies"].clear()
        got = session.merge_environment_settings(url, {}, None, None, None)
        assert got["proxies"]["http"] == "http://proxy:3128"

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(EnvCachedSession, "MAX_CACHED_HOSTS", 3)
        session = EnvCachedSession()
        for i in range(10):
            session.merge_environment_settings(f"http://h{i}.example/", {}, None, None, None)
        assert len(session._env_settings) <= 3


class TestRoleDefaults:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RemoteScorer(ScorerConfig(kind="remote", endpoint="http://localhost:9/s")),
            lambda: RemoteGenerator("http://localhost:9/g"),
            lambda: RemoteRewriter("http://localhost:9/g"),
            lambda: HttpSearchClient("http://localhost:9/search"),
            lambda: HttpTransport(),
        ],
        ids=["scorer", "generator", "rewriter", "search", "transport"],
    )
    def test_default_session_caches_environment(self, build):
        assert isinstance(build().session, EnvCachedSession)
