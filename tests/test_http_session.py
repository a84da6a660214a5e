"""EnvCachedSession: environment resolved once per host, same settings as requests.

request_json: one retry-and-parse policy for every remote role.
"""

import time
from unittest import mock

import pytest
import requests
from hypothesis import given, settings, strategies as st

from conftest import FakeResponse, FakeSession
from ragmend.errors import RemoteError, RewriteError
from ragmend.http_session import EnvCachedSession, request_json
from ragmend.pipeline import RemoteGenerator
from ragmend.scoring import RemoteScorer, ScorerConfig
from ragmend.websearch import HttpSearchClient, RemoteRewriter

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
    # No deadline: under a line tracer one example can take longer than 200 ms.
    @settings(deadline=None)
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
        ],
        ids=["scorer", "generator", "rewriter", "search"],
    )
    def test_default_session_caches_environment(self, build):
        assert isinstance(build().session, EnvCachedSession)


class Refused(Exception):
    pass


def _reply(outcome):
    return {
        "raise": requests.ConnectionError("down"),
        "ok": FakeResponse(payload={"value": 7}),
        "4xx": FakeResponse(status_code=404, text="gone"),
        "5xx": FakeResponse(status_code=503),
        "malformed": FakeResponse(payload={"other": 7}),
    }[outcome]


def _reference(outcomes, retries):
    """(attempts, sleeps, failed attempts, result) under the documented policy."""
    sleeps = []
    for attempt in range(retries + 1):
        if attempt:
            sleeps.append(0.1 * 2 ** (attempt - 1))
        outcome = outcomes[attempt]
        if outcome in ("raise", "5xx"):
            continue
        result = {"ok": 7, "4xx": "thing returned 404: gone", "malformed": "malformed thing reply"}
        return attempt + 1, sleeps, attempt, result[outcome]
    return retries + 1, sleeps, retries + 1, f"thing unreachable after {retries + 1} attempts"


class TestRequestJson:
    @given(
        outcomes=st.lists(
            st.sampled_from(["raise", "ok", "4xx", "5xx", "malformed"]), min_size=4, max_size=4
        ),
        retries=st.integers(0, 3),
    )
    def test_matches_reference_model(self, outcomes, retries):
        session = FakeSession([_reply(o) for o in outcomes])
        with mock.patch("ragmend.http_session.time.sleep") as sleep, mock.patch(
            "ragmend.http_session.logger.warning"
        ) as warning:
            try:
                result = request_json(
                    lambda: session.get("http://localhost:9/x"),
                    "value",
                    what="thing",
                    error=Refused,
                    retries=retries,
                )
            except Refused as exc:
                result = str(exc)
        attempts, sleeps, failed, expected = _reference(outcomes, retries)
        assert len(session.calls) == attempts
        assert [c.args[0] for c in sleep.call_args_list] == sleeps
        assert warning.call_count == failed
        if isinstance(expected, str):
            assert result.startswith(expected)
        else:
            assert result == expected

    def test_warnings_number_the_attempts_and_errors_cut_the_body(self, caplog, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        body = "a" * 200 + "b" * 100
        session = FakeSession(
            [
                requests.ConnectionError("down"),
                FakeResponse(status_code=503),
                FakeResponse(status_code=404, text=body),
            ]
        )
        with caplog.at_level("WARNING"), pytest.raises(Refused) as info:
            request_json(
                lambda: session.get("http://localhost:9/x"),
                "value",
                what="thing",
                error=Refused,
                retries=2,
            )
        assert [r.getMessage() for r in caplog.records] == [
            "thing request failed (attempt 1): down",
            "thing returned 503 (attempt 2)",
        ]
        assert str(info.value) == "thing returned 404: " + "a" * 200


def _scorer(session):
    config = ScorerConfig(kind="remote", endpoint="http://localhost:9/score", retries=2)
    return RemoteScorer(config, session=session).score_text("q", "d")


def _generator(session):
    return RemoteGenerator("http://localhost:9/g", retries=2, session=session).generate("p")


def _search(session):
    return HttpSearchClient("http://localhost:9/search", retries=2, session=session).search("q")


class TestRetryPolicyPerRole:
    @pytest.mark.parametrize("call", [_scorer, _generator, _search])
    def test_backoff_between_three_attempts(self, call, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = FakeSession([FakeResponse(status_code=500)] * 3)
        with pytest.raises(RemoteError, match="unreachable after 3 attempts"):
            call(session)
        assert len(session.calls) == 3
        assert sleeps == [0.1, 0.2]

    @pytest.mark.parametrize(
        "failure", [FakeResponse(status_code=503), requests.ConnectionError("down")]
    )
    def test_rewriter_makes_one_attempt(self, failure, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = FakeSession([failure, FakeResponse(payload={"text": "query: x"})])
        rewriter = RemoteRewriter("http://localhost:9/generate", session=session)
        with pytest.raises(RewriteError):
            rewriter.rewrite("q")
        assert len(session.calls) == 1
        assert sleeps == []
