"""Exception hierarchy shared across the pipeline.

Two families matter for the CLI exit-code contract: InputError covers bad
user input, config or datasets (exit 2), RemoteError covers network and
remote-service failures (exit 3).
"""


class RagmendError(Exception):
    """Base class for all package errors."""


class InputError(RagmendError):
    """Invalid user input: config, dataset, or CLI arguments."""


class ConfigError(InputError):
    """Config file or override could not be parsed or validated."""


class DatasetError(InputError):
    """Dataset file failed schema validation."""


class RemoteError(RagmendError):
    """A remote service failed after retries."""


class ScorerUnavailableError(RemoteError):
    """The remote relevance scorer could not produce a score."""


class SearchUnavailableError(RemoteError):
    """The web search backend could not return results."""


class FetchError(RemoteError):
    """A page fetch failed; carries the URL that failed."""

    def __init__(self, url: str, reason: str):
        super().__init__(f"fetch failed for {url}: {reason}")
        self.url = url


class GenerationError(RemoteError):
    """The generator endpoint failed to produce text."""


class RewriteError(RemoteError):
    """A query rewriter failed; `websearch.rewrite` falls back to the keyword one."""


class OfflineViolationError(RemoteError):
    """A network call to a non-local endpoint was attempted in offline mode."""
