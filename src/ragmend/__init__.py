"""Corrective retrieval-augmented generation pipeline.

Scores retrieved documents against the question, triggers one of three
actions (Correct, Incorrect, Ambiguous), refines or replaces the knowledge
accordingly (document refinement, web search, or both), and generates the
answer. Ships an experiment harness with seeded retrieval degradation,
ablations, and a mock server for hermetic runs.
"""

from .config import build_roles
from .errors import (
    ConfigError,
    DatasetError,
    FetchError,
    GenerationError,
    InputError,
    OfflineViolationError,
    RagmendError,
    RemoteError,
    RewriteError,
    ScorerUnavailableError,
    SearchUnavailableError,
)
from .harness import (
    DatasetInstance,
    ExperimentReport,
    InstanceRecord,
    accuracy,
    degrade,
    load_dataset,
    run_experiment,
)
from .pipeline import (
    AblationFlags,
    PipelineConfig,
    RemoteGenerator,
    RemoteRewriter,
    RunRecord,
    StubGenerator,
    assemble_prompt,
    run,
)
from .refinement import (
    BundleKind,
    KnowledgeBundle,
    KnowledgeStrip,
    RefineConfig,
    filter_strips,
    refine,
    segment,
    split_sentences,
)
from .scoring import (
    Document,
    LexicalScorer,
    Query,
    RemoteScorer,
    Scorer,
    ScorerConfig,
    build_scorer,
    tokenize,
)
from .trigger import THRESHOLD_PRESETS, Action, ActionJudgment, Thresholds, judge
from .websearch import (
    HttpSearchClient,
    KeywordRewriter,
    SearchConfig,
    fetch_and_extract,
    rewrite,
    search,
    select_external,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionJudgment",
    "AblationFlags",
    "BundleKind",
    "ConfigError",
    "DatasetError",
    "DatasetInstance",
    "Document",
    "ExperimentReport",
    "FetchError",
    "GenerationError",
    "HttpSearchClient",
    "InputError",
    "InstanceRecord",
    "KeywordRewriter",
    "KnowledgeBundle",
    "KnowledgeStrip",
    "LexicalScorer",
    "OfflineViolationError",
    "PipelineConfig",
    "Query",
    "RagmendError",
    "RefineConfig",
    "RemoteError",
    "RemoteGenerator",
    "RemoteRewriter",
    "RemoteScorer",
    "RewriteError",
    "RunRecord",
    "Scorer",
    "ScorerConfig",
    "ScorerUnavailableError",
    "SearchConfig",
    "SearchUnavailableError",
    "StubGenerator",
    "THRESHOLD_PRESETS",
    "Thresholds",
    "accuracy",
    "assemble_prompt",
    "build_roles",
    "build_scorer",
    "degrade",
    "fetch_and_extract",
    "filter_strips",
    "judge",
    "load_dataset",
    "refine",
    "rewrite",
    "run",
    "run_experiment",
    "search",
    "segment",
    "select_external",
    "split_sentences",
    "tokenize",
]
