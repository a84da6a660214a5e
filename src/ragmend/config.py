"""Config loading with three precedence levels.

A run's settings come from preset defaults, overlaid by an optional JSON
config file, overlaid by dotted key=value overrides from the command line.
Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import ConfigError
from .pipeline import AblationFlags, PipelineConfig
from .refinement import RefineConfig
from .scoring import ScorerConfig
from .trigger import Thresholds
from .websearch import SearchConfig

SCHEMA = {
    "thresholds": {"preset", "upper", "lower"},
    "refine": {"strip_sentences", "top_k", "strip_threshold"},
    "search": {
        "top_k_urls",
        "prefer_wikipedia",
        "fetch_timeout",
        "cache_dir",
        "endpoint",
        "timeout",
        "retries",
    },
    "scorer": {"kind", "endpoint", "timeout", "retries", "prompt"},
    "generator": {"endpoint", "max_tokens", "timeout", "retries"},
    "rewriter": {"endpoint"},
    "ablations": {
        "disable_action",
        "only_action",
        "no_refinement",
        "no_rewriting",
        "no_selection",
    },
}

DEFAULT_THRESHOLD_PRESET = "popqa"


def _validate_tree(data: dict, origin: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: config root must be an object")
    for section, values in data.items():
        if section not in SCHEMA:
            raise ConfigError(
                f"{origin}: unknown config section {section!r}; "
                f"choose from {sorted(SCHEMA)}"
            )
        if not isinstance(values, dict):
            raise ConfigError(f"{origin}: section {section!r} must be an object")
        for key in values:
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{origin}: unknown key {section}.{key}; "
                    f"choose from {sorted(SCHEMA[section])}"
                )


def load_file(path: Union[str, Path]) -> dict:
    """Parse and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _validate_tree(data, str(path))
    return data


def parse_overrides(pairs: Sequence[str]) -> dict:
    """Turn "section.key=value" pairs into a validated config tree.

    Values are parsed as JSON when possible, otherwise kept as raw strings,
    so --set thresholds.upper=0.8 and --set scorer.kind=remote both work.
    """
    tree: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like section.key=value, got {pair!r}")
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key must be section.key, got {key!r}")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        tree.setdefault(parts[0], {})[parts[1]] = value
    _validate_tree(tree, "--set")
    return tree


def merge(base: dict, extra: dict) -> dict:
    """Two-level merge: extra's keys win over base's."""
    merged = copy.deepcopy(base)
    for section, values in extra.items():
        merged.setdefault(section, {}).update(values)
    return merged


def _build_thresholds(section: dict) -> Thresholds:
    preset = Thresholds.preset(section.get("preset", DEFAULT_THRESHOLD_PRESET))
    return Thresholds(
        upper=section.get("upper", preset.upper),
        lower=section.get("lower", preset.lower),
    )


def build_pipeline_config(data: dict) -> PipelineConfig:
    """Construct a validated PipelineConfig from a merged config tree."""
    _validate_tree(data, "config")
    generator = data.get("generator", {})
    try:
        return PipelineConfig(
            thresholds=_build_thresholds(data.get("thresholds", {})),
            refine=RefineConfig(**data.get("refine", {})),
            search=SearchConfig(**data.get("search", {})),
            scorer=ScorerConfig(**data.get("scorer", {})),
            generator_endpoint=generator.get("endpoint"),
            generator_max_tokens=generator.get("max_tokens", 256),
            generator_timeout=generator.get("timeout", 30.0),
            generator_retries=generator.get("retries", 2),
            rewriter_endpoint=data.get("rewriter", {}).get("endpoint"),
            ablations=AblationFlags(**data.get("ablations", {})),
        )
    except TypeError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(
    path: Optional[Union[str, Path]] = None, overrides: Sequence[str] = ()
) -> PipelineConfig:
    """Resolve the effective config: defaults, then file, then overrides."""
    data: dict = {}
    if path is not None:
        data = merge(data, load_file(path))
    if overrides:
        data = merge(data, parse_overrides(overrides))
    return build_pipeline_config(data)
