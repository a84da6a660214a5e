"""Config loading with three precedence levels.

A run's settings come from preset defaults, overlaid by an optional JSON
config file, overlaid by dotted key=value overrides from the command line.
Unknown sections or keys are rejected so typos fail loudly, and so is a
value that does not have its field's type (an int is a valid float, a bool
is only a bool).

The keys come from `PipelineConfig`: each nested dataclass field is a section
of its fields, and each flat field `<section>_<key>` is key `<key>` of
`<section>`. `thresholds.preset` names a preset; explicit bounds win over it.
`config_snapshot` writes a config back out as such a tree, which a report
carries as its `config`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import typing
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import ConfigError
from .pipeline import PipelineConfig, RemoteGenerator, RemoteRewriter, StubGenerator
from .scoring import build_scorer
from .trigger import Action, Thresholds
from .websearch import HttpSearchClient, KeywordRewriter


def _field_types() -> dict[str, dict[str, object]]:
    """Each section's keys, with the annotation of the field each one sets."""
    types: dict[str, dict[str, object]] = {}
    hints = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        if dataclasses.is_dataclass(f.default):
            nested = typing.get_type_hints(type(f.default))
            types[f.name] = {g.name: nested[g.name] for g in dataclasses.fields(f.default)}
        else:
            section, _, key = f.name.partition("_")
            types.setdefault(section, {})[key] = hints[f.name]
    types["thresholds"]["preset"] = str
    return types


_FIELD_TYPES = _field_types()
SCHEMA = {section: set(keys) for section, keys in _FIELD_TYPES.items()}

# What a parsed JSON value may be for a field of this annotation; an enum takes its value.
_ACCEPTED = {float: (int, float), Path: (str, Path), Action: str}


def _options(hint) -> tuple:
    return typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)


def _has_type(value, hint) -> bool:
    """Whether `value` may set a field annotated `hint`; only a bool field takes a bool."""
    if isinstance(value, bool):
        return bool in _options(hint)
    return any(isinstance(value, _ACCEPTED.get(o, o)) for o in _options(hint))


def _type_name(hint) -> str:
    return " or ".join("null" if o is type(None) else o.__name__ for o in _options(hint))


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
        for key, value in values.items():
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{origin}: unknown key {section}.{key}; "
                    f"choose from {sorted(SCHEMA[section])}"
                )
            hint = _FIELD_TYPES[section][key]
            if not _has_type(value, hint):
                raise ConfigError(
                    f"{origin}: {section}.{key} must be {_type_name(hint)}, got {value!r}"
                )


def load_file(path: Union[str, Path]) -> dict:
    """Parse and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    so --set thresholds.upper=0.8 and --set scorer.kind=remote both work; a
    string or path key keeps the text of JSON of another type (cache_dir=2024).
    """
    tree: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"override must look like section.key=value, got {pair!r}")
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key must be section.key, got {key!r}")
        hint = _FIELD_TYPES.get(parts[0], {}).get(parts[1], str)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        if not _has_type(value, hint) and _has_type(raw, hint):
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


def build_pipeline_config(data: dict) -> PipelineConfig:
    """Construct a validated PipelineConfig from a merged config tree."""
    _validate_tree(data, "config")
    kwargs = {}
    for section, values in data.items():
        default = getattr(PipelineConfig, section, None)
        if not dataclasses.is_dataclass(default):
            kwargs.update({f"{section}_{key}": value for key, value in values.items()})
            continue
        values = dict(values)
        if "preset" in values:
            default = Thresholds.preset(values.pop("preset"))
        kwargs[section] = dataclasses.replace(default, **values)
    return PipelineConfig(**kwargs)


def config_snapshot(cfg: PipelineConfig) -> dict:
    """The config tree `build_pipeline_config` turns back into `cfg`.

    It holds every `SCHEMA` key but `thresholds.preset`, as JSON values: an
    enum as its value and a path as a string.
    """
    tree: dict = {}
    for section, keys in _FIELD_TYPES.items():
        nested = getattr(cfg, section, None)
        tree[section] = {
            key: getattr(nested, key)
            if dataclasses.is_dataclass(nested)
            else getattr(cfg, f"{section}_{key}")
            for key in keys
            if (section, key) != ("thresholds", "preset")
        }
    return json.loads(json.dumps(tree, default=str))


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


def build_roles(cfg: PipelineConfig) -> dict:
    """The scorer, search client, rewriter and generator a config names.

    The keys are `run_experiment`'s keyword names. A role whose endpoint is
    unset is the local one (no search client at all); the rewriter shares
    the generator's timeout.
    """
    search_client = None
    if cfg.search.endpoint:
        search_client = HttpSearchClient(
            cfg.search.endpoint,
            timeout=cfg.search.timeout,
            retries=cfg.search.retries,
            fetch_timeout=cfg.search.fetch_timeout,
        )
    rewriter = (
        RemoteRewriter(cfg.rewriter_endpoint, timeout=cfg.generator_timeout)
        if cfg.rewriter_endpoint
        else KeywordRewriter()
    )
    generator = (
        RemoteGenerator(
            cfg.generator_endpoint,
            timeout=cfg.generator_timeout,
            retries=cfg.generator_retries,
            max_tokens=cfg.generator_max_tokens,
        )
        if cfg.generator_endpoint
        else StubGenerator()
    )
    return {
        "scorer": build_scorer(cfg.scorer),
        "search_client": search_client,
        "rewriter": rewriter,
        "generator": generator,
    }
