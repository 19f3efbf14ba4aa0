"""Configuration: the INI codec for `AppConfig`, one file holding every
tunable threshold, so a deployment can audit and override them in one place.

Each section is one flat dataclass beside the rules it tunes, with each
default written once, on its field: `PrepConfig` (prep.py),
`PreprocessConfig` (preprocess.py), `AnalysisConfig` (analysis.py),
`ModelsConfig` (models/base.py), `EwaThresholds` (ewa.py), `AdjustConfig`
(adjust.py), and `PipelineConfig` with `AppConfig` itself (pipeline.py).
The loader and `DEFAULT_CONFIG_TEXT` are both generated from them, so a key
exists exactly when its field does. `load_config` is the one place that
refuses a value: a key outside its field's `accepts` range (the shared
ranges live in errors.py), or a section whose own rule across two keys
fails, is named in the error.
"""
from __future__ import annotations

import configparser
import functools
import math
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator, Optional, get_type_hints

from .errors import ValidationError
from .pipeline import AppConfig

# a float key without a range of its own takes any number but NaN
_NOT_NAN = (lambda value: not math.isnan(value), "must not be NaN")


@functools.cache
def _hints(section_type: type) -> dict[str, object]:
    """A section type's field hints, resolved once per type: each
    `get_type_hints` call evaluates every string annotation again."""
    return get_type_hints(section_type)


def _keys(section) -> Iterator[tuple[str, object, object]]:
    """(INI key, type, value) for each field of one section, in field order."""
    hints = _hints(type(section))
    for f in fields(section):
        yield f.name, hints[f.name], getattr(section, f.name)


def _parse(kind, raw: str):
    if kind is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    if kind == tuple[int, ...]:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return kind(raw)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def load_config(path: Optional[str | Path] = None) -> AppConfig:
    """Read an INI config; no path or absent keys keep the defaults, and a
    path that is not a regular file is a missing input.

    Unknown sections or keys are rejected, so a misspelt key cannot be
    silently ignored.
    """
    # no %-interpolation: a stray `%` is then a bad value, not a traceback
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"no input file at {path}")
        try:
            parser.read_string(path.read_text(encoding="utf-8-sig"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"bad config file {path}: {exc}") from exc

    defaults = AppConfig()
    names = [f.name for f in fields(defaults)]
    # keys under [DEFAULT] would reach no section, so it counts as unknown too
    written = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = [s for s in written if s not in names]
    if unknown:
        raise ValidationError(f"unknown config section [{unknown[0]}]; known: {', '.join(names)}")
    sections = {}
    for name in names:
        section = getattr(defaults, name)
        kinds = {key: kind for key, kind, _ in _keys(section)}
        ranges = {key: _NOT_NAN for key, kind in kinds.items() if kind is float}
        ranges.update((f.name, f.metadata["accepts"]) for f in fields(section) if f.metadata)
        values = {}
        for key, raw in parser.items(name) if parser.has_section(name) else ():
            if key not in kinds:
                raise ValidationError(f"unknown config key [{name}] {key}")
            try:
                values[key] = _parse(kinds[key], raw)
                if key in ranges and not ranges[key][0](values[key]):
                    raise ValueError(ranges[key][1])
            except ValueError as exc:
                raise ValidationError(
                    f"bad config value [{name}] {key} = {raw!r}: {exc}"
                ) from None
        try:
            sections[name] = replace(section, **values)
        except ValidationError as exc:  # the section's own rule across its keys
            raise ValidationError(f"bad config value [{name}]: {exc}") from None
    return AppConfig(**sections)


def _config_text(config: AppConfig) -> str:
    lines = [
        "# Forecasting engine configuration. Every key is optional; omitted keys",
        "# keep the documented default. Unknown sections and keys are rejected.",
    ]
    for f in fields(config):
        lines += ["", f"[{f.name}]"]
        lines += [f"{key} = {_format(value)}" for key, _, value in _keys(getattr(config, f.name))]
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG_TEXT = _config_text(AppConfig())
