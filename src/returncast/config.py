"""Configuration: one INI file holding every tunable threshold.

The method scatters a dozen magic numbers (sigma cuts, lag sets, phase
lengths, alert thresholds); they all live here so a deployment can audit
and override them in one place. Every value has a working default, written
once: on the dataclass field, or on the module constant the field reads.
Each section is one flat dataclass, here or beside the rules it tunes:
`AnalysisConfig` in `analysis.py`, `EwaThresholds` in `ewa.py` and
`AdjustConfig` in `adjust.py`. The INI loader and the reference text
`DEFAULT_CONFIG_TEXT` are both generated from these dataclasses, so a key
exists exactly when its field does. `load_config` is the one place that
refuses a value: a key outside its field's range, or a section whose own
rule across two keys fails, is named in the error.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Optional, get_type_hints

from .adjust import AdjustConfig
from .analysis import AnalysisConfig
from .errors import ValidationError
from .ewa import SIGNED_WEIGHTS, EwaThresholds, ScoreWeights
from .models import cart, chaid, neural, timeseries
from .models.base import DEFAULT_Z_MULTIPLIER, TRAIN_FRACTION
from .prep import RECEIPT_EXCLUSION_MONTHS
from .preprocess import DEFAULT_SIGMA_MULTIPLIER, DEFAULT_SMOOTHING_WINDOW


# Field metadata `accepts`: (test, message) for a value the loader takes. A
# value outside it would crash a fit, leave a model untrained, refuse a
# cycle with a message that names no key, or leave a cycle with no valid
# band or no forecast month after the zoo has trained. A float key without
# a range of its own takes any number but NaN.
_AT_LEAST_ONE = {"accepts": (lambda value: value >= 1, "must be >= 1")}
_NON_NEGATIVE = {"accepts": (lambda value: value >= 0, "must be >= 0")}
_POSITIVE = {"accepts": (lambda value: value > 0, "must be > 0")}
_FINITE_POSITIVE = {
    "accepts": (lambda value: math.isfinite(value) and value > 0, "must be finite and > 0")
}
# a wider band is no plan, and near 1e308 the band overflows to infinity
_Z = {"accepts": (lambda value: 0 <= value <= 10, "must be finite and >= 0, at most 10")}
_NOT_NAN = (lambda value: not math.isnan(value), "must not be NaN")
_FRACTION = {"accepts": (lambda value: 0 < value < 1, "must be strictly between 0 and 1")}
_LAGS = {
    "accepts": (
        lambda value: all(k >= 0 for k in value) and len(set(value)) == len(value),
        "every lag must be >= 0, none repeated",
    )
}
_WINDOWS = {"accepts": (lambda value: all(w >= 1 for w in value), "every window must be >= 1")}


@dataclass(frozen=True)
class PrepConfig:
    lags: tuple[int, ...] = field(default=(24, 30, 42, 48, 54), metadata=_LAGS)
    moving_averages: tuple[int, ...] = field(default=(3, 6), metadata=_WINDOWS)
    receipt_exclusion_months: int = RECEIPT_EXCLUSION_MONTHS


@dataclass(frozen=True)
class PreprocessConfig:
    sigma_multiplier: float = field(default=DEFAULT_SIGMA_MULTIPLIER, metadata=_POSITIVE)
    smoothing_window: int = field(default=DEFAULT_SMOOTHING_WINDOW, metadata=_AT_LEAST_ONE)


@dataclass(frozen=True)
class ModelsConfig:
    train_fraction: float = field(default=TRAIN_FRACTION, metadata=_FRACTION)
    z_multiplier: float = field(default=DEFAULT_Z_MULTIPLIER, metadata=_Z)
    cart_min_leaf: int = field(default=cart.DEFAULT_MIN_LEAF, metadata=_AT_LEAST_ONE)
    cart_max_depth: int = cart.DEFAULT_MAX_DEPTH
    chaid_min_segment: int = chaid.DEFAULT_MIN_SEGMENT
    chaid_merge_alpha: float = chaid.DEFAULT_MERGE_ALPHA
    chaid_split_alpha: float = chaid.DEFAULT_SPLIT_ALPHA
    nn_hidden_units: int = field(default=neural.DEFAULT_HIDDEN_UNITS, metadata=_AT_LEAST_ONE)
    nn_epochs: int = field(default=neural.DEFAULT_EPOCHS, metadata=_AT_LEAST_ONE)
    nn_learning_rate: float = field(
        default=neural.DEFAULT_LEARNING_RATE, metadata=_FINITE_POSITIVE
    )
    ts_seasonal: bool = False
    ts_period: int = field(default=timeseries.DEFAULT_PERIOD, metadata=_AT_LEAST_ONE)
    seed: int = field(default=0, metadata=_NON_NEGATIVE)
    include_polynomial: bool = False
    include_phasewise: bool = False


@dataclass(frozen=True)
class PipelineConfig:
    horizon_months: int = field(default=12, metadata=_AT_LEAST_ONE)
    min_matrix_rows: int = 16
    max_predictors: int = field(default=8, metadata=_AT_LEAST_ONE)


@dataclass(frozen=True)
class AppConfig:
    """One field per INI section, named after it."""

    prep: PrepConfig = field(default_factory=PrepConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    models: ModelsConfig = field(default_factory=ModelsConfig)
    ewa: EwaThresholds = field(default_factory=EwaThresholds)
    adjust: AdjustConfig = field(default_factory=AdjustConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


# `[ewa] weights` names a preset rather than spelling out the three weights
WEIGHT_PRESETS = {"literal": ScoreWeights(), "signed": SIGNED_WEIGHTS}


def _keys(section) -> Iterator[tuple[str, object, object]]:
    """(INI key, type, value) for each field of one section, in field order."""
    hints = get_type_hints(type(section))
    for f in fields(section):
        yield f.name, hints[f.name], getattr(section, f.name)


def _parse(kind, raw: str):
    if kind is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    if kind is ScoreWeights:
        if raw.lower() not in WEIGHT_PRESETS:
            raise ValueError(f"weights preset must be one of {sorted(WEIGHT_PRESETS)}")
        return WEIGHT_PRESETS[raw.lower()]
    if kind == tuple[int, ...]:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return kind(raw)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, ScoreWeights):
        return next(name for name, preset in WEIGHT_PRESETS.items() if preset == value)
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
            parser.read_string(path.read_text())
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
        ranges = {key: _NOT_NAN for key, kind, _ in _keys(section) if kind is float}
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
