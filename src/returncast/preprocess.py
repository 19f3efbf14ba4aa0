"""Data cleaning: outlier detection and repair, magnitude normalization.

Prior-generation history drives the model, so spikes from one-off events
(recalls, bulk buy-backs) and scale differences between generations both
need repairing before any correlation or fit is trusted.

`PreprocessConfig`, the `[preprocess]` config section, tunes the outlier
screen and repair and holds their defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureSeries, MonthIndex, MonthInterval
from .errors import AT_LEAST_ONE, NumericError, ValidationError
from .prep import moving_average

# `accepts` is the range the config loader takes, as in `returncast.errors`
_POSITIVE = {"accepts": (lambda value: value > 0, "must be > 0")}


@dataclass(frozen=True)
class PreprocessConfig:
    sigma_multiplier: float = field(default=3.0, metadata=_POSITIVE)
    smoothing_window: int = field(default=3, metadata=AT_LEAST_ONE)


@dataclass(frozen=True)
class OutlierReport:
    """Outcome of screening one series against the sigma band."""

    feature: str
    mean: float
    sd: float
    lower: float
    upper: float
    months: tuple[MonthIndex, ...]
    values: tuple[float, ...] = ()  # original values at the flagged months

    @property
    def count(self) -> int:
        return len(self.months)


def detect_outliers(
    feature: FeatureSeries, multiplier: float = PreprocessConfig.sigma_multiplier
) -> OutlierReport:
    """Flag defined months outside mean +/- multiplier * SD (population SD)."""
    if multiplier <= 0:
        raise ValidationError(f"sigma multiplier must be positive, got {multiplier}")
    mask = feature.defined_mask
    defined = feature.values[mask]
    n = len(defined)
    if n == 0:
        raise ValidationError(f"{feature.name}: no defined values to screen")
    # `ndarray.mean()` and `.std()` as their reductions: sum / n, and the
    # root of the mean squared deviation (population SD: the series is the
    # whole population)
    mean = float(np.add.reduce(defined) / n)
    deviation = defined - mean
    sd = math.sqrt(np.add.reduce(deviation * deviation) / n)
    lower, upper = mean - multiplier * sd, mean + multiplier * sd
    flagged = mask & ((feature.values < lower) | (feature.values > upper))
    hits = np.flatnonzero(flagged)
    return OutlierReport(
        feature=feature.name,
        mean=mean,
        sd=sd,
        lower=lower,
        upper=upper,
        months=tuple(feature.start + int(i) for i in hits),
        values=tuple(float(feature.values[i]) for i in hits),
    )


def repair_outliers(
    feature: FeatureSeries, report: OutlierReport, w: int = PreprocessConfig.smoothing_window
) -> FeatureSeries:
    """Replace flagged months with the trailing moving-average value.

    The average is computed on the original series, so consecutive outliers
    are each repaired from the same raw neighborhood.
    """
    if report.feature != feature.name:
        raise ValidationError(
            f"report is for {report.feature!r}, not {feature.name!r}"
        )
    if not report.months:
        return feature
    smoothed = moving_average(feature, w)
    values = feature.values.copy()
    for month in report.months:
        values[month - feature.start] = smoothed.values[month - feature.start]
    return feature.with_values(values)


def _defined_sum(feature: FeatureSeries) -> float:
    """`np.nansum` of the values, NaN when none is defined: the undefined
    months are summed as +0.0 in place, so the pairwise sum keeps its order."""
    defined = np.isfinite(feature.values)
    if not np.count_nonzero(defined):
        return math.nan
    return float(np.add.reduce(np.where(defined, feature.values, 0.0)))


def normalization_factor(
    reference: FeatureSeries,
    source: FeatureSeries,
    reference_window: MonthInterval | None = None,
    source_window: MonthInterval | None = None,
) -> float:
    """Scale factor sum(reference) / sum(source) over the given windows.

    Defaults to each series' full defined extent. A zero or undefined source
    sum has no meaningful ratio and raises.
    """
    ref = reference if reference_window is None else reference.restrict(reference_window)
    src = source if source_window is None else source.restrict(source_window)
    ref_sum, src_sum = _defined_sum(ref), _defined_sum(src)
    if not math.isfinite(src_sum) or src_sum == 0.0:
        raise NumericError(
            f"cannot normalize by {source.name!r}: window sum is {src_sum}"
        )
    if not math.isfinite(ref_sum):
        raise NumericError(f"reference {reference.name!r} has no defined values in window")
    return ref_sum / src_sum


def normalize_magnitude(
    source: FeatureSeries,
    reference: FeatureSeries,
    reference_window: MonthInterval | None = None,
    source_window: MonthInterval | None = None,
) -> FeatureSeries:
    """Rescale source so its window volume matches the reference window volume."""
    factor = normalization_factor(reference, source, reference_window, source_window)
    return source.with_values(source.values * factor, name=f"{source.name}_normalized")
