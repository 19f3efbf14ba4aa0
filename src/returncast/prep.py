"""Business-rule filtering and feature transformations.

Returns of generation N are triggered by the launch (GA) of generation N+1,
so the modeling target keeps only post-trigger months while predictors keep
their full history for lagging. New receipts booked in the run-up to the
next launch are unrepresentative and get masked out.

`PrepConfig`, the `[prep]` config section, tunes the mask and the lags and
holds their defaults.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureSeries, GaCalendar, GenerationSeries, true_runs
from .errors import NON_NEGATIVE, ValidationError

# `accepts` is the range the config loader takes, as in `returncast.errors`
_LAGS = {
    "accepts": (
        lambda value: all(k >= 0 for k in value) and len(set(value)) == len(value),
        "every lag must be >= 0, none repeated",
    )
}


@dataclass(frozen=True)
class PrepConfig:
    lags: tuple[int, ...] = field(default=(24, 30, 42, 48, 54), metadata=_LAGS)
    # the pre-GA window of masked receipts; below 0 it would mask none, as 0 does
    receipt_exclusion_months: int = field(default=6, metadata=NON_NEGATIVE)


def filter_post_ga(series: GenerationSeries, calendar: GaCalendar) -> GenerationSeries:
    """Mask gross returns strictly before the next generation's GA.

    Predictor channels are untouched: lagged predictors need pre-trigger
    history to be defined at post-trigger months.
    """
    trigger = calendar.ga_of_next(series.generation)
    cut = trigger.value - series.start.value
    if cut <= 0:
        return series
    returns = series.gross_returns.copy()
    returns[:cut] = np.nan
    if not np.isfinite(returns).any():
        raise ValidationError(
            f"{series.generation}: no post-GA returns (trigger {trigger}, series ends {series.end})"
        )
    return series.replace_channel("gross_returns", returns)


def exclude_prega_receipts(
    series: GenerationSeries,
    calendar: GaCalendar,
    months: int = PrepConfig.receipt_exclusion_months,
) -> GenerationSeries:
    """Mask new receipts in the window [GA(next) - months, GA(next) - 1]."""
    # the trigger's offset in the series
    at = calendar.ga_of_next(series.generation).value - series.start.value
    lo, hi = max(0, at - months), min(len(series), at)
    if lo >= hi:
        return series
    receipts = series.new_receipts.copy()
    receipts[lo:hi] = np.nan
    return series.replace_channel("new_receipts", receipts)


def lag(feature: FeatureSeries, k: int) -> FeatureSeries:
    """Shift a series forward: output at month m equals input at m - k."""
    if k < 0:
        raise ValidationError(f"lag must be >= 0, got {k}")
    if k == 0:
        return feature
    return feature.shift(k, name=f"{feature.name}_lag_{k}")


def _trailing_mean_run(values: np.ndarray, w: int) -> np.ndarray:
    """Trailing mean of the last w values, shrinking window over the head."""
    csum = np.cumsum(values)
    total = csum.copy()
    total[w:] -= csum[:-w]
    return total / np.minimum(np.arange(1, len(values) + 1), w)


def moving_average(feature: FeatureSeries, w: int) -> FeatureSeries:
    """Trailing w-month mean; the first w-1 months of a run use the available prefix.

    Each run of defined months is averaged on its own, so a masked month
    resets the window: windows never straddle a hole.
    """
    if w < 1:
        raise ValidationError(f"moving-average window must be >= 1, got {w}")
    if w == 1:
        return feature
    values = feature.values
    smoothed = np.full(len(values), np.nan)
    for i, j in zip(*true_runs(np.isfinite(values))):
        smoothed[i:j] = _trailing_mean_run(values[i:j], w)
    return feature.with_values(smoothed, name=f"{feature.name}_ma_{w}")


def cumulative_sum(feature: FeatureSeries) -> FeatureSeries:
    """Running sum over defined months, starting at the first defined month."""
    values = feature.values
    defined = np.isfinite(values)
    out = np.full(len(values), np.nan)
    # the leading 0.0 makes the first sum 0.0 + v, as a running total starts
    out[defined] = np.cumsum(np.concatenate(([0.0], values[defined])))[1:]
    return feature.with_values(out, name=f"{feature.name}_cumsum")
