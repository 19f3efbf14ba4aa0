"""Early Warning Analytics: validate last cycle's forecast against actuals.

Three steps each cycle: score the previous forecast's deviation over a short
lookback, score what the planner actually committed to, then turn the result
into an alert and a concrete recommendation (switch band or retrain).
"""
from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FeatureSeries, MonthIndex, MonthInterval, defined_on
from .errors import AT_LEAST_ONE, NumericError, ValidationError
from .models import ForecastSeries
from .models.base import deviation, pad  # re-exported: the one percentage error

log = logging.getLogger(__name__)


class Color(enum.Enum):
    RED = "Red"
    YELLOW = "Yellow"
    GREEN = "Green"

    def __str__(self) -> str:
        return self.value


class Alert(enum.Enum):
    NONE = "None"
    OVER_FORECAST = "OverForecast"
    UNDER_FORECAST = "UnderForecast"

    def __str__(self) -> str:
        return self.value


class Recommendation(enum.Enum):
    USE_BEST_FIT = "UseBestFit"
    USE_LCI = "UseLCI"
    USE_UCI = "UseUCI"
    RETRAIN_MODEL = "RetrainModel"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScoreWeights:
    """Color weights for the scoring matrix. The literal weighting is the
    default; the signed preset allows negative scores for red-heavy windows."""

    red: float = 3.0
    yellow: float = 6.0
    green: float = 3.0


SIGNED_WEIGHTS = ScoreWeights(red=-3.0, yellow=1.0, green=3.0)
# `[ewa] weights` names one of these presets, in any case
SCORE_PRESETS = {"literal": ScoreWeights(), "signed": SIGNED_WEIGHTS}

# `accepts` is the range the config loader takes, as in `returncast.errors`
_PRESET = {"accepts": (lambda value: value.lower() in SCORE_PRESETS, "must be literal or signed")}


@dataclass(frozen=True)
class EwaThresholds:
    lookback_months: int = field(default=3, metadata=AT_LEAST_ONE)
    red_cut: float = -10.0  # signed pad below this is a red month
    under_forecast_pad: float = 20.0
    retrain_pad: float = 30.0
    score_window: int = field(default=6, metadata=AT_LEAST_ONE)
    projection_window: int = field(default=6, metadata=AT_LEAST_ONE)
    weights: str = field(default="literal", metadata=_PRESET)


# -------------------------------------------------------------- primitives


def color(pad_value: float, red_cut: float = EwaThresholds.red_cut) -> Color:
    """Eq.-style traffic light on the signed percentage deviation: red
    strictly below `red_cut`, yellow up to 0, green above."""
    if not math.isfinite(pad_value):
        raise ValidationError(f"color needs a finite pad, got {pad_value}")
    if pad_value < red_cut:
        return Color.RED
    if pad_value <= 0.0:
        return Color.YELLOW
    return Color.GREEN


def month_colors(
    pad_signed: np.ndarray, red_cut: float = EwaThresholds.red_cut
) -> tuple[Optional[Color], ...]:
    return tuple(color(float(p), red_cut) if math.isfinite(p) else None for p in pad_signed)


def mape_score(colors: Sequence[Optional[Color]], weights: ScoreWeights = ScoreWeights()) -> float:
    """Weighted color counts: w_r * reds + w_y * yellows + w_g * greens."""
    counts = {Color.RED: 0, Color.YELLOW: 0, Color.GREEN: 0}
    for c in colors:
        if c is not None:
            counts[c] += 1
    return (
        weights.red * counts[Color.RED]
        + weights.yellow * counts[Color.YELLOW]
        + weights.green * counts[Color.GREEN]
    )


def six_month_stats(
    mape_history: Sequence[float], window: int = EwaThresholds.score_window
) -> tuple[float, float]:
    """Mean and SD of the moving `window`-month cumulative sums of a MAPE history."""
    values = np.asarray(mape_history, dtype=float)
    if len(values) < window:
        raise ValidationError(f"need at least {window} values, got {len(values)}")
    sums = np.array([values[i : i + window].sum() for i in range(len(values) - window + 1)])
    return float(sums.mean()), float(sums.std())


def projection(
    recent_actuals: Sequence[float],
    next_forecasts: Sequence[float],
    window: int = EwaThresholds.projection_window,
) -> float:
    """Recent actual volume minus upcoming forecast volume."""
    a = np.asarray(recent_actuals, dtype=float)
    f = np.asarray(next_forecasts, dtype=float)
    if len(a) != window or len(f) != window:
        raise ValidationError(f"projection needs {window}-month windows, got {len(a)} and {len(f)}")
    return float(a.sum() - f.sum())


def window_pad(actual: np.ndarray, forecast: np.ndarray) -> float:
    """Aggregate signed pad over a window: sum(deviation) / sum(actual) x 100."""
    a = np.asarray(actual, dtype=float)
    total = float(a.sum())
    if total == 0.0:
        raise NumericError("window actuals sum to zero; aggregate pad undefined")
    return float((a - np.asarray(forecast, dtype=float)).sum() / total * 100.0)


# ------------------------------------------------------------------ report


@dataclass(frozen=True)
class EwaInput:
    """Feeds for one validation cycle.

    `previous_forecast` and `planner_series` are None on the very first
    cycle, when there is nothing to validate yet.
    """

    cycle_month: MonthIndex
    actuals: FeatureSeries
    current_forecast: ForecastSeries
    previous_forecast: Optional[ForecastSeries] = None
    planner_series: Optional[FeatureSeries] = None


@dataclass(frozen=True)
class StepResult:
    """Deviation scoring of one forecast series against actuals."""

    months: tuple[MonthIndex, ...]
    deviations: tuple[float, ...]
    pad_signed: tuple[float, ...]
    pad_absolute: tuple[float, ...]
    colors: tuple[Optional[Color], ...]
    window_pad: float
    alert: Alert


@dataclass(frozen=True)
class EwaReport:
    cycle_month: MonthIndex
    first_cycle: bool
    step1: Optional[StepResult]
    step2: Optional[StepResult]
    steps_disagree: bool
    score: Optional[float]  # None until a previous forecast exists to score
    six_month: Optional[tuple[float, float]]
    projection: Optional[float]
    alert: Alert
    recommendation: Recommendation


def _first_cycle_report(cycle_month: MonthIndex) -> EwaReport:
    log.info("first cycle at %s: nothing to validate yet", cycle_month)
    return EwaReport(
        cycle_month=cycle_month,
        first_cycle=True,
        step1=None,
        step2=None,
        steps_disagree=False,
        score=None,
        six_month=None,
        projection=None,
        alert=Alert.NONE,
        recommendation=Recommendation.USE_BEST_FIT,
    )


def _alert_for(window_pad_value: float, thresholds: EwaThresholds) -> Alert:
    if window_pad_value < thresholds.red_cut:
        return Alert.OVER_FORECAST
    if window_pad_value > thresholds.under_forecast_pad:
        return Alert.UNDER_FORECAST
    return Alert.NONE


def _score_step(
    actuals: FeatureSeries,
    forecast_start: MonthIndex,
    forecast_values: np.ndarray,
    thresholds: EwaThresholds,
) -> Optional[StepResult]:
    """Deviations, pads, colors, and the lookback-window alert for one series."""
    span = MonthInterval(forecast_start, forecast_start + len(forecast_values))
    offsets = np.flatnonzero(defined_on(actuals, span))
    if len(offsets) < thresholds.lookback_months:
        return None
    offsets = offsets[-max(thresholds.lookback_months, thresholds.score_window) :]
    a = actuals.values[offsets + (forecast_start - actuals.start)]
    f = np.asarray(forecast_values, dtype=float)[offsets]
    devs = deviation(a, f)
    signed, absolute = pad(devs, a)
    recent = slice(len(offsets) - thresholds.lookback_months, len(offsets))
    wp = window_pad(a[recent], f[recent])
    return StepResult(
        months=tuple(forecast_start + int(i) for i in offsets),
        deviations=tuple(float(v) for v in devs),
        pad_signed=tuple(float(v) for v in signed),
        pad_absolute=tuple(float(v) for v in absolute),
        colors=month_colors(signed, thresholds.red_cut),
        window_pad=wp,
        alert=_alert_for(wp, thresholds),
    )


def score_previous(
    actuals: FeatureSeries,
    previous_forecast: Optional[ForecastSeries],
    planner_series: Optional[FeatureSeries] = None,
    thresholds: EwaThresholds = EwaThresholds(),
) -> Optional[tuple[StepResult, Optional[StepResult]]]:
    """Steps 1 and 2: score the previous forecast, then the series the
    planner committed to, against the actuals. None on a first cycle.

    This is the only part of EWA that can refuse, and it reads nothing of
    this cycle's forecast, so a cycle can run it before training a model.
    """
    if previous_forecast is None:
        return None
    step1 = _score_step(actuals, previous_forecast.start, previous_forecast.best_fit, thresholds)
    if step1 is None:
        raise ValidationError(
            f"EWA needs {thresholds.lookback_months} months of actuals overlapping "
            f"the previous forecast {previous_forecast.interval}"
        )
    step2 = None
    if planner_series is not None:
        step2 = _score_step(actuals, planner_series.start, planner_series.values, thresholds)
    return step1, step2


def recommend(
    cycle_month: MonthIndex,
    actuals: FeatureSeries,
    current_forecast: ForecastSeries,
    steps: Optional[tuple[StepResult, Optional[StepResult]]],
    thresholds: EwaThresholds = EwaThresholds(),
) -> EwaReport:
    """Step 3 on the steps `score_previous` scored: the score, the alert and
    recommendation from step 1, and the projection of this cycle's forecast."""
    if steps is None:
        return _first_cycle_report(cycle_month)
    step1, step2 = steps
    steps_disagree = step2 is not None and step2.alert is not step1.alert
    if steps_disagree:
        log.warning(
            "EWA steps disagree at %s: forecast says %s, planner selection says %s",
            cycle_month, step1.alert, step2.alert,
        )

    weights = SCORE_PRESETS[thresholds.weights.lower()]
    score = mape_score(step1.colors[-thresholds.score_window :], weights)

    stats = None
    if len(step1.pad_absolute) >= thresholds.score_window:
        stats = six_month_stats(step1.pad_absolute, thresholds.score_window)

    proj = None
    w = thresholds.projection_window
    defined = np.flatnonzero(actuals.defined_mask)
    future = current_forecast.restrict(MonthInterval(cycle_month, cycle_month + w))
    if len(defined) >= w and len(future) == w:
        recent = actuals.values[defined[-w:]]
        proj = projection(recent, future.best_fit, w)

    alert = step1.alert
    if alert is Alert.NONE:
        recommendation = Recommendation.USE_BEST_FIT
    elif abs(step1.window_pad) > thresholds.retrain_pad:
        recommendation = Recommendation.RETRAIN_MODEL
    elif alert is Alert.OVER_FORECAST:
        recommendation = Recommendation.USE_LCI
    else:
        recommendation = Recommendation.USE_UCI

    return EwaReport(
        cycle_month=cycle_month,
        first_cycle=False,
        step1=step1,
        step2=step2,
        steps_disagree=steps_disagree,
        score=score,
        six_month=stats,
        projection=proj,
        alert=alert,
        recommendation=recommendation,
    )


def run_ewa(inputs: EwaInput, thresholds: EwaThresholds = EwaThresholds()) -> EwaReport:
    """The 3-step validation: score the previous forecast, score the planner's
    choice, then pick an alert and recommendation from step 1."""
    steps = score_previous(
        inputs.actuals, inputs.previous_forecast, inputs.planner_series, thresholds
    )
    return recommend(
        inputs.cycle_month, inputs.actuals, inputs.current_forecast, steps, thresholds
    )
