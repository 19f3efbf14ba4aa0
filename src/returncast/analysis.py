"""Statistical analysis: lifecycle phases, genealogy, correlation, seasonality.

The forecasting approach leans on structure rather than volume: a returns
curve has three GA-anchored phases, the best prior generation is found by
correlating GA-aligned histories, and only strongly correlated predictors
are allowed into the models.

`AnalysisConfig`, the `[analysis]` config section, tunes these rules and
holds their defaults.
"""
from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FeatureSeries,
    GaCalendar,
    GenerationId,
    GenerationSeries,
    MonthIndex,
    MonthInterval,
)
from .errors import NON_NEGATIVE, NumericError, ValidationError

log = logging.getLogger(__name__)

MIN_CORRELATION_POINTS = 3

# `accepts` is the range the config loader takes, as in `returncast.errors`;
# a period below 2 has no season, so the seasonal rule would silently not run;
# a genealogy correlation needs MIN_CORRELATION_POINTS months, so a lower
# overlap floor would act as that one and refuse under the wrong number
_PERIOD = {"accepts": (lambda value: value >= 2, "must be >= 2")}
_OVERLAP = {
    "accepts": (
        lambda value: value >= MIN_CORRELATION_POINTS, f"must be >= {MIN_CORRELATION_POINTS}"
    )
}


@dataclass(frozen=True)
class AnalysisConfig:
    # |r| cut points: below `medium_at` is Weak, at/above `strong_at` is Strong
    medium_at: float = 0.15
    strong_at: float = 0.186
    ramp_up_months: int = field(default=15, metadata=NON_NEGATIVE)
    plateau_months: int = 10  # when the calendar has no launch two generations out
    seasonal_period: int = field(default=12, metadata=_PERIOD)
    # aligned post-trigger return months a donor needs
    min_genealogy_overlap: int = field(default=6, metadata=_OVERLAP)

    def __post_init__(self):
        if not 0 < self.medium_at < self.strong_at <= 1:
            raise ValidationError(
                f"need 0 < medium_at < strong_at <= 1, got {self.medium_at}, {self.strong_at}"
            )


# ---------------------------------------------------------------- lifecycle


# the names of `LifecyclePhases`' fields, in month order
PHASES = ("ramp_up", "plateau", "ramp_down")


@dataclass(frozen=True)
class LifecyclePhases:
    """GA-anchored partition of a returns series into its three phases."""

    ramp_up: MonthInterval
    plateau: MonthInterval
    ramp_down: MonthInterval

    def __post_init__(self):
        if self.ramp_up.end != self.plateau.start or self.plateau.end != self.ramp_down.start:
            raise ValidationError("lifecycle phases must be contiguous and ordered")

    def phase_of(self, month: MonthIndex) -> str | None:
        for name in PHASES:
            if month in getattr(self, name):
                return name
        return None

    def __str__(self) -> str:
        return ", ".join(f"{name} {getattr(self, name)}" for name in PHASES)


def segment_lifecycle(
    returns: FeatureSeries,
    calendar: GaCalendar,
    generation: GenerationId,
    ramp_up_months: int = AnalysisConfig.ramp_up_months,
    plateau_months: int = AnalysisConfig.plateau_months,
) -> LifecyclePhases:
    """Split the post-trigger domain into ramp-up / plateau / ramp-down.

    Ramp-up spans a fixed number of months from the trigger (GA of the next
    generation). Ramp-down starts at GA two generations out when that launch
    is on the calendar, otherwise after a default plateau length. Phases are
    clipped to the series and stay contiguous even when some are empty.
    """
    trigger = calendar.ga_of_next(generation)
    end = returns.end
    domain_start = max(trigger, returns.start)

    nxt = calendar.successor(generation)
    after = calendar.successor(nxt.generation) if nxt is not None else None
    down_start = after.ga_month if after is not None else trigger + (ramp_up_months + plateau_months)

    ramp_up_end = min(trigger + ramp_up_months, end)
    plateau_end = min(max(down_start, ramp_up_end), end)
    return LifecyclePhases(
        ramp_up=MonthInterval(domain_start, ramp_up_end),
        plateau=MonthInterval(ramp_up_end, plateau_end),
        ramp_down=MonthInterval(plateau_end, end),
    )


# -------------------------------------------------------------- correlation


class Strength(enum.Enum):
    WEAK = "Weak"
    MEDIUM = "Medium"
    STRONG = "Strong"

    def __str__(self) -> str:
        return self.value


def _paired_defined(
    a: np.ndarray, a0: int, b: np.ndarray, b0: int, lo: float = -math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """The values of two series, whose first months are `a0` and `b0`, at
    the months from `lo` on that both define."""
    lo, hi = max(a0, b0, lo), min(a0 + len(a), b0 + len(b))
    if lo >= hi:
        return np.empty(0), np.empty(0)
    a, b = a[lo - a0 : hi - a0], b[lo - b0 : hi - b0]
    both = np.isfinite(a) & np.isfinite(b)
    return a[both], b[both]


def pearson_r(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson r of two paired float arrays, or None when either is constant.

    The one correlation arithmetic: the donor analysis and the zoo's
    leaderboard both call it, and each decides what a constant input means.
    Every sum is `np.add.reduce`, the reduction behind `ndarray.sum()`;
    `ndarray.mean()` is that sum divided by the length.
    """
    add = np.add.reduce
    xc = x - add(x) / len(x)
    yc = y - add(y) / len(y)
    sx = math.sqrt(add(xc * xc))
    sy = math.sqrt(add(yc * yc))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(add(xc * yc) / (sx * sy))


def _pearson_arrays(x: np.ndarray, y: np.ndarray, what: str) -> float:
    if len(x) < MIN_CORRELATION_POINTS:
        raise ValidationError(
            f"{what}: need at least {MIN_CORRELATION_POINTS} paired months, got {len(x)}"
        )
    r = pearson_r(x, y)
    if r is None:
        raise NumericError(f"{what}: degenerate feature (zero variance on overlap)")
    return r


def pearson(a: FeatureSeries, b: FeatureSeries) -> float:
    """Pearson correlation over the defined overlap of two series."""
    x, y = _paired_defined(a.values, a.start.value, b.values, b.start.value)
    return _pearson_arrays(x, y, f"pearson({a.name}, {b.name})")


def classify_strength(r: float, config: AnalysisConfig = AnalysisConfig()) -> Strength:
    """Label a correlation by magnitude at the config's cuts; sign is ignored."""
    magnitude = abs(float(r))
    if magnitude > 1.0 + 1e-12:
        raise ValidationError(f"correlation out of range: {r}")
    if magnitude < config.medium_at:
        return Strength.WEAK
    if magnitude < config.strong_at:
        return Strength.MEDIUM
    return Strength.STRONG


@dataclass(frozen=True)
class CorrelationEntry:
    predictor: str
    target: str
    pearson_r: float
    strength: Strength


def build_correlation_table(
    predictors: list[FeatureSeries],
    target: FeatureSeries,
    config: AnalysisConfig = AnalysisConfig(),
) -> tuple[CorrelationEntry, ...]:
    """Correlate each predictor with the target over their defined overlap;
    one entry per kept predictor, in name order.

    Predictors that are degenerate on the overlap (constant, or too few
    paired months) cannot be modeled and are dropped with a warning.
    """
    rows = []
    for p in sorted(predictors, key=lambda s: s.name):
        try:
            r = pearson(p, target)
        except (NumericError, ValidationError) as exc:
            log.warning("dropping predictor %s: %s", p.name, exc)
            continue
        rows.append(
            CorrelationEntry(
                predictor=p.name,
                target=target.name,
                pearson_r=r,
                strength=classify_strength(r, config),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------- genealogy


def _trigger_offset(series: GenerationSeries, calendar: GaCalendar) -> int:
    """The series' first month, counted from the generation's returns trigger."""
    return series.start.value - calendar.ga_of_next(series.generation).value


def genealogy_match(
    current: GenerationSeries,
    candidates: list[GenerationSeries],
    calendar: GaCalendar,
    min_overlap: int = AnalysisConfig.min_genealogy_overlap,
) -> GenerationId:
    """Pick the prior generation whose GA-aligned history best matches `current`.

    Score = mean of the sales correlation (full aligned overlap) and the
    returns correlation (post-trigger overlap). Ties go to the most recent
    candidate by GA month.
    """
    if not candidates:
        raise ValidationError("genealogy match needs at least one candidate")
    scored: list[tuple[float, int, GenerationId]] = []
    for cand in candidates:
        try:
            a0, b0 = _trigger_offset(current, calendar), _trigger_offset(cand, calendar)
            # returns from the trigger on, shipments over the whole overlap
            ret_x, ret_y = _paired_defined(current.gross_returns, a0, cand.gross_returns, b0, lo=0)
            if len(ret_x) < min_overlap:
                log.warning(
                    "genealogy: %s has only %d aligned return months (need %d)",
                    cand.generation, len(ret_x), min_overlap,
                )
                continue
            sal_x, sal_y = _paired_defined(current.shipments, a0, cand.shipments, b0)
            r_returns = _pearson_arrays(ret_x, ret_y, f"returns vs {cand.generation}")
            r_sales = _pearson_arrays(sal_x, sal_y, f"sales vs {cand.generation}")
        except (NumericError, ValidationError) as exc:
            log.warning("genealogy: skipping %s: %s", cand.generation, exc)
            continue
        score = (r_returns + r_sales) / 2.0
        ga = calendar.ga_month(cand.generation)
        scored.append((score, ga.value, cand.generation))
    if not scored:
        raise ValidationError(
            f"no candidate generation has {min_overlap}+ months of aligned overlap "
            f"with {current.generation}"
        )
    scored.sort(key=lambda t: (t[0], t[1]))
    best = scored[-1]
    log.info("genealogy: matched %s to %s (score %.4f)", current.generation, best[2], best[0])
    return best[2]


# -------------------------------------------------------------- seasonality


@dataclass(frozen=True)
class SeasonalDecomposition:
    """Additive split value = trend + seasonal + residual.

    Trend and residual are undefined (NaN) over the half-window edges where
    the centered average has no support.
    """

    trend: FeatureSeries
    seasonal: FeatureSeries
    residual: FeatureSeries
    period: int

    def seasonal_at(self, month: MonthIndex) -> float:
        """Seasonal index for a month, extrapolated by periodicity."""
        offset = (month.value - self.seasonal.start.value) % self.period
        return float(self.seasonal.values[offset])


def _centered_trend(values: np.ndarray, period: int) -> np.ndarray:
    n = len(values)
    trend = np.full(n, np.nan)
    if period % 2 == 1:
        half = period // 2
        for i in range(half, n - half):
            trend[i] = values[i - half : i + half + 1].mean()
    else:
        half = period // 2
        # even period: average of the two straddling windows, so that the
        # window center lands exactly on month i
        for i in range(half, n - half):
            window = values[i - half : i + half + 1].copy()
            window[0] *= 0.5
            window[-1] *= 0.5
            trend[i] = window.sum() / period
    return trend


def decompose_seasonal(
    feature: FeatureSeries, period: int = AnalysisConfig.seasonal_period
) -> SeasonalDecomposition:
    """Classical additive decomposition with a centered moving-average trend."""
    if period < 2:
        raise ValidationError(f"seasonal period must be >= 2, got {period}")
    values = feature.values
    if len(values) < 2 * period:
        raise ValidationError(
            f"{feature.name}: need >= {2 * period} months for period {period}, have {len(values)}"
        )
    if not feature.defined_mask.all():
        raise ValidationError(f"{feature.name}: seasonal decomposition needs a gap-free series")

    trend = _centered_trend(values, period)
    detrended = values - trend

    # positions keyed to absolute month so January is position 0 for period 12
    positions = (feature.start.value + np.arange(len(values))) % period
    indices = np.zeros(period)
    for pos in range(period):
        at = detrended[(positions == pos) & np.isfinite(detrended)]
        indices[pos] = at.mean() if len(at) else 0.0
    indices -= indices.mean()  # a full cycle of seasonal effects cancels out

    seasonal = indices[positions]
    residual = values - trend - seasonal

    def part(name: str, vals: np.ndarray) -> FeatureSeries:
        return FeatureSeries(name=f"{feature.name}_{name}", start=feature.start, values=vals)

    return SeasonalDecomposition(
        trend=part("trend", trend),
        seasonal=part("seasonal", seasonal),
        residual=part("residual", residual),
        period=period,
    )
