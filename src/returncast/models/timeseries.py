"""Exponential smoothing with a linear trend and optional additive seasonality.

Smoothing weights come from a coarse grid search minimizing in-sample
one-step-ahead squared error; no predictor columns are used, only the
target's own history, so prediction is indexed purely by month.

One pass over the months runs the recursion for every grid point at once
(19² Holt or 19³ Holt-Winters weight combinations). Tie-break: the winner
is the first point of least SSE in nested-loop order, alpha outermost, then
beta, then gamma, so equal SSEs go to the smaller alpha, then beta, then
gamma.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FeatureMatrix
from ..errors import ValidationError
from .base import FittedModel, ModelKind, ModelsConfig, ModelSpec, register_fitter, require_rows

MIN_ROWS_NONSEASONAL = 4
WEIGHT_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass(frozen=True)
class _SmoothState:
    """The recursion's result for one weight choice or, from the `_run_*`
    functions, for every grid point at once: each field then gains a last
    axis with one entry per point."""

    sse: float
    fitted: np.ndarray
    level: float
    trend: float
    seasonals: np.ndarray  # last `period` seasonal indices, in month order

    def at(self, point: int) -> "_SmoothState":
        return _SmoothState(
            self.sse[point],
            self.fitted[:, point].copy(),
            self.level[point],
            self.trend[point],
            self.seasonals[:, point].copy(),
        )


def _weight_grid(dims: int) -> list[np.ndarray]:
    """One array per weight over every grid point, in nested-loop order."""
    axes = np.meshgrid(*[np.array(WEIGHT_GRID)] * dims, indexing="ij")
    return [axis.ravel() for axis in axes]


def _run_holt(y: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> _SmoothState:
    n, points = len(y), len(alpha)
    fitted = np.empty((n, points))
    fitted[0] = y[0]
    level = np.full(points, y[0])
    trend = np.full(points, y[1] - y[0])
    sse = np.zeros(points)
    keep_level, keep_trend = 1.0 - alpha, 1.0 - beta
    for t in range(1, n):
        f = level + trend
        fitted[t] = f
        err = y[t] - f
        sse += err * err
        new_level = alpha * y[t] + keep_level * f
        trend = beta * (new_level - level) + keep_trend * trend
        level = new_level
    return _SmoothState(sse, fitted, level, trend, np.zeros((0, points)))


def _run_holt_winters(
    y: np.ndarray, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, period: int
) -> _SmoothState:
    n, points = len(y), len(alpha)
    fitted = np.empty((n, points))
    seasonal = np.empty((n, points))
    first = float(y[:period].mean())
    second = float(y[period : 2 * period].mean())
    level = np.full(points, first)
    trend = np.full(points, (second - first) / period)
    seasonal[:period] = (y[:period] - first)[:, None]
    fitted[:period] = y[:period, None]
    sse = np.zeros(points)
    keep_level, keep_trend, keep_seasonal = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    for t in range(period, n):
        last = seasonal[t - period]
        base = level + trend
        f = base + last
        fitted[t] = f
        err = y[t] - f
        sse += err * err
        new_level = alpha * (y[t] - last) + keep_level * base
        seasonal[t] = gamma * (y[t] - new_level) + keep_seasonal * last
        trend = beta * (new_level - level) + keep_trend * trend
        level = new_level
    return _SmoothState(sse, fitted, level, trend, seasonal[n - period :])


class TimeSeriesModel(FittedModel):
    """Prediction is by month index: in-sample months replay the fitted curve,
    later months extrapolate from the final level/trend/seasonal state."""

    def __init__(self, spec: ModelSpec, window, state: _SmoothState, weights, period, seasonal):
        super().__init__(spec, (), window)
        self.state = state
        self.alpha, self.beta, self.gamma = weights
        self.period = period
        self.seasonal = seasonal

    def _check_features(self, matrix: FeatureMatrix) -> None:
        pass  # history-only model; predictor columns are irrelevant

    def _forecast_ahead(self, h: int) -> float:
        value = self.state.level + h * self.state.trend
        if self.seasonal:
            value += self.state.seasonals[(h - 1) % self.period]
        return value

    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        n = len(self.state.fitted)
        out = np.empty(len(matrix))
        for row, month in enumerate(matrix.months()):
            i = month - self.training_window.start
            if i < 0:
                raise ValidationError(
                    f"{self.spec.label()}: month {month} precedes training window "
                    f"{self.training_window}"
                )
            out[row] = self.state.fitted[i] if i < n else self._forecast_ahead(i - n + 1)
        return out


def fit_timeseries(spec: ModelSpec, train: FeatureMatrix) -> TimeSeriesModel:
    seasonal = bool(spec.param("seasonal", ModelsConfig.ts_seasonal))
    period = int(spec.param("period", ModelsConfig.ts_period))
    require_rows(spec.kind, train, 2 * period if seasonal else MIN_ROWS_NONSEASONAL)
    y = train.y

    grid = _weight_grid(3 if seasonal else 2)
    runs = _run_holt_winters(y, *grid, period) if seasonal else _run_holt(y, *grid)
    # first minimum in nested-loop order, as a strict `<` scan would keep
    best = int(np.argmin(runs.sse))
    weights = tuple(float(axis[best]) for axis in grid)
    if not seasonal:
        weights += (0.0,)  # gamma
    return TimeSeriesModel(spec, train.interval, runs.at(best), weights, period, seasonal)


register_fitter(ModelKind.TIMESERIES, fit_timeseries)
