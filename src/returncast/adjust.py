"""Rule-based corrections applied to a forecast before it is reported.

Models extrapolate; these rules anchor the result to the product's
lifecycle: known seasonality is layered in (dampened while the generation
is still active), and months before the returns onset are zeroed because
hardware cannot come back before it has aged.

`AdjustConfig`, the `[adjust]` config section, tunes the rules and holds
their defaults.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import GaCalendar, GenerationId, MonthIndex
from .analysis import SeasonalDecomposition
from .models import ForecastSeries

# `accepts` is the range the config loader takes, as in `returncast.errors`;
# a larger damp lets the seasonal layer overflow the forecast to infinity
_DAMP = {"accepts": (lambda value: -10 <= value <= 10, "must be finite and between -10 and 10")}


@dataclass(frozen=True)
class AdjustConfig:
    seasonal_damp: float = field(default=0.8, metadata=_DAMP)  # while the generation is active
    onset_months: int = 12  # months after GA before any return
    apply_seasonal: bool = True


@dataclass(frozen=True)
class AdjustmentNote:
    """One applied rule, itemized for the run report."""

    rule: str
    factor: Optional[float]
    months: tuple[MonthIndex, ...]

    def describe(self) -> str:
        span = f"{self.months[0]}..{self.months[-1]}" if self.months else "-"
        if self.factor is None:
            return f"{self.rule} [{span}]"
        return f"{self.rule} x{self.factor:.4f} [{span}]"


@dataclass(frozen=True)
class AdjustResult:
    forecast: ForecastSeries
    notes: tuple[AdjustmentNote, ...]

    def describe(self) -> str:
        return "; ".join(n.describe() for n in self.notes) if self.notes else "none"


def adjust_forecast(
    forecast: ForecastSeries,
    calendar: GaCalendar,
    generation: GenerationId,
    seasonal: Optional[SeasonalDecomposition] = None,
    config: AdjustConfig = AdjustConfig(),
) -> AdjustResult:
    """Apply the post-forecast rules in order, tuned by `config`; every
    change is itemized. The forecast's first month is the decision point.
    `apply_seasonal` is the caller's to honour: it decides whether to pass
    `seasonal` at all.

    Seasonal injection is a one-shot enrichment: pass the decomposition only
    on the first application.
    """
    best = forecast.best_fit.copy()
    lci = forecast.lci.copy()
    uci = forecast.uci.copy()
    notes: list[AdjustmentNote] = []

    # layer in seasonality, dampened while the generation is active
    if seasonal is not None:
        nxt = calendar.successor(generation)
        after = calendar.successor(nxt.generation) if nxt is not None else None
        active = after is None or after.ga_month >= forecast.start
        damp = config.seasonal_damp if active else 1.0
        component = np.array([seasonal.seasonal_at(m) * damp for m in forecast.months()])
        best = np.maximum(best + component, 0.0)
        lci = np.maximum(lci + component, 0.0)
        uci = np.maximum(uci + component, 0.0)
        notes.append(AdjustmentNote("seasonal", damp, tuple(forecast.months())))

    # no returns before the onset lag after this generation's own GA
    onset = calendar.ga_month(generation) + config.onset_months
    cut = min(len(best), onset - forecast.start)
    if cut > 0 and ((best[:cut] != 0.0).any() or (uci[:cut] != 0.0).any()):
        zeroed = [forecast.start + i for i in range(cut)]
        best[:cut] = 0.0
        lci[:cut] = 0.0
        uci[:cut] = 0.0
        notes.append(AdjustmentNote("zero_before_onset", None, tuple(zeroed)))

    adjusted = replace(forecast, best_fit=best, lci=lci, uci=uci)
    return AdjustResult(forecast=adjusted, notes=tuple(notes))
