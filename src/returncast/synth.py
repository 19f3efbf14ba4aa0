"""Synthetic multi-generation scenarios for tests and demos.

Real returns data is proprietary, so acceptance runs on generated families
with known ground truth: trapezoidal returns anchored at the next launch,
shipment bells, receipts that lead returns by a fixed lag, and an upgrade
spike at the next launch. Everything is deterministic under the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FeatureSeries,
    GaCalendar,
    GaEntry,
    GenerationId,
    GenerationSeries,
    MonthIndex,
)
from .errors import ValidationError

DEFAULT_FAMILY = "fleet"


@dataclass(frozen=True)
class ScenarioSpec:
    """Shape parameters for one generated product family."""

    generations: int = 4
    ga_spacing: int = 24
    first_ga: MonthIndex = field(default_factory=lambda: MonthIndex.parse("2008-01"))
    ramp_months: int = 15
    plateau_months: int = 10
    decline_months: int = 9
    peak_volume: float = 400.0
    scale_factor: float = 3.5  # volume growth per generation
    returns_lag: int = 30  # receipts lead returns by this many months
    seasonal_amplitude: float = 0.0  # fraction of each generation's peak
    noise_sd: float = 0.03  # fraction of each generation's peak
    months_after_final_ga: int = 8
    smooth_shape: bool = False  # beta-like curve instead of the trapezoid
    seed: int = 0

    def __post_init__(self):
        # NaN passes every ordering check below, so finiteness comes first
        for name in ("peak_volume", "scale_factor", "seasonal_amplitude", "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("generations", "ga_spacing", "ramp_months", "plateau_months",
                     "decline_months", "returns_lag", "months_after_final_ga"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.generations < 2:
            raise ValidationError("need at least 2 generations (returns need a next launch)")
        if self.scale_factor <= 0 or self.peak_volume <= 0:
            raise ValidationError("peak volume and scale factor must be positive")
        if self.noise_sd < 0 or self.seasonal_amplitude < 0:
            raise ValidationError("noise and seasonal amplitude must be >= 0")
        if self.seed < 0:  # numpy's generator refuses it with a bare ValueError
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GenerationTruth:
    """Noise-free components of one generated generation."""

    generation: GenerationId
    trigger: MonthIndex | None
    ramp_end: MonthIndex | None
    decline_start: MonthIndex | None
    support_end: MonthIndex | None
    true_returns: FeatureSeries
    seasonal: FeatureSeries


@dataclass(frozen=True)
class GroundTruth:
    per_generation: dict[str, GenerationTruth]
    scale_factor: float

    def truth_for(self, generation: GenerationId | str) -> GenerationTruth:
        name = generation if isinstance(generation, str) else generation.name
        return self.per_generation[name]


def _trapezoid(k: float, ramp: int, plateau: int, decline: int) -> float:
    """Unit-peak lifecycle value k months after the trigger.

    Strictly positive on the whole support (the decline's last month keeps
    1/(decline+1) of peak) so percentage-error metrics stay defined.
    """
    if k < 0:
        return 0.0
    if k < ramp:
        return (k + 1) / ramp
    if k < ramp + plateau:
        return 1.0
    if k < ramp + plateau + decline:
        return 1.0 - (k - ramp - plateau + 1) / (decline + 1)
    return 0.0


def _smooth_bump(k: float, width: int) -> float:
    """Beta-like unit-peak curve on [0, width): gradual rise, faster fall."""
    if k < 0 or k >= width:
        return 0.0
    t = (k + 1) / (width + 1)
    raw = t**2 * (1.0 - t)
    peak = (2.0 / 3.0) ** 2 * (1.0 / 3.0)
    return raw / peak


def _bell(k: float, half_width: int) -> float:
    """Parabolic bell peaking at half_width, zero outside [0, 2 * half_width]."""
    u = (k - half_width) / half_width
    return max(0.0, 1.0 - u * u)


def generate(spec: ScenarioSpec) -> tuple[list[GenerationSeries], GaCalendar, GroundTruth]:
    """Build the family: series per generation, its GA calendar, ground truth."""
    rng = np.random.default_rng(spec.seed)
    ga_months = [spec.first_ga + i * spec.ga_spacing for i in range(spec.generations)]
    entries = [
        GaEntry(
            generation=GenerationId(f"gen{i + 1}", ordinal=i + 1),
            family=DEFAULT_FAMILY,
            ga_month=ga_months[i],
        )
        for i in range(spec.generations)
    ]
    calendar = GaCalendar(entries)
    global_end = ga_months[-1] + spec.months_after_final_ga

    series: list[GenerationSeries] = []
    truths: dict[str, GenerationTruth] = {}
    for i, entry in enumerate(entries):
        own_ga = entry.ga_month
        trigger = ga_months[i + 1] if i + 1 < spec.generations else None
        after = ga_months[i + 2] if i + 2 < spec.generations else None
        peak = spec.peak_volume * spec.scale_factor**i
        n = global_end - own_ga
        start = own_ga

        # the decline is triggered by the launch two generations out when
        # that launch happens before the nominal plateau would end
        if trigger is not None:
            nominal_end = trigger + (spec.ramp_months + spec.plateau_months)
            decline_start = min(after, nominal_end) if after is not None else nominal_end
            plateau_eff = max(0, decline_start - trigger - spec.ramp_months)
            support = spec.ramp_months + plateau_eff + spec.decline_months
        else:
            decline_start = None
            plateau_eff = 0
            support = 0

        def curve(month: MonthIndex) -> float:
            if trigger is None:
                return 0.0
            k = month - trigger
            if spec.smooth_shape:
                return peak * _smooth_bump(k, support)
            return peak * _trapezoid(k, spec.ramp_months, plateau_eff, spec.decline_months)

        months = [start + j for j in range(n)]
        true_ret = np.array([curve(m) for m in months])
        amp = spec.seasonal_amplitude * peak
        seasonal = np.array(
            [amp * np.sin(2.0 * np.pi * (m.value % 12) / 12.0) for m in months]
        )
        active = true_ret > 0.0

        noise_scale = spec.noise_sd * peak
        ship_noise = rng.normal(0.0, noise_scale, n)
        upg_noise = rng.normal(0.0, noise_scale * 0.3, n)
        rec_noise = rng.normal(0.0, noise_scale, n)
        ret_noise = rng.normal(0.0, noise_scale, n)

        shipments = np.array([3.0 * peak * _bell(m - own_ga, spec.ramp_months) for m in months])
        shipments = np.maximum(shipments + ship_noise, 0.0)

        upgrades = np.zeros(n)
        if trigger is not None:
            upgrades = np.array(
                [0.4 * peak * float(np.exp(-(((m - trigger) / 3.0) ** 2))) for m in months]
            )
        upgrades = np.maximum(upgrades + upg_noise, 0.0)

        receipts = np.array([0.8 * curve(m + spec.returns_lag) for m in months])
        rec_active = receipts > 0.0
        receipts = np.maximum(receipts + np.where(rec_active, rec_noise, 0.0), 0.0)

        returns = np.where(
            active, np.maximum(true_ret + seasonal + ret_noise, 0.0), 0.0
        )

        series.append(
            GenerationSeries(
                generation=entry.generation,
                start=start,
                shipments=shipments,
                upgrades=upgrades,
                new_receipts=receipts,
                gross_returns=returns,
            )
        )
        truths[entry.generation.name] = GenerationTruth(
            generation=entry.generation,
            trigger=trigger,
            ramp_end=trigger + spec.ramp_months if trigger is not None else None,
            decline_start=decline_start,
            support_end=trigger + support if trigger is not None else None,
            true_returns=FeatureSeries(name="true_returns", start=start, values=true_ret),
            seasonal=FeatureSeries(name="true_seasonal", start=start, values=seasonal),
        )

    return series, calendar, GroundTruth(per_generation=truths, scale_factor=spec.scale_factor)
