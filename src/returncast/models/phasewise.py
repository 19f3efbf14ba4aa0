"""Composite model: one sub-model per lifecycle phase.

The ramp phases behave like sloped lines while the plateau is close to
level-plus-noise, so each phase gets the model shape that suits it instead
of forcing one global fit across regime changes. A phase too thin for its
own model falls back to one global Linear fit over the whole matrix, made
the first time a phase needs it and shared by every phase that does.
"""
from __future__ import annotations

import itertools
import logging

import numpy as np

from ..analysis import PHASES, LifecyclePhases
from ..core import FeatureMatrix, MonthIndex, MonthInterval
from ..errors import ValidationError
from .base import (
    FittedModel, ModelKind, ModelsConfig, ModelSpec, fit, register_fitter, require_rows,
)

log = logging.getLogger(__name__)

# hyperparameter names of the phase bounds, in month order
PHASE_BOUNDS = ("ramp_up_start", "plateau_start", "ramp_down_start", "ramp_down_end")


class PhaseWiseModel(FittedModel):
    def __init__(self, spec, predictor_names, window, phases, phase_models, used_fallback):
        super().__init__(spec, predictor_names, window)
        self.phases: LifecyclePhases = phases
        self.phase_models: dict[str, FittedModel] = phase_models
        self.used_fallback: frozenset[str] = frozenset(used_fallback)

    def _phase_for(self, month: MonthIndex) -> str:
        name = self.phases.phase_of(month)
        if name is not None:
            return name
        # outside the segmented domain: nearest phase governs
        return "ramp_up" if month < self.phases.ramp_up.start else "ramp_down"

    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        out = np.empty(len(matrix))
        i = 0
        for name, run in itertools.groupby(self._phase_for(m) for m in matrix.months()):
            j = i + len(list(run))
            out[i:j] = self.phase_models[name].predict(matrix.slice_rows(i, j))
            i = j
        return out


def phasewise_spec(phases: LifecyclePhases, period: int = ModelsConfig.ts_period) -> ModelSpec:
    """The phase-wise spec: the phase bounds as month values, the plateau
    smoother's period and, for the record, the global fallback kind."""
    bounds = (
        phases.ramp_up.start, phases.plateau.start, phases.ramp_down.start, phases.ramp_down.end
    )
    params = {name: m.value for name, m in zip(PHASE_BOUNDS, bounds)}
    return ModelSpec(
        ModelKind.PHASEWISE, {**params, "period": period, "fallback": ModelKind.LINEAR.value}
    )


def fit_phasewise(
    matrix: FeatureMatrix, phases: LifecyclePhases, period: int = ModelsConfig.ts_period
) -> PhaseWiseModel:
    """Fit per-phase sub-models; thin phases fall back to one global line."""
    return fit(phasewise_spec(phases, period), matrix)


def _fit_phasewise(spec: ModelSpec, matrix: FeatureMatrix) -> PhaseWiseModel:
    require_rows(ModelKind.PHASEWISE, matrix, 2)
    try:
        a, b, c, d = (MonthIndex(int(spec.hyperparameters[name])) for name in PHASE_BOUNDS)
    except KeyError as exc:
        raise ValidationError(f"{spec.label()}: spec lacks phase bound {exc}") from None
    phases = LifecyclePhases(
        ramp_up=MonthInterval(a, b), plateau=MonthInterval(b, c), ramp_down=MonthInterval(c, d)
    )
    period = int(spec.param("period", ModelsConfig.ts_period))
    specs = {
        "ramp_up": ModelSpec(ModelKind.LINEAR),
        "plateau": ModelSpec(ModelKind.TIMESERIES, {"seasonal": False, "period": period}),
        "ramp_down": ModelSpec(ModelKind.LINEAR),
    }
    fallback_spec = ModelSpec(ModelKind.LINEAR)
    fallback: FittedModel | None = None
    phase_models: dict[str, FittedModel] = {}
    used_fallback: set[str] = set()
    for name in PHASES:
        window = getattr(phases, name).intersect(matrix.interval)
        sub = matrix.slice_rows(window.start - matrix.start, window.end - matrix.start)
        try:
            phase_models[name] = fit(specs[name], sub)
        except ValidationError as exc:
            log.warning("phase %s falls back to %s: %s", name, fallback_spec.label(), exc)
            if fallback is None:
                fallback = fit(fallback_spec, matrix)
            phase_models[name] = fallback
            used_fallback.add(name)

    return PhaseWiseModel(
        spec, matrix.predictor_names, matrix.interval, phases, phase_models, used_fallback
    )


register_fitter(ModelKind.PHASEWISE, _fit_phasewise)
