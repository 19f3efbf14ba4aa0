"""Supervised model zoo and ranking utilities."""
# each kind's module registers its fitter on import
from . import cart, chaid, linear, neural, timeseries  # noqa: F401
from .base import (
    ForecastSeries,
    ModelKind,
    ModelLeaderboard,
    ModelsConfig,
    ModelSpec,
    evaluate_mape,
    evaluate_zoo,
    fit,
    require_scorable,
    residual_band,
    split_chronological,
)
from .phasewise import fit_phasewise, phasewise_spec

__all__ = [
    "ForecastSeries",
    "ModelKind",
    "ModelLeaderboard",
    "ModelsConfig",
    "ModelSpec",
    "evaluate_mape",
    "evaluate_zoo",
    "fit",
    "fit_phasewise",
    "phasewise_spec",
    "require_scorable",
    "residual_band",
    "split_chronological",
]
