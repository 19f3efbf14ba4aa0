"""Supervised model zoo and ranking utilities."""
from .base import (
    DEFAULT_Z_MULTIPLIER,
    FittedModel,
    ForecastSeries,
    LeaderboardRow,
    ModelKind,
    ModelLeaderboard,
    ModelSpec,
    control_intervals,
    evaluate_mape,
    evaluate_zoo,
    fit,
    prediction_correlation,
    rank_models,
    residual_band,
    split_chronological,
)
from .cart import CartModel
from .chaid import ChaidModel
from .linear import LinearModel
from .neural import NeuralModel
from .phasewise import PhaseWiseModel, fit_phasewise, phasewise_spec
from .timeseries import TimeSeriesModel

__all__ = [
    "DEFAULT_Z_MULTIPLIER",
    "FittedModel",
    "ForecastSeries",
    "LeaderboardRow",
    "ModelKind",
    "ModelLeaderboard",
    "ModelSpec",
    "CartModel",
    "ChaidModel",
    "LinearModel",
    "NeuralModel",
    "PhaseWiseModel",
    "TimeSeriesModel",
    "control_intervals",
    "evaluate_mape",
    "evaluate_zoo",
    "fit",
    "fit_phasewise",
    "phasewise_spec",
    "prediction_correlation",
    "rank_models",
    "residual_band",
    "split_chronological",
]
