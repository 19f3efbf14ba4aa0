"""Model zoo plumbing: specs, fitted-model contract, metrics, ranking.

Every model kind lives in its own module and registers a fitter here. All
fits are deterministic: same spec, same seed, same data, same parameters.
`ModelsConfig`, the `[models]` config section, holds the split, the band
and each kind's hyperparameter defaults, which the fitters fall back to.
"""
from __future__ import annotations

import abc
import enum
import logging
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from ..analysis import pearson_r
from ..core import FeatureMatrix, MonthIndex, MonthInterval
from ..errors import AT_LEAST_ONE, NON_NEGATIVE, NumericError, ValidationError

log = logging.getLogger(__name__)

# `accepts` is the range the config loader takes, as in `returncast.errors`;
# a wider band is no plan, and near 1e308 the band overflows to infinity
_Z = {"accepts": (lambda value: 0 <= value <= 10, "must be finite and >= 0, at most 10")}
_FRACTION = {"accepts": (lambda value: 0 < value < 1, "must be strictly between 0 and 1")}
_FINITE_POSITIVE = {
    "accepts": (lambda value: math.isfinite(value) and value > 0, "must be finite and > 0")
}


@dataclass(frozen=True)
class ModelsConfig:
    train_fraction: float = field(default=0.7, metadata=_FRACTION)
    z_multiplier: float = field(default=1.96, metadata=_Z)
    cart_min_leaf: int = field(default=5, metadata=AT_LEAST_ONE)
    cart_max_depth: int = 4
    chaid_min_segment: int = 5
    chaid_merge_alpha: float = 0.05
    chaid_split_alpha: float = 0.05
    nn_hidden_units: int = field(default=8, metadata=AT_LEAST_ONE)
    nn_epochs: int = field(default=2000, metadata=AT_LEAST_ONE)
    nn_learning_rate: float = field(default=0.01, metadata=_FINITE_POSITIVE)
    ts_seasonal: bool = False
    ts_period: int = field(default=12, metadata=AT_LEAST_ONE)
    seed: int = field(default=0, metadata=NON_NEGATIVE)
    include_polynomial: bool = False
    include_phasewise: bool = False


class ModelKind(enum.Enum):
    LINEAR = "LinearRegression"
    CART = "CartTree"
    CHAID = "ChaidTree"
    NEURAL = "NeuralNet"
    TIMESERIES = "TimeSeries"
    PHASEWISE = "PhaseWise"
    POLYNOMIAL = "PolynomialRegression"  # optional extra, off by default

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ModelSpec:
    """Identity of a model: kind, hyperparameters, RNG seed."""

    kind: ModelKind
    # a read-only copy of the mapping given: specs compare by content, never hash
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hyperparameters", MappingProxyType(dict(self.hyperparameters)))

    def param(self, name: str, default):
        return self.hyperparameters.get(name, default)

    def label(self) -> str:
        return self.kind.value


class FittedModel(abc.ABC):
    """A trained model bound to the predictor names it was trained with."""

    def __init__(self, spec: ModelSpec, predictor_names: tuple[str, ...], window: MonthInterval):
        self.spec = spec
        self.predictor_names = tuple(predictor_names)
        self.training_window = window

    @abc.abstractmethod
    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        """Unclamped predictions, one per matrix row."""

    def _check_features(self, matrix: FeatureMatrix) -> None:
        if matrix.predictor_names == self.predictor_names:
            return
        missing = sorted(set(self.predictor_names) - set(matrix.predictor_names))
        extra = sorted(set(matrix.predictor_names) - set(self.predictor_names))
        raise ValidationError(
            f"{self.spec.label()}: predictor names do not match training"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        """Predictions clamped at zero: returns are physical quantities."""
        self._check_features(matrix)
        out = np.asarray(self._predict_raw(matrix), dtype=float)
        if not np.isfinite(out).all():
            raise NumericError(f"{self.spec.label()}: non-finite prediction")
        return np.maximum(out, 0.0)


class TreeModel(FittedModel):
    """A fitted tree. Each row walks from the root to a leaf, whose value is
    the prediction; an inner node picks the child for a row with
    `child_for(row)`, and a node with `is_leaf` set ends the walk."""

    def __init__(self, spec: ModelSpec, predictor_names, window: MonthInterval, root):
        super().__init__(spec, predictor_names, window)
        self.root = root

    def _predict_one(self, x: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.child_for(x)
        return node.value

    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        X = matrix.X
        return np.array([self._predict_one(X[i]) for i in range(len(X))])


_FitterFn = Callable[[ModelSpec, FeatureMatrix], FittedModel]
_FITTERS: dict[ModelKind, _FitterFn] = {}


def register_fitter(kind: ModelKind, fitter: _FitterFn) -> None:
    _FITTERS[kind] = fitter


def fit(spec: ModelSpec, train: FeatureMatrix) -> FittedModel:
    """Train one model; raises if the kind's row minimum is not met."""
    try:
        fitter = _FITTERS[spec.kind]
    except KeyError:
        raise ValidationError(f"no fitter registered for kind {spec.kind.value!r}") from None
    return fitter(spec, train)


def require_rows(kind: ModelKind, train: FeatureMatrix, minimum: int) -> None:
    if len(train) < minimum:
        raise ValidationError(
            f"{kind.value}: needs at least {minimum} training rows, got {len(train)}"
        )


# ------------------------------------------------------------------- split


def split_chronological(
    matrix: FeatureMatrix, train_fraction: float = ModelsConfig.train_fraction
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Early months train, late months test. Random splits would leak the future."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train fraction must be in (0, 1), got {train_fraction}")
    n = len(matrix)
    # epsilon guards against 0.7 * 10 == 7.000000000000001 ceiling to 8
    k = math.ceil(train_fraction * n - 1e-9)
    if k < 1 or k >= n:
        raise ValidationError(f"cannot split {n} rows at fraction {train_fraction}")
    return matrix.slice_rows(0, k), matrix.slice_rows(k, n)


# ------------------------------------------------------------------ metrics


def deviation(actual: np.ndarray, forecast: np.ndarray) -> np.ndarray:
    """Element-wise actual minus forecast; negative means over-forecast."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    if a.shape != f.shape or a.ndim != 1:
        raise ValidationError(f"deviation needs aligned vectors, got {a.shape} vs {f.shape}")
    return a - f


def pad(deviations: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(signed, absolute) percentage deviation; zero-actual months become NaN.

    The one percentage error: MAPE and EWA's month scores both read it.
    """
    d = np.asarray(deviations, dtype=float)
    a = np.asarray(actual, dtype=float)
    if d.shape != a.shape or d.ndim != 1:
        raise ValidationError(f"pad needs aligned vectors, got {d.shape} vs {a.shape}")
    nonzero = a != 0.0
    if not nonzero.any():
        raise NumericError("every actual is zero; percentage deviation is undefined")
    if not nonzero.all():
        log.warning("pad: excluding %d zero-actual months", int((~nonzero).sum()))
    signed = np.full(len(a), np.nan)
    signed[nonzero] = d[nonzero] / a[nonzero] * 100.0
    return signed, np.abs(signed)


def evaluate_mape(actual, forecast) -> float:
    """Mean absolute percentage error; zero-actual months are excluded."""
    a = np.asarray(actual, dtype=float)
    devs = deviation(a, forecast)
    if len(devs) < 1:
        raise ValidationError("need at least one month to evaluate")
    _, absolute = pad(devs, a)
    return float(absolute[a != 0.0].mean())


def prediction_correlation(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Pearson r between predictions and actuals; NaN when either is constant."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if len(p) < 2:
        return float("nan")
    r = pearson_r(p, a)
    if r is None:
        log.warning("constant predictions or actuals; correlation undefined")
        return float("nan")
    return r


# ---------------------------------------------------------------- forecast


@dataclass(frozen=True)
class ForecastSeries:
    """Best-fit curve with its control band and test-set quality metrics."""

    start: MonthIndex
    best_fit: np.ndarray
    lci: np.ndarray
    uci: np.ndarray
    model: ModelSpec
    test_mape: float
    test_correlation: float

    def __post_init__(self):
        for name in ("best_fit", "lci", "uci"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.best_fit) == len(self.lci) == len(self.uci)):
            raise ValidationError("forecast bands must share length")
        for name in ("best_fit", "lci", "uci"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValidationError(f"forecast {name} has non-finite values")
            if (arr < 0).any():
                raise ValidationError(f"forecast {name} has negative values")
        if (self.lci > self.best_fit).any() or (self.best_fit > self.uci).any():
            raise ValidationError("forecast bands must satisfy lci <= best_fit <= uci")

    def __len__(self) -> int:
        return len(self.best_fit)

    @property
    def interval(self) -> MonthInterval:
        return MonthInterval(self.start, self.start + len(self))

    def months(self) -> list[MonthIndex]:
        return list(self.interval)

    def value_at(self, month: MonthIndex, band: str = "best_fit") -> float:
        if month not in self.interval:
            raise ValidationError(f"month {month} outside forecast {self.interval}")
        return float(getattr(self, band)[month - self.start])

    def restrict(self, interval: MonthInterval) -> "ForecastSeries":
        window = self.interval.intersect(interval)
        cut = slice(window.start - self.start, window.end - self.start)
        return replace(self, start=window.start, best_fit=self.best_fit[cut],
                       lci=self.lci[cut], uci=self.uci[cut])


def residual_band(
    best: np.ndarray, residuals: np.ndarray, z: float = ModelsConfig.z_multiplier
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric band of z residual SDs around `best`, floored at 0."""
    half = z * float(residuals.std())
    return np.maximum(best - half, 0.0), np.maximum(best + half, 0.0)


# ------------------------------------------------------------------ ranking


@dataclass(frozen=True)
class LeaderboardRow:
    spec: ModelSpec
    mape_best_fit: float
    mape_lci: float
    mape_uci: float
    correlation: float


@dataclass(frozen=True)
class ModelLeaderboard:
    """Models sorted by test error: ascending best-fit MAPE, ties by higher correlation."""

    rows: tuple[LeaderboardRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def winner(self) -> LeaderboardRow:
        if not self.rows:
            raise ValidationError("leaderboard is empty")
        return self.rows[0]


def rank_models(rows: Sequence[LeaderboardRow]) -> ModelLeaderboard:
    """MAPE is primary; correlation only breaks ties. NaN correlation sorts last."""
    if not rows:
        raise ValidationError("need at least one evaluated model to rank")

    def key(row: LeaderboardRow):
        corr = row.correlation
        if math.isnan(corr):
            corr = float("-inf")
        return (row.mape_best_fit, -corr, row.spec.label())

    return ModelLeaderboard(rows=tuple(sorted(rows, key=key)))


_NO_MODEL = "no model in the zoo could be fitted and evaluated"


def require_scorable(test: FeatureMatrix) -> None:
    """Refuse a test split whose every actual is zero: MAPE is undefined on
    it, so no model could be ranked, whatever it predicts."""
    if not (test.y != 0.0).any():
        raise ValidationError(_NO_MODEL)


def evaluate_zoo(
    specs: Sequence[ModelSpec],
    train: FeatureMatrix,
    test: FeatureMatrix,
    z: float = ModelsConfig.z_multiplier,
) -> tuple[ModelLeaderboard, dict[ModelKind, np.ndarray]]:
    """Fit and score every spec; kinds that cannot fit are skipped with a warning.
    A test split no model could be scored on is refused before any fit.

    Returns the leaderboard and each ranked kind's test residuals (actual
    minus prediction), which size its forecast band.
    """
    require_scorable(test)
    residuals: dict[ModelKind, np.ndarray] = {}
    rows: list[LeaderboardRow] = []
    for spec in specs:
        try:
            predicted = fit(spec, train).predict(test)
            errors = test.y - predicted
            lci, uci = residual_band(predicted, errors, z)
            rows.append(
                LeaderboardRow(
                    spec=spec,
                    mape_best_fit=evaluate_mape(test.y, predicted),
                    mape_lci=evaluate_mape(test.y, lci),
                    mape_uci=evaluate_mape(test.y, uci),
                    correlation=prediction_correlation(predicted, test.y),
                )
            )
            residuals[spec.kind] = errors
        except (ValidationError, NumericError) as exc:
            log.warning("skipping %s: %s", spec.label(), exc)
    if not rows:
        raise ValidationError(_NO_MODEL)
    return rank_models(rows), residuals
