"""Ordinary least squares with an intercept, plus a degree-2 variant."""
from __future__ import annotations

import numpy as np

from ..core import FeatureMatrix
from ..errors import NumericError
from .base import FittedModel, ModelKind, ModelSpec, register_fitter, require_rows

RIDGE_LAMBDA = 1e-8


def _solve_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via normal equations; tiny ridge term on singularity."""
    A = np.column_stack([np.ones(len(X)), X])
    gram = A.T @ A
    rhs = A.T @ y
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge = gram + RIDGE_LAMBDA * np.eye(len(gram))
        try:
            return np.linalg.solve(ridge, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge is SPD
            raise NumericError(f"normal equations unsolvable: {exc}") from exc


def _expand_quadratic(X: np.ndarray) -> np.ndarray:
    """Columns x_i plus squares and pairwise products, in a fixed order."""
    n, p = X.shape
    blocks = [X]
    for i in range(p):
        for j in range(i, p):
            blocks.append((X[:, i] * X[:, j]).reshape(n, 1))
    return np.hstack(blocks)


class LinearModel(FittedModel):
    def __init__(self, spec: ModelSpec, predictor_names, window, beta: np.ndarray, quadratic: bool):
        super().__init__(spec, predictor_names, window)
        self.beta = beta
        self.quadratic = quadratic

    def _design(self, X: np.ndarray) -> np.ndarray:
        return _expand_quadratic(X) if self.quadratic else X

    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        X = self._design(matrix.X)
        return self.beta[0] + X @ self.beta[1:]


def fit_linear(spec: ModelSpec, train: FeatureMatrix) -> LinearModel:
    quadratic = spec.kind is ModelKind.POLYNOMIAL
    X = train.X
    if quadratic:
        X = _expand_quadratic(X)
    require_rows(spec.kind, train, X.shape[1] + 2)
    beta = _solve_normal_equations(X, train.y)
    return LinearModel(spec, train.predictor_names, train.interval, beta, quadratic)


register_fitter(ModelKind.LINEAR, fit_linear)
register_fitter(ModelKind.POLYNOMIAL, fit_linear)
