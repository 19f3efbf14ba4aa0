"""Binary regression tree with variance-reduction splits."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import FeatureMatrix
from .base import ModelKind, ModelsConfig, ModelSpec, TreeModel, register_fitter, require_rows


@dataclass(frozen=True)
class TreeNode:
    value: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def child_for(self, x: np.ndarray) -> "TreeNode":
        return self.left if x[self.feature] <= self.threshold else self.right


def _sse(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    d = y - y.mean()
    return float((d * d).sum())


def best_split(
    X: np.ndarray, y: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float, float]]:
    """(feature, threshold, sse_reduction) of the best valid split, or None.

    Thresholds are midpoints between consecutive distinct values; rows go
    left when value <= threshold. Ties break toward the lower feature index,
    then the lower threshold, so fits are order-independent.
    """
    n, p = X.shape
    parent = _sse(y)
    best: Optional[tuple[int, float, float]] = None
    for j in range(p):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total, total_sq = csum[-1], csq[-1]
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue  # can't separate equal values
            left_n = i + 1
            right_n = n - left_n
            left_sse = csq[i] - csum[i] ** 2 / left_n
            right_sum = total - csum[i]
            right_sse = (total_sq - csq[i]) - right_sum**2 / right_n
            reduction = parent - (left_sse + right_sse)
            if best is None or reduction > best[2] + 1e-12:
                threshold = (xs[i] + xs[i + 1]) / 2.0
                best = (j, float(threshold), float(reduction))
    if best is None or best[2] <= 1e-12:
        return None
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, min_leaf: int, max_depth: int) -> TreeNode:
    leaf = TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_leaf or _sse(y) <= 1e-12:
        return leaf
    split = best_split(X, y, min_leaf)
    if split is None:
        return leaf
    j, threshold, _ = split
    mask = X[:, j] <= threshold
    return TreeNode(
        value=leaf.value,
        feature=j,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, min_leaf, max_depth),
        right=_grow(X[~mask], y[~mask], depth + 1, min_leaf, max_depth),
    )


def fit_cart(spec: ModelSpec, train: FeatureMatrix) -> TreeModel:
    min_leaf = int(spec.param("min_leaf", ModelsConfig.cart_min_leaf))
    max_depth = int(spec.param("max_depth", ModelsConfig.cart_max_depth))
    require_rows(spec.kind, train, 2 * min_leaf)
    root = _grow(train.X, train.y, 0, min_leaf, max_depth)
    return TreeModel(spec, train.predictor_names, train.interval, root)


register_fitter(ModelKind.CART, fit_cart)
