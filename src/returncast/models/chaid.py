"""Multiway tree for a continuous target: decile bins, F-test merge/split.

Each split bins one predictor into deciles, merges adjacent bins that are
statistically alike, and keeps the split only if the across-group ANOVA
survives a Bonferroni-adjusted significance test. The tree grows to the
fixed `MAX_DEPTH`; the spec records the segment size and the two alphas,
not the depth.

A fit scores thousands of small groups of 1 to a few dozen rows, so its
cost is per-call overhead, not arithmetic. So the merge holds each group's
values as Python floats and computes its stats on them with correctly
rounded sums (`math.fsum`), so every mean, sum of squares and p-value is
the same whatever the order of the rows or the groups. The merge keeps
each group's size, mean and sum of squares between passes, and scores an
adjacent pair when it is first read, as folding an undersized group reads
only the two pairs beside it. The decile edges come from the sorted column
rather than `np.unique`, which imports `numpy.ma`; and the F tail is a
standard-library continued fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import FeatureMatrix
from ..errors import NumericError
from .base import ModelKind, ModelsConfig, ModelSpec, TreeModel, register_fitter, require_rows

MAX_DEPTH = 4  # fixed: no config or spec key sets it
DECILES = tuple(i / 10.0 for i in range(1, 10))

_CF_TINY = 1e-300  # keeps a Lentz denominator off zero
_CF_EPS = 1e-16  # stop when a step changes the fraction by less than this
_CF_MAX_STEPS = 10_000


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b), modified Lentz.

    Converges quickly for x < (a + 1) / (a + b + 2), in O(sqrt(max(a, b)))
    steps; the caller switches to the symmetric form above that point.
    """
    tiny = _CF_TINY
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        # two Lentz steps per m, written out: the even term, then the odd
        num = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        h *= c * d
        num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        step = c * d
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _f_sf(f: float, d1: float, d2: float) -> float:
    """Survival function of the F(d1, d2) distribution at f.

    P(F > f) = I_x(d2/2, d1/2) with x = d2 / (d2 + d1 f), the regularized
    incomplete beta. x and 1 - x are formed separately so neither loses
    digits to the other's rounding.
    """
    ratio = d1 * f / d2
    if ratio <= 0.0:  # f <= 0, or an f so small that d1 f / d2 underflows
        return 1.0
    a, b = d2 / 2.0, d1 / 2.0
    x, y = 1.0 / (1.0 + ratio), ratio / (1.0 + ratio)
    # log of x^a (1-x)^b / B(a, b)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        - a * math.log1p(ratio) - b * math.log1p(1.0 / ratio)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, y) / b


def _group_stats(values: list[float]) -> tuple[int, float, float]:
    """(size, mean, within-group sum of squares) of one non-empty group.

    The mean and the sum of squares come from correctly rounded sums, so
    neither depends on the order of the values.
    """
    n = len(values)
    mean = math.fsum(values) / n
    return n, mean, math.fsum((v - mean) * (v - mean) for v in values)


def _anova_p(groups: list[np.ndarray]) -> float:
    """One-way ANOVA F-test p-value across groups of target values."""
    groups = [g.tolist() for g in groups if len(g)]
    return _f_test(groups, [_group_stats(g) for g in groups])


def _f_test(groups: list[list[float]], stats: list[tuple[int, float, float]]) -> float:
    """`_anova_p` of non-empty groups whose `_group_stats` are known."""
    k = len(groups)
    n = sum(size for size, _, _ in stats)
    if k < 2 or n - k <= 0:
        return 1.0
    grand = math.fsum(v for g in groups for v in g) / n
    ssb = math.fsum(size * (mean - grand) ** 2 for size, mean, _ in stats)
    ssw = math.fsum(ss for _, _, ss in stats)
    if ssw <= 1e-300:
        return 0.0 if ssb > 1e-12 else 1.0
    f_stat = (ssb / (k - 1)) / (ssw / (n - k))
    return _f_sf(f_stat, k - 1, n - k)


def _decile_edges(x: np.ndarray) -> np.ndarray:
    """Distinct interior bin edges from order statistics.

    Order statistics (not interpolated quantiles) keep the binning
    equivariant under strictly monotone predictor transforms. The edges are
    `np.unique(np.quantile(x, DECILES, method="lower"))`, read off the
    sorted column: the same order statistics, and as they come out sorted,
    the first of each run of equal values stands for the run. Only the sign
    of a zero edge may differ, as np.unique picks 0.0 or -0.0 by its hash
    table; `searchsorted` takes them as equal, so no bin does.
    """
    ordered = np.sort(x)
    if ordered[-1] != ordered[-1]:  # a NaN sorts last; np.quantile returns it
        return ordered[-1:]
    edges = ordered[[math.floor((len(x) - 1) * q) for q in DECILES]]
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _bin_ids(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(edges, x, side="right")


# a split's groups: each a run of adjacent bin ids, merged
_Groups = tuple[tuple[int, ...], ...]


def _in_group(bins: np.ndarray, g) -> np.ndarray:
    """Row mask of a group: a run of adjacent occupied bins, so a range test
    selects the same rows, in the same order, as membership in ``g``."""
    return (bins >= g[0]) & (bins <= g[-1])


def _merge_bins(
    bins: np.ndarray,
    y: np.ndarray,
    min_segment: int,
    merge_alpha: float,
) -> Optional[tuple[_Groups, float]]:
    """Merge adjacent bins that the F-test cannot distinguish.

    Undersized groups are folded into their most-similar neighbor first.
    Returns the groups and their Bonferroni-adjusted p-value, or None when
    everything collapses into a single group.
    """
    # bin 0 (strictly below the lowest edge) is empty when that edge is the
    # minimum; seed the merge from the occupied bins only
    groups: list[list[int]] = [
        [b] for b in np.flatnonzero(np.bincount(bins)).tolist()
    ]
    occupied = len(groups)
    # each group's values and stats carry over between passes; a pair's
    # p-value is scored when first read and kept until a merge changes one
    # of its groups
    by_bin: dict[int, list[float]] = {g[0]: [] for g in groups}
    for b, v in zip(bins.tolist(), y.tolist()):
        by_bin[b].append(v)
    values = list(by_bin.values())
    stats = [_group_stats(v) for v in values]
    pair_ps: list[Optional[float]] = [None] * (len(groups) - 1)

    def pair_p(i: int) -> float:
        p = pair_ps[i]
        if p is None:
            p = pair_ps[i] = _f_test(values[i : i + 2], stats[i : i + 2])
        return p

    while len(groups) > 1:
        multiplier = len(pair_ps)
        undersized = [i for i, (size, _, _) in enumerate(stats) if size < min_segment]
        if undersized:
            i = undersized[0]
            # merge toward the more similar neighbor
            left_p = pair_p(i - 1) if i > 0 else -1.0
            right_p = pair_p(i) if i < len(pair_ps) else -1.0
            at = i - 1 if left_p >= right_p else i
        else:
            scores = [pair_p(i) for i in range(len(pair_ps))]
            best = max(range(len(scores)), key=scores.__getitem__)
            if min(1.0, scores[best] * multiplier) <= merge_alpha:
                break
            at = best
        groups[at] = groups[at] + groups[at + 1]
        values[at] = values[at] + values[at + 1]
        del groups[at + 1], values[at + 1], stats[at + 1], pair_ps[at]
        stats[at] = _group_stats(values[at])
        if at > 0:
            pair_ps[at - 1] = None
        if at < len(pair_ps):
            pair_ps[at] = None

    if len(groups) < 2:
        return None
    p_raw = _f_test(values, stats)
    # Bonferroni cost of reducing the occupied ordered bins to these groups
    p_adj = min(1.0, p_raw * math.comb(occupied - 1, len(groups) - 1))
    return tuple(tuple(g) for g in groups), p_adj


@dataclass(frozen=True, eq=False)
class ChaidNode:
    value: float
    feature: Optional[int] = None
    edges: Optional[np.ndarray] = None
    groups: _Groups = ()
    children: tuple["ChaidNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def child_for(self, x: np.ndarray) -> "ChaidNode":
        b = int(np.searchsorted(self.edges, float(x[self.feature]), side="right"))
        for g, child in zip(self.groups, self.children):
            if b in g:
                return child
        # every bin but bin 0 holds its lower edge, and the top bin the
        # column's maximum, so only a value below the training minimum can
        # miss every group: clamp it to the lowest
        return self.children[0]


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    min_segment: int,
    merge_alpha: float,
    split_alpha: float,
) -> ChaidNode:
    leaf = ChaidNode(value=float(y.mean()))
    if depth >= MAX_DEPTH or len(y) < 2 * min_segment:
        return leaf

    best: Optional[tuple[float, int, np.ndarray, _Groups]] = None
    for j in range(X.shape[1]):
        edges = _decile_edges(X[:, j])
        merged = _merge_bins(_bin_ids(X[:, j], edges), y, min_segment, merge_alpha)
        if merged is None:
            continue
        groups, p_adjusted = merged
        if best is None or p_adjusted < best[0] - 1e-15:
            best = (p_adjusted, j, edges, groups)

    if best is None or best[0] >= split_alpha:
        return leaf
    _, j, edges, groups = best
    bins = _bin_ids(X[:, j], edges)
    children = []
    for g in groups:
        mask = _in_group(bins, g)
        children.append(_grow(X[mask], y[mask], depth + 1, min_segment, merge_alpha, split_alpha))
    return ChaidNode(
        value=leaf.value,
        feature=j,
        edges=edges,
        groups=groups,
        children=tuple(children),
    )


def fit_chaid(spec: ModelSpec, train: FeatureMatrix) -> TreeModel:
    min_segment = int(spec.param("min_segment", ModelsConfig.chaid_min_segment))
    merge_alpha = float(spec.param("merge_alpha", ModelsConfig.chaid_merge_alpha))
    split_alpha = float(spec.param("split_alpha", ModelsConfig.chaid_split_alpha))
    require_rows(spec.kind, train, 2 * min_segment)
    root = _grow(train.X, train.y, 0, min_segment, merge_alpha, split_alpha)
    return TreeModel(spec, train.predictor_names, train.interval, root)


register_fitter(ModelKind.CHAID, fit_chaid)
