"""Model zoo: split, metrics, the five fitters, bands, ranking."""
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from returncast.analysis import LifecyclePhases
from returncast.config import AppConfig
from returncast.core import FeatureMatrix, MonthInterval
from returncast.errors import NumericError, ValidationError
from returncast.encode import from_json, to_json
from returncast.models import (
    ForecastSeries,
    ModelKind,
    ModelSpec,
    evaluate_mape,
    evaluate_zoo,
    fit,
    fit_phasewise,
    phasewise_spec,
    residual_band,
    split_chronological,
)
from returncast.models import base, chaid
from returncast.models.base import LeaderboardRow, prediction_correlation, rank_models
from returncast.models.cart import best_split
from returncast.models.chaid import (
    DECILES,
    _CF_EPS,
    _CF_MAX_STEPS,
    _CF_TINY,
    _anova_p,
    _beta_cf,
    _bin_ids,
    _decile_edges,
    _f_sf,
    _merge_bins,
)
from returncast.models.neural import _standardizer, loss_and_grad, unpack_params
from returncast.models.timeseries import WEIGHT_GRID
from returncast.pipeline import _zoo

from helpers import fs, month


def matrix(X, y=None, start="2010-01", names=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    names = names or [f"x{j + 1}" for j in range(X.shape[1])]
    predictors = tuple(fs(X[:, j], start=start, name=names[j]) for j in range(X.shape[1]))
    target = None if y is None else fs(y, start=start, name="gross_returns")
    return FeatureMatrix(start=month(start), target=target, predictors=predictors)


# ------------------------------------------------------------------- split


def test_split_chronological_counts():
    m18 = matrix(np.arange(18), np.arange(18) + 1.0)
    train, test = split_chronological(m18)
    assert (len(train), len(test)) == (13, 5)
    assert train.months()[-1] + 1 == test.months()[0]

    m10 = matrix(np.arange(10), np.arange(10) + 1.0)
    train, test = split_chronological(m10)
    assert (len(train), len(test)) == (7, 3)


def test_split_chronological_rejects_bad_inputs():
    m = matrix(np.arange(6), np.ones(6))
    with pytest.raises(ValidationError):
        split_chronological(m, train_fraction=1.0)
    with pytest.raises(ValidationError):
        split_chronological(matrix([1.0], [1.0]))


# ------------------------------------------------------------------ metrics


def test_percentage_error_hand_examples():
    assert evaluate_mape([100, 200], [90, 220]) == pytest.approx(10.0, abs=1e-12)
    assert evaluate_mape([100], [80]) == pytest.approx(20.0)


def test_percentage_error_zero_actuals():
    assert evaluate_mape([0, 100], [50, 90]) == pytest.approx(10.0)
    with pytest.raises(NumericError):
        evaluate_mape([0, 0], [1, 2])
    with pytest.raises(ValidationError):
        evaluate_mape([1, 2], [1, 2, 3])
    with pytest.raises(ValidationError, match="at least one month"):
        evaluate_mape([], [])


def _evaluate_mape_masked_mean(actual, forecast) -> float:
    """MAPE as it was computed before it read `pad`: the mean over the
    nonzero-actual months of |(a - f) / a * 100|."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    nonzero = a != 0.0
    return float(np.abs((a[nonzero] - f[nonzero]) / a[nonzero] * 100.0).mean())


# zero, or a magnitude from 1e-6 to 1e6: no percentage overflows
_MONTH_VALUE = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) >= 1e-6),
    st.floats(min_value=1e-6, max_value=1e-3),
)


@given(
    pairs=st.lists(st.tuples(_MONTH_VALUE, _MONTH_VALUE), min_size=1, max_size=40).filter(
        lambda pairs: any(a != 0.0 for a, _ in pairs)
    )
)
@settings(max_examples=300, deadline=None)
def test_evaluate_mape_equals_the_masked_mean(pairs):
    actual, forecast = (np.array(column) for column in zip(*pairs))
    assert evaluate_mape(actual, forecast) == _evaluate_mape_masked_mean(actual, forecast)


def test_prediction_correlation():
    y = np.array([1.0, 2, 3, 4])
    assert prediction_correlation(2 * y + 5, y) == pytest.approx(1.0)
    assert prediction_correlation(-y, y) == pytest.approx(-1.0)
    assert math.isnan(prediction_correlation(np.ones(4), y))
    assert math.isnan(prediction_correlation(np.array([1.0]), np.array([2.0])))


# ------------------------------------------------------------------ ranking


def _row(kind, mape, corr=0.5):
    return LeaderboardRow(
        spec=ModelSpec(kind), mape_best_fit=mape, mape_lci=mape, mape_uci=mape, correlation=corr
    )


def test_rank_models_reference_scores():
    # published test-set errors for the five kinds
    rows = [
        _row(ModelKind.LINEAR, 6.74, 0.673),
        _row(ModelKind.CART, 8.96, 0.99),
        _row(ModelKind.CHAID, 1.78, 0.973),
        _row(ModelKind.NEURAL, 8.20, 0.847),
        _row(ModelKind.TIMESERIES, 2.51, 0.958),
    ]
    board = rank_models(rows)
    assert [r.spec.label() for r in board] == [
        "ChaidTree", "TimeSeries", "LinearRegression", "NeuralNet", "CartTree",
    ]
    assert board.winner.spec.kind is ModelKind.CHAID
    # ordering is input-order independent
    board2 = rank_models(rows[::-1])
    assert [r.spec.label() for r in board2] == [r.spec.label() for r in board]


def test_rank_models_tie_breaks():
    rows = [
        _row(ModelKind.LINEAR, 5.0, 0.2),
        _row(ModelKind.CART, 5.0, 0.9),
        _row(ModelKind.NEURAL, 5.0, float("nan")),
    ]
    board = rank_models(rows)
    assert [r.spec.kind for r in board] == [ModelKind.CART, ModelKind.LINEAR, ModelKind.NEURAL]
    with pytest.raises(ValidationError):
        rank_models([])


# ------------------------------------------------------------- linear model


def test_linear_recovers_exact_coefficients():
    rng = np.random.default_rng(7)
    X = rng.normal(0, 5, (30, 2))
    y = 50.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1]
    train = matrix(X, y)
    model = fit(ModelSpec(ModelKind.LINEAR), train)
    assert np.allclose(model.predict(train), y, atol=1e-9)
    X_new = rng.normal(0, 5, (6, 2))
    expect = 50.0 + 2.0 * X_new[:, 0] - 0.5 * X_new[:, 1]
    assert np.allclose(model.predict(matrix(X_new, start="2013-01")), expect, atol=1e-9)


def test_linear_handles_collinearity_and_thin_data():
    x1 = np.arange(12.0)
    X = np.column_stack([x1, 2 * x1])  # rank-deficient by construction
    y = 10.0 + 3 * x1
    model = fit(ModelSpec(ModelKind.LINEAR), matrix(X, y))
    assert np.allclose(model.predict(matrix(X, y)), y, atol=1e-3)
    with pytest.raises(ValidationError):
        # one predictor needs p + 2 = 3 rows, so two rows must be refused
        fit(ModelSpec(ModelKind.LINEAR), matrix(np.arange(2.0), np.ones(2)))


def test_polynomial_fits_quadratic_exactly():
    x = np.linspace(-3, 3, 20)
    y = 20.0 + x * x
    train = matrix(x, y)
    model = fit(ModelSpec(ModelKind.POLYNOMIAL), train)
    assert np.allclose(model.predict(train), y, atol=1e-8)


def test_predictions_clamp_at_zero():
    x = np.arange(6.0)
    y = 10.0 - 3.0 * x  # goes negative within the training window
    model = fit(ModelSpec(ModelKind.LINEAR), matrix(x, np.maximum(y, 0) + 0.0 * x))
    # refit on the raw line so the extrapolation is surely negative
    model = fit(ModelSpec(ModelKind.LINEAR), matrix(x, y - y.min() + 1))
    horizon = matrix(np.array([50.0]), start="2011-01")
    assert model.predict(horizon)[0] == 0.0


# --------------------------------------------------------------- regression tree


def _brute_force_best_reduction(X, y, min_leaf):
    """Max SSE reduction over all (feature, midpoint) splits; None if no valid split."""
    n, p = X.shape
    sse = lambda v: float(((v - v.mean()) ** 2).sum()) if len(v) else 0.0
    parent = sse(y)
    best = None
    for j in range(p):
        for i in range(n):
            for k in range(i + 1, n):
                if X[i, j] == X[k, j]:
                    continue
                t = (X[i, j] + X[k, j]) / 2.0
                left = X[:, j] <= t
                if min_leaf <= left.sum() <= n - min_leaf:
                    red = parent - sse(y[left]) - sse(y[~left])
                    if best is None or red > best:
                        best = red
    return best


def test_cart_best_split_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(12, 21))
        p = int(rng.integers(1, 4))
        min_leaf = int(rng.integers(2, 4))
        X = rng.normal(0, 1, (n, p))
        y = rng.normal(10, 4, n)
        got = best_split(X, y, min_leaf)
        expect = _brute_force_best_reduction(X, y, min_leaf)
        assert got is not None and expect is not None
        j, t, reduction = got
        assert reduction == pytest.approx(expect, rel=1e-9)
        # the returned split really achieves the returned reduction
        left = X[:, j] <= t
        sse = lambda v: float(((v - v.mean()) ** 2).sum()) if len(v) else 0.0
        achieved = sse(y) - sse(y[left]) - sse(y[~left])
        assert achieved == pytest.approx(reduction, rel=1e-9)
        assert min_leaf <= left.sum() <= n - min_leaf


def test_cart_best_split_none_cases():
    X = np.arange(10.0)[:, None]
    assert best_split(X, np.ones(10), min_leaf=2) is None
    assert best_split(np.ones((10, 1)), np.arange(10.0), min_leaf=2) is None


def test_cart_recovers_step_function():
    x = np.arange(20.0)
    y = np.where(x < 10, 5.0, 25.0)
    spec = ModelSpec(ModelKind.CART, {"min_leaf": 5, "max_depth": 3})
    train = matrix(x, y)
    model = fit(spec, train)
    assert np.allclose(model.predict(train), y, atol=1e-12)
    # splits depend only on feature order, not scale
    warped = fit(spec, matrix(x**3, y))
    assert np.allclose(warped.predict(matrix(x**3, y)), y, atol=1e-12)


def test_cart_requires_enough_rows():
    with pytest.raises(ValidationError):
        fit(ModelSpec(ModelKind.CART, {"min_leaf": 5}), matrix(np.arange(8.0), np.arange(8.0)))


# ------------------------------------------------------------ segmented tree


def test_chaid_separates_clusters():
    rng = np.random.default_rng(1)
    x = np.repeat(np.arange(10.0), 4)
    y = np.where(x < 5, 10.0, 30.0) + rng.normal(0, 0.01, len(x))
    spec = ModelSpec(ModelKind.CHAID, {"min_segment": 5, "merge_alpha": 0.05, "split_alpha": 0.05})
    train = matrix(x, y)
    model = fit(spec, train)
    pred = model.predict(train)
    assert np.allclose(pred[x < 5], 10.0, atol=0.1)
    assert np.allclose(pred[x >= 5], 30.0, atol=0.1)
    # binning uses order statistics, so any monotone warp gives the same fit
    warped = fit(spec, matrix(x**3, y))
    assert np.allclose(warped.predict(matrix(x**3, y)), pred, atol=1e-9)


def test_chaid_clamps_a_value_below_the_training_minimum_to_the_first_child():
    # x = 0..9 falls in bins 1..9: the lowest edge is the minimum, so bin 0
    # is empty; the step in y at 5 groups the bins (1..5), (6..9)
    x = np.arange(10.0)
    model = fit(ModelSpec(ModelKind.CHAID, {"min_segment": 5}), matrix(x, np.where(x < 5, 1.0, 3.0)))
    assert model.root.groups == ((1, 2, 3, 4, 5), (6, 7, 8, 9))
    first, last = model.root.children
    assert (first.value, last.value) == (1.0, 3.0)
    # -5 lands in bin 0, which no group holds; 100 in the top bin
    assert model.predict(matrix([-5.0, 100.0])).tolist() == [first.value, last.value]


def test_chaid_constant_target_is_single_leaf():
    spec = ModelSpec(ModelKind.CHAID, {"min_segment": 5})
    train = matrix(np.arange(20.0), np.full(20, 7.0))
    model = fit(spec, train)
    assert np.allclose(model.predict(train), 7.0, atol=1e-12)


def test_chaid_requires_enough_rows():
    with pytest.raises(ValidationError):
        fit(ModelSpec(ModelKind.CHAID, {"min_segment": 5}), matrix(np.arange(9.0), np.arange(9.0)))


def _anova_p_reference(groups):
    """The F-test through scipy.stats, as the tree computed it before."""
    groups = [g for g in groups if len(g)]
    k = len(groups)
    n = sum(len(g) for g in groups)
    if k < 2 or n - k <= 0:
        return 1.0
    grand = float(np.concatenate(groups).mean())
    ssb = sum(len(g) * (float(g.mean()) - grand) ** 2 for g in groups)
    ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
    if ssw <= 1e-300:
        return 0.0 if ssb > 1e-12 else 1.0
    f_stat = (ssb / (k - 1)) / (ssw / (n - k))
    return float(stats.f.sf(f_stat, k - 1, n - k))


# relative error of the stdlib F tail against scipy; the tail is a continued
# fraction, not scipy's cephes routine, so the last few digits differ
F_TAIL_REL_TOL = 1e-11


def test_anova_p_matches_scipy_stats():
    rng = np.random.default_rng(7)
    cases = []
    for k in (2, 3, 5, 9):
        for _ in range(40):
            sizes = rng.integers(1, 15, size=k)
            shift = rng.choice([0.0, 0.1, 1.0, 10.0])
            cases.append([rng.normal(shift * i, rng.uniform(0.01, 5.0), size=s)
                          for i, s in enumerate(sizes)])
    cases += [
        [np.array([1.0, 3.0]), np.array([2.0, 2.0])],  # equal means: F = 0
        [np.full(4, 2.0), np.full(3, 5.0)],  # ssw == 0, means differ
        [np.full(4, 2.0), np.full(3, 2.0), np.full(2, 2.0)],  # ssw == 0, means equal
        [np.arange(5.0), np.array([])],  # one non-empty group
        [np.array([]), np.array([])],
        [np.array([1.0]), np.array([2.0])],  # n - k == 0
        [np.array([3.0, 1.0, 2.0]), np.array([1e6, 1e6 + 1.0]), np.array([-4.0])],
    ]
    for groups in cases:
        ours, ref = _anova_p(groups), _anova_p_reference(groups)
        if ref in (0.0, 1.0):  # the early returns are exact
            assert ours == ref
        else:
            assert abs(ours - ref) <= F_TAIL_REL_TOL * ref

    # the degrees of freedom a CHAID split sees: up to ten groups, a few
    # hundred rows; F across the whole body and both tails
    rng = np.random.default_rng(11)
    d1 = rng.integers(1, 10, size=20_000)
    d2 = rng.integers(1, 300, size=20_000)
    f = np.exp(rng.uniform(-8.0, 6.0, size=20_000))
    ref = stats.f.sf(f, d1, d2)
    ours = np.array([_f_sf(float(x), int(a), int(b)) for x, a, b in zip(f, d1, d2)])
    assert np.all(np.abs(ours - ref) <= F_TAIL_REL_TOL * ref)


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 8), (2, 25), (4, 60), (9, 9), (9, 290)])
def test_f_tail_decides_near_alpha_as_scipy_does(d1, d2):
    # merge and split decisions compare the p-value with alpha; an F just
    # either side of scipy's critical value must fall on scipy's side
    alpha = 0.05
    lo, hi = 1e-3, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if special.fdtrc(d1, d2, mid) > alpha:
            lo = mid
        else:
            hi = mid
    for f in (lo * (1 - 1e-9), hi * (1 + 1e-9)):
        assert (_f_sf(f, d1, d2) <= alpha) == (special.fdtrc(d1, d2, f) <= alpha)


def _anova_p_mean_reference(groups):
    """The F-test on the group arrays, as first written, with every sum
    correctly rounded."""
    groups = [g for g in groups if len(g)]
    k = len(groups)
    n = sum(len(g) for g in groups)
    if k < 2 or n - k <= 0:
        return 1.0
    grand = math.fsum(np.concatenate(groups)) / n
    means = [math.fsum(g) / len(g) for g in groups]
    ssb = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ssw = math.fsum(math.fsum((g - m) ** 2) for g, m in zip(groups, means))
    if ssw <= 1e-300:
        return 0.0 if ssb > 1e-12 else 1.0
    f_stat = (ssb / (k - 1)) / (ssw / (n - k))
    return _f_sf(f_stat, k - 1, n - k)


# few distinct levels make ties, constant groups and signed zeros common;
# the wide floats make sums whose rounding depends on their order
_LEVELS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e6, 1e6)),
    min_size=1, max_size=5,
)


@st.composite
def _target_groups(draw):
    levels = draw(_LEVELS)
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    noisy = st.one_of(st.sampled_from(levels), st.floats(-1e3, 1e3))
    groups = []
    for size in sizes:
        value = st.sampled_from(levels) if draw(st.booleans()) else noisy
        groups.append(np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float))
    return groups


@given(groups=_target_groups())
@settings(max_examples=400, deadline=None)
def test_anova_p_equals_the_mean_formulation(groups):
    assert _anova_p(groups) == _anova_p_mean_reference(groups)


@st.composite
def _reordered_target_groups(draw):
    """Groups of target values, and the same groups with the rows inside
    each and the groups themselves permuted."""
    groups = draw(_target_groups())
    rows = [g[draw(st.permutations(range(len(g))))] for g in groups]
    return groups, draw(st.permutations(rows))


# plain left-to-right sums of ssb and ssw round these two orders apart
_THREE_GROUPS = [
    np.array([0.0, 0, 0, 1, 1]), np.array([0.0, 0, 0]), np.array([0.0] * 10 + [1, 1])
]


@given(case=_reordered_target_groups())
@example(case=(_THREE_GROUPS, [_THREE_GROUPS[i] for i in (0, 2, 1)]))
@settings(max_examples=400, deadline=None)
def test_anova_p_ignores_row_and_group_order(case):
    groups, reordered = case
    assert _anova_p(reordered) == _anova_p(groups)


@st.composite
def _predictor_columns(draw):
    n = draw(st.integers(2, 60))
    levels = draw(_LEVELS)
    x = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):  # a strided column, as the tree passes X[:, j]
        x = np.column_stack([x, np.zeros(n)])[:, 0]
    return x


@given(x=_predictor_columns())
@settings(max_examples=400, deadline=None)
def test_decile_edges_equal_unique_lower_quantiles(x):
    ref = np.unique(np.quantile(x, DECILES, method="lower"))
    ours = _decile_edges(x)
    # from a run of zeros np.unique keeps 0.0 or -0.0 by its hash table's
    # order; adding 0.0 turns -0.0 into 0.0 and leaves every other bit
    assert (ours + 0.0).tobytes() == (ref + 0.0).tobytes()
    assert _bin_ids(x, ours).tobytes() == _bin_ids(x, ref).tobytes()


def test_decile_edges_of_a_column_with_nan_match_quantile():
    x = np.array([3.0, np.nan, -0.0, 0.0, 1.0])
    ref = np.unique(np.quantile(x, DECILES, method="lower"))
    assert _decile_edges(x).tobytes() == ref.tobytes()


def _beta_cf_reference(a, b, x):
    """The Lentz continued fraction with both terms of a step in one loop."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericError("no convergence")


@given(
    d1=st.integers(1, 9), d2=st.integers(1, 299), t=st.floats(0.0, 1.0, exclude_max=True)
)
@settings(max_examples=500, deadline=None)
def test_beta_cf_equals_the_two_term_loop(d1, d2, t):
    # _f_sf calls the fraction in the direct and the symmetric form, each
    # anywhere below that form's switch point
    for a, b in ((d2 / 2.0, d1 / 2.0), (d1 / 2.0, d2 / 2.0)):
        x = t * (a + 1.0) / (a + b + 2.0)
        assert _beta_cf(a, b, x) == _beta_cf_reference(a, b, x)


def _merge_bins_reference(bins, y, n_bins, min_segment, merge_alpha):
    """The merge as first written: regroup rows with np.isin and rescore
    every adjacent pair on every pass."""
    groups = [[b] for b in range(n_bins) if np.any(bins == b)]
    occupied = len(groups)

    def values(g):
        return y[np.isin(bins, g)]

    while len(groups) > 1:
        pair_ps = [_anova_p([values(groups[i]), values(groups[i + 1])])
                   for i in range(len(groups) - 1)]
        undersized = [i for i, g in enumerate(groups) if len(values(g)) < min_segment]
        if undersized:
            i = undersized[0]
            left_p = pair_ps[i - 1] if i > 0 else -1.0
            right_p = pair_ps[i] if i < len(pair_ps) else -1.0
            at = i - 1 if left_p >= right_p else i
        else:
            best = max(range(len(pair_ps)), key=lambda i: pair_ps[i])
            if min(1.0, pair_ps[best] * len(pair_ps)) <= merge_alpha:
                break
            at = best
        groups[at] = groups[at] + groups[at + 1]
        del groups[at + 1]
    if len(groups) < 2:
        return None
    p_raw = _anova_p([values(g) for g in groups])
    p_adj = min(1.0, p_raw * math.comb(occupied - 1, len(groups) - 1))
    return tuple(tuple(g) for g in groups), p_adj


@st.composite
def _binned_targets(draw):
    n_bins = draw(st.integers(2, 11))
    # bin 0 is often left empty, as when the lowest decile edge is the minimum
    occupied = draw(st.lists(st.integers(0, n_bins - 1), min_size=1, max_size=n_bins,
                             unique=True))
    n = draw(st.integers(1, 60))
    bins = np.array(draw(st.lists(st.sampled_from(sorted(occupied)), min_size=n, max_size=n)),
                    dtype=np.int64)
    # few distinct levels tie values, noise on some rows makes inexact sums,
    # and some bins hold one constant value
    levels = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    y = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    noise = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    y = y + np.array(draw(st.lists(noise, min_size=n, max_size=n)))
    for b in draw(st.lists(st.sampled_from(sorted(occupied)), unique=True)):
        y[bins == b] = draw(st.sampled_from(levels))
    min_segment = draw(st.integers(1, 8))
    merge_alpha = draw(st.sampled_from([0.01, 0.05, 0.3, 1.0]))
    return bins, y, n_bins, min_segment, merge_alpha


@given(case=_binned_targets())
@settings(max_examples=300, deadline=None)
def test_merge_bins_matches_full_rescore(case):
    # the reference takes the bin count; the merge finds the occupied bins
    assert _merge_bins(*case[:2], *case[3:]) == _merge_bins_reference(*case)


class _EagerMerge:
    """`_merge_bins` as it was before pairs were scored lazily: every
    adjacent pair scored up front and both pairs beside a merged group
    rescored after each merge, on numpy arrays. It counts its F-tests and
    notes which branches a case reached."""

    def __init__(self):
        self.f_tests = 0
        self.seen = set()

    def group_stats(self, g):
        n = len(g)
        mean = math.fsum(g) / n
        d = g - mean
        return n, mean, math.fsum(d * d)

    def f_test(self, groups, stats):
        self.f_tests += 1
        k = len(groups)
        n = sum(size for size, _, _ in stats)
        if k < 2 or n - k <= 0:
            return 1.0
        grand = math.fsum(np.concatenate(groups)) / n
        ssb = math.fsum(size * (mean - grand) ** 2 for size, mean, _ in stats)
        ssw = math.fsum(ss for _, _, ss in stats)
        if ssw <= 1e-300:
            self.seen.add("constant groups")
            return 0.0 if ssb > 1e-12 else 1.0
        f_stat = (ssb / (k - 1)) / (ssw / (n - k))
        return _f_sf(f_stat, k - 1, n - k)

    def __call__(self, bins, y, n_bins, min_segment, merge_alpha):
        groups = [[b] for b in np.flatnonzero(np.bincount(bins, minlength=n_bins)).tolist()]
        occupied = len(groups)
        values = [y[bins == g[0]] for g in groups]
        stats = [self.group_stats(v) for v in values]
        pair_ps = [self.f_test(values[i : i + 2], stats[i : i + 2])
                   for i in range(len(groups) - 1)]
        while len(groups) > 1:
            multiplier = len(pair_ps)
            undersized = [i for i, (size, _, _) in enumerate(stats) if size < min_segment]
            if undersized:
                i = undersized[0]
                left_p = pair_ps[i - 1] if i > 0 else -1.0
                right_p = pair_ps[i] if i < len(pair_ps) else -1.0
                self.seen.add("undersized")
                if left_p == right_p:
                    self.seen.add("equal neighbours")
                at = i - 1 if left_p >= right_p else i
            else:
                best = max(range(len(pair_ps)), key=lambda i: pair_ps[i])
                if min(1.0, pair_ps[best] * multiplier) <= merge_alpha:
                    break
                at = best
            groups[at] = groups[at] + groups[at + 1]
            del groups[at + 1], values[at + 1], stats[at + 1], pair_ps[at]
            values[at] = y[(bins >= groups[at][0]) & (bins <= groups[at][-1])]
            stats[at] = self.group_stats(values[at])
            if at > 0:
                pair_ps[at - 1] = self.f_test(values[at - 1 : at + 1], stats[at - 1 : at + 1])
            if at < len(pair_ps):
                pair_ps[at] = self.f_test(values[at : at + 2], stats[at : at + 2])
        if len(groups) < 2:
            return None
        p_raw = self.f_test(values, stats)
        p_adj = min(1.0, p_raw * math.comb(occupied - 1, len(groups) - 1))
        return tuple(tuple(g) for g in groups), p_adj


def _merge_case(rng):
    n = int(rng.integers(10, 61))
    n_bins = int(rng.integers(2, 11))
    occupied = np.sort(rng.choice(n_bins, size=int(rng.integers(1, n_bins + 1)), replace=False))
    bins = rng.choice(occupied, n)
    style = int(rng.integers(4))
    if style == 0:  # wide noisy floats: inexact sums
        y = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 6.0) + rng.uniform(-1e3, 1e3)
    elif style == 1:  # a few integer levels: exact sums, so tied p-values
        y = rng.integers(0, 3, n).astype(float)
    elif style == 2:  # every bin constant
        y = rng.choice([0.0, -0.0, 2.5, 7.0], n_bins)[bins]
    else:  # mirrored bins around a small middle bin: equal neighbour p-values
        side = rng.integers(0, 4, n // 2 - 1).astype(float)
        middle = rng.integers(0, 4, n - 2 * len(side)).astype(float)
        bins = np.repeat(np.array([0, 1, 2]), [len(side), len(middle), len(side)])
        y, n_bins = np.concatenate([side, middle, side]), 3
    return bins, y, n_bins, int(rng.integers(1, 9)), float(rng.choice([0.01, 0.05, 0.3, 1.0]))


def _bits(merged):
    return None if merged is None else (merged[0], merged[1].hex())


def test_lazy_merge_matches_the_eager_merge(monkeypatch):
    # pairs scored when read give the groups and p-value bits of pairs scored
    # up front, with no more F-tests
    calls = [0]
    f_test = chaid._f_test

    def counted(groups, stats):
        calls[0] += 1
        return f_test(groups, stats)

    monkeypatch.setattr(chaid, "_f_test", counted)
    rng = np.random.default_rng(31)
    eager_total = lazy_total = 0
    seen = set()
    for _ in range(600):
        case = _merge_case(rng)
        eager = _EagerMerge()
        expected = eager(*case)
        calls[0] = 0
        assert _bits(_merge_bins(*case[:2], *case[3:])) == _bits(expected)
        assert calls[0] <= eager.f_tests
        eager_total, lazy_total = eager_total + eager.f_tests, lazy_total + calls[0]
        seen |= eager.seen
    assert seen == {"undersized", "constant groups", "equal neighbours"}
    assert lazy_total < eager_total


# ------------------------------------------------------------ neural network


def test_neural_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    n, p, hidden = 12, 2, 3
    X = rng.normal(0, 1, (n, p))
    y = rng.normal(0, 1, n)
    dim = p * hidden + hidden + hidden + 1
    flat = rng.normal(0, 0.5, dim)
    _, grad = loss_and_grad(flat, X, y, hidden)
    step = 1e-5
    for i in range(dim):
        bumped = flat.copy()
        bumped[i] += step
        up, _ = loss_and_grad(bumped, X, y, hidden)
        bumped[i] -= 2 * step
        down, _ = loss_and_grad(bumped, X, y, hidden)
        numeric = (up - down) / (2 * step)
        assert abs(numeric - grad[i]) <= 1e-4 * max(1.0, abs(grad[i]))


def _loss_and_grad_reference(flat, X, y, hidden, scale=None):
    """The loss and the gradient times `scale * n` (default: the gradient)
    as plain allocating numpy expressions, in the kernel's order and on its
    operand layouts: transposed activations `[Zᵀ; 1; y]`, inputs `[Xᵀ; 1]`,
    and a -1 after the parameters that takes y off the output product."""
    n, p = X.shape
    k = (p + 1) * hidden
    scale = 1.0 / n if scale is None else scale
    inputs = np.vstack((X.T, np.ones(n)))
    zt = np.tanh(flat[:k].reshape(p + 1, hidden).T @ inputs)
    acts = np.vstack((zt, np.ones(n), y))
    err = np.append(flat[k:], -1.0) @ acts
    s = err * scale
    d_zt = flat[k : k + hidden, None] * s * (1.0 - zt * zt)
    grad = np.concatenate([(inputs @ d_zt.T).ravel(), acts[: hidden + 1] @ s])
    return 0.5 * float(err @ err) / n, grad


def _neural_case(rng):
    n, p, hidden = int(rng.integers(10, 61)), int(rng.integers(1, 9)), int(rng.integers(1, 13))
    X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(0.1, 50.0, p) + rng.uniform(-5.0, 5.0, p)
    y = 40.0 + X @ rng.normal(0.0, 2.0, p) + rng.normal(0.0, 1.0, n)
    return X, y, hidden


def test_loss_and_grad_matches_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(60):
        X, y, hidden = _neural_case(rng)
        flat = rng.normal(0.0, 0.5, X.shape[1] * hidden + 2 * hidden + 1)
        loss, grad = loss_and_grad(flat, X, y, hidden)
        ref_loss, ref_grad = _loss_and_grad_reference(flat, X, y, hidden)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("hidden", [1, 2, 3, 8, 12])
def test_loss_and_grad_matches_reference_at_unit_and_folded_shapes(p, hidden):
    # a unit dimension makes BLAS run a product in another routine; every
    # shape must still give the reference bits
    rng = np.random.default_rng(100 * p + hidden)
    for n in (10, 13, 37, 60):
        X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(0.1, 50.0, p)
        y = 40.0 + X @ rng.normal(0.0, 2.0, p) + rng.normal(0.0, 1.0, n)
        flat = rng.normal(0.0, 0.5, p * hidden + 2 * hidden + 1)
        loss, grad = loss_and_grad(flat, X, y, hidden)
        ref_loss, ref_grad = _loss_and_grad_reference(flat, X, y, hidden)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("p, hidden", [(1, 1), (5, 8), (3, 12)])
def test_loss_and_grad_signed_zeros_do_not_reach_the_gradient(p, hidden):
    # BLAS writes the hidden deltas' outer product w2 ⊗ s as +0.0 where the
    # reference's broadcast multiply writes -0.0; the input product sums
    # from +0.0, so the gradient bits are the same
    rng = np.random.default_rng(p + hidden)
    n, k = 13, (p + 1) * hidden
    X = rng.normal(0.0, 1.0, (n, p))
    flat = rng.normal(0.0, 0.5, k + hidden + 1)
    zero_w2 = flat.copy()
    zero_w2[k : k + hidden] = 0.0  # every delta a zero, signed as its residual
    flat_net = flat.copy()
    flat_net[:k] = 0.0  # hidden activations exactly 0: the output is b2
    flat_net[k : k + hidden] = -np.abs(flat_net[k : k + hidden])
    b2 = flat_net[-1]
    cases = [
        (zero_w2, rng.normal(0.0, 1.0, n)),
        (flat_net, np.full(n, b2)),  # every residual exactly zero
        (flat_net, np.where(rng.random(n) < 0.5, b2, rng.normal(0.0, 1.0, n))),
    ]
    for params, y in cases:
        loss, grad = loss_and_grad(params, X, y, hidden)
        ref_loss, ref_grad = _loss_and_grad_reference(params, X, y, hidden)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
    # the cases are what they claim: the broadcast writes negative zeros,
    # and the second case's residuals are exactly zero
    residual = flat[-1] - cases[0][1]
    assert np.signbit(zero_w2[k : k + hidden, None] * residual).any()
    assert np.signbit(flat_net[k : k + hidden, None] * 0.0).all()
    assert loss_and_grad(flat_net, X, cases[1][1], hidden)[0] == 0.0


def _fit_neural_reference(spec, train):
    """Parameters after descent by a loop that builds a new vector per epoch
    and takes every step with the plain-expression gradient, scaled by the
    learning rate over the row count."""
    hidden, epochs, lr = (spec.param(k, None) for k in ("hidden_units", "epochs", "learning_rate"))
    x_mean, x_sd = _standardizer(train.X)
    y_mean, y_sd = _standardizer(train.y)
    xs = (train.X - x_mean) / x_sd
    ys = (train.y - y_mean) / y_sd
    p = xs.shape[1]
    rng = np.random.default_rng(spec.seed)
    flat = np.concatenate([
        rng.standard_normal(p * hidden) / np.sqrt(max(p, 1)),
        np.zeros(hidden),
        rng.standard_normal(hidden) / np.sqrt(hidden),
        np.zeros(1),
    ])
    for _ in range(epochs):
        flat = flat - _loss_and_grad_reference(flat, xs, ys, hidden, lr / len(ys))[1]
    return flat


@pytest.mark.parametrize("epochs, cases", [(1, 40), (2000, 8)])
def test_neural_fit_matches_reference_loop_bit_for_bit(epochs, cases):
    rng = np.random.default_rng(epochs)
    for seed in range(cases):
        X, y, hidden = _neural_case(rng)
        spec = ModelSpec(
            ModelKind.NEURAL,
            {"hidden_units": hidden, "epochs": epochs, "learning_rate": 0.01},
            seed=seed,
        )
        train = matrix(X, y)
        assert fit(spec, train).params.tobytes() == _fit_neural_reference(spec, train).tobytes()


@pytest.mark.parametrize("n, p", [(13, 5), (13, 7), (18, 5)])
def test_neural_fit_matches_reference_loop_at_workload_shapes(n, p):
    # the training matrices the benchmark cycles fit most, at the default width
    rng = np.random.default_rng(n * p)
    X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(0.1, 50.0, p) + rng.uniform(-5.0, 5.0, p)
    y = 40.0 + X @ rng.normal(0.0, 2.0, p) + rng.normal(0.0, 1.0, n)
    spec = ModelSpec(
        ModelKind.NEURAL, {"hidden_units": 8, "epochs": 2000, "learning_rate": 0.01}, seed=p
    )
    train = matrix(X, y)
    assert fit(spec, train).params.tobytes() == _fit_neural_reference(spec, train).tobytes()


@pytest.mark.parametrize("c", [4.0, 0.25, 2.0**20])
def test_neural_fit_is_exactly_scale_equivariant(c):
    # a power of two scales the standardizer's means and deviations exactly,
    # so the descent sees the same standardized rows: the same parameters,
    # and predictions exactly c times the unscaled ones
    rng = np.random.default_rng(41)
    for n, p, hidden in ((13, 5, 8), (13, 1, 8), (18, 8, 8), (24, 3, 1), (10, 1, 1), (28, 2, 3)):
        X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(0.1, 50.0, p) + rng.uniform(-5.0, 5.0, p)
        y = 40.0 + X @ rng.normal(0.0, 2.0, p) + rng.normal(0.0, 1.0, n)
        spec = ModelSpec(
            ModelKind.NEURAL, {"hidden_units": hidden, "epochs": 2000, "learning_rate": 0.01}, seed=n
        )
        train, scaled_train = matrix(X, y), matrix(c * X, c * y)
        model, scaled = fit(spec, train), fit(spec, scaled_train)
        assert scaled.params.tobytes() == model.params.tobytes()
        assert scaled.predict(scaled_train).tobytes() == (c * model.predict(train)).tobytes()


def test_diverging_net_is_skipped_without_runtime_warnings(caplog):
    rng = np.random.default_rng(13)
    t = np.arange(40.0)
    X = np.column_stack([t, 50 + 10 * np.sin(t / 3)])
    y = 30.0 + 2.0 * t + 0.3 * X[:, 1] + rng.normal(0, 1.0, 40)
    train, test = split_chronological(matrix(X, y))
    phases = _phases("2010-01", "2011-04", "2012-02", "2013-05")
    diverging = AppConfig(models=replace(AppConfig().models, nn_learning_rate=50.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        board, residuals = evaluate_zoo(_zoo(diverging, phases), train, test)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert ModelKind.NEURAL not in residuals
    assert ModelKind.NEURAL not in {row.spec.kind for row in board}
    assert "skipping NeuralNet: NeuralNet: non-finite prediction" in caplog.text


def test_unpack_params_shapes():
    w1, b1, w2, b2 = unpack_params(np.arange(13.0), n_inputs=2, hidden=3)
    assert w1.shape == (2, 3) and b1.shape == (3,) and w2.shape == (3,)
    assert b2 == 12.0


def test_neural_fit_is_deterministic_and_learns():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 2, (24, 2))
    y = 40.0 + 3.0 * X[:, 0] - 2.0 * X[:, 1]
    spec = ModelSpec(
        ModelKind.NEURAL, {"hidden_units": 8, "epochs": 2000, "learning_rate": 0.01}, seed=3
    )
    train = matrix(X, y)
    a = fit(spec, train).predict(train)
    b = fit(spec, train).predict(train)
    assert np.array_equal(a, b)
    assert evaluate_mape(y, a) < evaluate_mape(y, np.full_like(y, y.mean()))
    with pytest.raises(ValidationError):
        fit(spec, matrix(X[:9], y[:9]))


# -------------------------------------------------------- smoothing forecaster


def test_timeseries_extends_linear_trend_exactly():
    t = np.arange(10.0)
    y = 5.0 + 2.0 * t
    spec = ModelSpec(ModelKind.TIMESERIES, {"seasonal": False})
    train = matrix(t, y)
    model = fit(spec, train)
    # in-sample replay reproduces the line
    assert np.allclose(model.predict(train), y, atol=1e-9)
    horizon = matrix(np.arange(10.0, 22.0), start="2010-11")
    expect = 5.0 + 2.0 * np.arange(10.0, 22.0)
    assert np.allclose(model.predict(horizon), expect, atol=1e-6)


def test_timeseries_rejects_pre_window_months():
    y = 5.0 + 2.0 * np.arange(10.0)
    model = fit(ModelSpec(ModelKind.TIMESERIES, {"seasonal": False}), matrix(np.arange(10.0), y))
    before = matrix(np.array([0.0]), start="2009-06")
    with pytest.raises(ValidationError):
        model.predict(before)


def test_timeseries_row_minimums():
    with pytest.raises(ValidationError):
        fit(ModelSpec(ModelKind.TIMESERIES, {"seasonal": False}), matrix(np.arange(3.0), np.arange(3.0)))
    with pytest.raises(ValidationError):
        fit(
            ModelSpec(ModelKind.TIMESERIES, {"seasonal": True, "period": 12}),
            matrix(np.arange(20.0), np.arange(20.0) + 1),
        )


def test_timeseries_seasonal_tracks_cycle():
    t = np.arange(36.0)
    y = 100.0 + t + 12.0 * np.sin(2 * np.pi * t / 6)
    spec = ModelSpec(ModelKind.TIMESERIES, {"seasonal": True, "period": 6})
    train = matrix(t, y)
    model = fit(spec, train)
    pred = model.predict(train)
    assert np.isfinite(pred).all()
    # seasonal smoothing should beat a plain trend line on this shape
    line = fit(ModelSpec(ModelKind.LINEAR), train)
    assert evaluate_mape(y, pred) < evaluate_mape(y, line.predict(train))


def test_timeseries_seasonal_forecast_past_the_window():
    # a noise-free trend plus a zero-sum season of period 6
    season = np.array([5.0, -3.0, 8.0, -6.0, 0.0, -4.0])
    t = np.arange(36)
    y = 100.0 + 2.0 * t + season[t % 6]
    model = fit(ModelSpec(ModelKind.TIMESERIES, {"seasonal": True, "period": 6}),
                matrix(t.astype(float), y))
    ahead = np.arange(36, 50)  # 14 months past the window: more than two periods
    pred = model.predict(matrix(ahead.astype(float), start="2013-01"))
    state = model.state
    assert pred.tolist() == [
        state.level + h * state.trend + state.seasonals[(h - 1) % 6] for h in range(1, 15)
    ]
    # within 1% of the truth; dropping the season would miss some months by over 4%
    truth = 100.0 + 2.0 * ahead + season[ahead % 6]
    assert np.all(np.abs(pred - truth) <= 0.01 * truth)


def _holt_reference(y, alpha, beta):
    n = len(y)
    fitted = np.empty(n)
    fitted[0] = y[0]
    level, trend = y[0], y[1] - y[0]
    sse = 0.0
    for t in range(1, n):
        f = level + trend
        fitted[t] = f
        err = y[t] - f
        sse += err * err
        new_level = alpha * y[t] + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return sse, fitted, level, trend, np.zeros(0)


def _holt_winters_reference(y, alpha, beta, gamma, period):
    n = len(y)
    fitted = np.empty(n)
    seasonal = np.empty(n)
    first = float(y[:period].mean())
    second = float(y[period : 2 * period].mean())
    level, trend = first, (second - first) / period
    seasonal[:period] = y[:period] - first
    fitted[:period] = y[:period]
    sse = 0.0
    for t in range(period, n):
        f = level + trend + seasonal[t - period]
        fitted[t] = f
        err = y[t] - f
        sse += err * err
        new_level = alpha * (y[t] - seasonal[t - period]) + (1.0 - alpha) * (level + trend)
        seasonal[t] = gamma * (y[t] - new_level) + (1.0 - gamma) * seasonal[t - period]
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return sse, fitted, level, trend, seasonal[n - period :].copy()


def _smoothing_reference(y, seasonal, period):
    """(weights, run) of the grid point a nested scalar loop keeps: the first
    strictly smaller SSE wins."""
    best = None
    for a in WEIGHT_GRID:
        for b in WEIGHT_GRID:
            for g in WEIGHT_GRID if seasonal else (0.0,):
                run = (_holt_winters_reference(y, a, b, g, period) if seasonal
                       else _holt_reference(y, a, b))
                if best is None or run[0] < best[1][0]:
                    best = ((a, b, g), run)
    return best


def _smoothing_cases():
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(4, 40))
        yield rng.gamma(2.0, 50.0, n) + 3.0 * np.arange(n), False, 12
    for period in (2, 3, 6):
        t = np.arange(period * int(rng.integers(2, 4)) + int(rng.integers(0, period)))
        y = 100.0 + t + 10.0 * np.sin(2 * np.pi * t / period) + rng.normal(0.0, 2.0, len(t))
        yield y, True, period
    # every SSE is exactly zero (not so for every constant: 7.0 leaves
    # rounding residue), so the first grid point must win
    yield np.full(9, 100.0), False, 12
    yield np.full(8, 100.0), True, 4


@pytest.mark.parametrize("y, seasonal, period", list(_smoothing_cases()))
def test_timeseries_grid_matches_nested_scalar_loops(y, seasonal, period):
    model = fit(
        ModelSpec(ModelKind.TIMESERIES, {"seasonal": seasonal, "period": period}), matrix(y, y)
    )
    weights, (sse, fitted, level, trend, seasonals) = _smoothing_reference(y, seasonal, period)
    assert (model.alpha, model.beta, model.gamma) == weights
    if (y == y[0]).all():
        assert sse == 0.0
        assert weights == (WEIGHT_GRID[0], WEIGHT_GRID[0], WEIGHT_GRID[0] if seasonal else 0.0)
    state = model.state
    assert state.sse == sse
    assert state.fitted.tobytes() == fitted.tobytes()
    assert (state.level, state.trend) == (level, trend)
    assert state.seasonals.tobytes() == seasonals.tobytes()


# ---------------------------------------------------------------- phase-wise


def _phases(start, a, b, end):
    return LifecyclePhases(
        ramp_up=MonthInterval(month(start), month(a)),
        plateau=MonthInterval(month(a), month(b)),
        ramp_down=MonthInterval(month(b), month(end)),
    )


def test_phasewise_fits_each_phase_separately():
    rise = np.linspace(10, 100, 15)
    flat = np.full(10, 100.0)
    fall = np.linspace(95, 20, 9)
    y = np.concatenate([rise, flat, fall])
    x = np.arange(len(y), dtype=float)
    train = matrix(x, y, start="2010-01")
    phases = _phases("2010-01", "2011-04", "2012-02", "2012-11")
    model = fit_phasewise(train, phases)
    assert model.used_fallback == frozenset()
    pred = model.predict(train)
    assert evaluate_mape(y, pred) < 2.0
    assert set(model.phase_models) == {"ramp_up", "plateau", "ramp_down"}


def test_phasewise_thin_phase_uses_global_fallback():
    y = np.linspace(10, 100, 18)
    x = np.arange(18.0)
    train = matrix(x, y, start="2010-01")
    # plateau gets 2 rows and ramp-down 1: both below their sub-model minimums
    phases = _phases("2010-01", "2011-04", "2011-06", "2011-07")
    model = fit_phasewise(train, phases)
    assert "plateau" in model.used_fallback and "ramp_down" in model.used_fallback
    assert np.allclose(model.predict(train), y, atol=1e-6)


def _phasewise_case():
    rise = np.linspace(10, 100, 15)
    fall = np.linspace(95, 20, 9)
    y = np.concatenate([rise, np.full(10, 100.0), fall])
    train = matrix(np.arange(len(y), dtype=float), y, start="2010-01")
    return train, _phases("2010-01", "2011-04", "2012-02", "2012-11")


def test_phasewise_spec_fits_like_fit_phasewise():
    train, phases = _phasewise_case()
    spec = phasewise_spec(phases, period=12)
    via_spec = fit(spec, train)
    direct = fit_phasewise(train, phases, period=12)
    assert via_spec.spec == direct.spec == spec
    assert via_spec.phases == phases
    assert np.array_equal(via_spec.predict(train), direct.predict(train))


def test_phasewise_spec_survives_the_record_roundtrip():
    train, phases = _phasewise_case()
    spec = phasewise_spec(phases)
    again = from_json(ModelSpec, json.loads(json.dumps(to_json(spec))))
    assert again == spec
    assert np.array_equal(fit(again, train).predict(train), fit(spec, train).predict(train))


def test_a_spec_keeps_a_read_only_copy_of_its_hyperparameters():
    given = {"min_leaf": 5, "max_depth": 3}
    spec = ModelSpec(ModelKind.CART, given)
    given["min_leaf"] = 1
    assert spec.param("min_leaf", None) == 5
    with pytest.raises(TypeError):
        spec.hyperparameters["min_leaf"] = 1
    # compared by content, in any key order; written as an object
    assert spec == ModelSpec(ModelKind.CART, {"max_depth": 3, "min_leaf": 5})
    written = to_json(spec)["hyperparameters"]
    assert type(written) is dict and written == {"min_leaf": 5, "max_depth": 3}


def test_phasewise_spec_without_bounds_is_rejected():
    train, _ = _phasewise_case()
    with pytest.raises(ValidationError, match="phase bound"):
        fit(ModelSpec(ModelKind.PHASEWISE), train)


def test_phasewise_predicts_outside_segmented_domain():
    y = np.linspace(10, 100, 34)
    train = matrix(np.arange(34.0), y, start="2010-01")
    phases = _phases("2010-01", "2011-04", "2012-02", "2012-11")
    model = fit_phasewise(train, phases)
    later = matrix(np.array([40.0, 41.0]), start="2013-05")
    assert np.isfinite(model.predict(later)).all()


# ------------------------------------------------------------ bands and zoo


def test_residual_band_exact_band():
    residuals = np.array([-10.0, 0.0, 10.0])
    lci, uci = residual_band(np.full(4, 50.0), residuals, z=1.96)
    half = 1.96 * np.std(residuals)
    assert np.allclose(lci, 50.0 - half, atol=1e-12)
    assert np.allclose(uci, 50.0 + half, atol=1e-12)
    # the band is floored at zero
    lci, _ = residual_band(np.full(4, 5.0), np.array([0.0, 40.0, 80.0]), z=1.96)
    assert (lci == 0.0).all()


def test_forecast_series_invariants():
    ok = dict(
        start=month("2011-01"),
        best_fit=np.array([10.0, 20.0]),
        lci=np.array([5.0, 15.0]),
        uci=np.array([15.0, 25.0]),
        model=ModelSpec(ModelKind.LINEAR),
        test_mape=4.0,
        test_correlation=0.9,
    )
    f = ForecastSeries(**ok)
    assert f.value_at(month("2011-02")) == 20.0
    assert f.value_at(month("2011-02"), band="uci") == 25.0

    with pytest.raises(ValidationError):
        ForecastSeries(**{**ok, "lci": np.array([12.0, 15.0])})
    with pytest.raises(ValidationError):
        ForecastSeries(**{**ok, "uci": np.array([15.0])})
    with pytest.raises(ValidationError):
        ForecastSeries(**{**ok, "best_fit": np.array([-1.0, 20.0]), "lci": np.array([-1.0, 15.0])})
    with pytest.raises(ValidationError):
        ForecastSeries(**{**ok, "best_fit": np.array([np.nan, 20.0])})

    cut = f.restrict(MonthInterval(month("2011-02"), month("2011-03")))
    assert len(cut) == 1 and cut.start == month("2011-02")
    again = from_json(ForecastSeries, to_json(f))
    assert again.start == f.start
    assert np.array_equal(again.best_fit, f.best_fit)
    assert again.model == f.model


def test_evaluate_zoo_full_and_degraded():
    rng = np.random.default_rng(13)
    t = np.arange(40.0)
    X = np.column_stack([t, 50 + 10 * np.sin(t / 3)])
    y = 30.0 + 2.0 * t + 0.3 * X[:, 1] + rng.normal(0, 1.0, 40)
    full = matrix(X, y)
    train, test = split_chronological(full)
    phases = _phases("2010-01", "2011-04", "2012-02", "2013-05")
    seeded = AppConfig(models=replace(AppConfig().models, seed=1))
    board, residuals = evaluate_zoo(_zoo(seeded, phases), train, test)
    assert len(board) == 5
    assert set(residuals) == {
        ModelKind.LINEAR, ModelKind.CART, ModelKind.CHAID, ModelKind.NEURAL, ModelKind.TIMESERIES,
    }
    mapes = [r.mape_best_fit for r in board]
    assert mapes == sorted(mapes)

    # 8 training rows: only the line and the smoother clear their row minimums
    small_train = full.slice_rows(0, 8)
    small_test = full.slice_rows(8, 14)
    board, residuals = evaluate_zoo(_zoo(AppConfig(), phases), small_train, small_test)
    assert set(residuals) == {ModelKind.LINEAR, ModelKind.TIMESERIES}

    with pytest.raises(ValidationError):
        evaluate_zoo(_zoo(AppConfig(), phases), full.slice_rows(0, 2), small_test)


def test_evaluate_zoo_refuses_all_zero_test_actuals_before_fitting(monkeypatch):
    calls = []

    def counting(kind, fitter):
        def fitter_counted(spec, train):
            calls.append(kind)
            return fitter(spec, train)

        return fitter_counted

    monkeypatch.setattr(
        base, "_FITTERS", {kind: counting(kind, f) for kind, f in base._FITTERS.items()}
    )
    t = np.arange(20.0)
    full = matrix(t, np.concatenate([1.0 + t[:14], np.zeros(6)]))
    train, test = split_chronological(full)
    assert (test.y == 0.0).all()
    zoo = _zoo(AppConfig(), _phases("2010-01", "2010-06", "2010-12", "2011-08"))
    with pytest.raises(ValidationError, match="^no model in the zoo could be fitted and evaluated$"):
        evaluate_zoo(zoo, train, test)
    assert calls == []
    # the counting fitters are live: a scorable split calls each kind once
    evaluate_zoo(zoo, train, full.slice_rows(8, 14))
    assert sorted(k.value for k in calls) == sorted(s.kind.value for s in zoo)


def test_evaluate_zoo_scores_phasewise_like_any_kind():
    train, phases = _phasewise_case()
    test = matrix(np.arange(34.0, 40.0), np.linspace(18, 8, 6), start="2012-11")
    flags = AppConfig(models=replace(AppConfig().models, include_phasewise=True))
    board, residuals = evaluate_zoo(_zoo(flags, phases), train, test)
    row = next(r for r in board if r.spec.kind is ModelKind.PHASEWISE)
    assert row.spec == phasewise_spec(phases)
    predicted = fit(row.spec, train).predict(test)
    assert np.array_equal(residuals[ModelKind.PHASEWISE], test.y - predicted)
    assert row.mape_best_fit == evaluate_mape(test.y, predicted)
    lci, uci = residual_band(predicted, residuals[ModelKind.PHASEWISE])
    assert (row.mape_lci, row.mape_uci) == (evaluate_mape(test.y, lci), evaluate_mape(test.y, uci))


def test_fit_checks_feature_names():
    x = np.arange(12.0)
    model = fit(ModelSpec(ModelKind.LINEAR), matrix(x, 2 * x + 1))
    renamed = matrix(x, 2 * x + 1, names=["other"])
    with pytest.raises(ValidationError):
        model.predict(renamed)
