"""Business-rule masking and the lag / moving-average / cumsum transforms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from returncast.core import FeatureSeries
from returncast.errors import ValidationError
from returncast.prep import (
    cumulative_sum,
    exclude_prega_receipts,
    filter_post_ga,
    lag,
    moving_average,
)

from helpers import family_calendar, fs, gen_series, month


def test_filter_post_ga_masks_before_trigger():
    cal = family_calendar("2008-01", "2010-01")
    g = gen_series("gen1", "2009-10", returns=[1, 2, 3, 4, 5, 6], shipments=[7] * 6)
    out = filter_post_ga(g, cal)
    # trigger 2010-01 is month index 3 of the series
    assert np.isnan(out.gross_returns[:3]).all()
    assert list(out.gross_returns[3:]) == [4.0, 5.0, 6.0]
    assert list(out.shipments) == [7.0] * 6  # predictors keep pre-trigger history


def test_filter_post_ga_noop_when_trigger_before_series():
    cal = family_calendar("2008-01", "2010-01")
    g = gen_series("gen1", "2011-01", returns=[1, 2, 3])
    assert filter_post_ga(g, cal) is g


def test_filter_post_ga_requires_surviving_months():
    cal = family_calendar("2008-01", "2012-01")
    g = gen_series("gen1", "2010-01", returns=[1, 2, 3])
    with pytest.raises(ValidationError):
        filter_post_ga(g, cal)


def test_exclude_prega_receipts_window():
    cal = family_calendar("2008-01", "2010-01")
    g = gen_series("gen1", "2009-01", returns=[0] * 18, receipts=list(range(1, 19)))
    out = exclude_prega_receipts(g, cal)
    # excluded window is [2009-07, 2009-12]: the 6 months before the 2010-01 GA
    rec = out.new_receipts
    assert list(rec[:6]) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert np.isnan(rec[6:12]).all()
    assert list(rec[12:]) == [13.0, 14.0, 15.0, 16.0, 17.0, 18.0]


def test_exclude_prega_receipts_clipped_and_disjoint():
    cal = family_calendar("2008-01", "2010-01")
    late = gen_series("gen1", "2009-11", returns=[0] * 4, receipts=[1, 2, 3, 4])
    clipped = exclude_prega_receipts(late, cal)
    assert np.isnan(clipped.new_receipts[:2]).all()  # only 2009-11/12 fall in window
    assert list(clipped.new_receipts[2:]) == [3.0, 4.0]
    after = gen_series("gen1", "2010-02", returns=[0, 0], receipts=[1, 2])
    assert exclude_prega_receipts(after, cal) is after


def test_lag_shifts_domain():
    s = fs([10, 20, 30], start="2010-01", name="shipments")
    out = lag(s, 24)
    assert out.name == "shipments_lag_24"
    assert out.start == month("2012-01")
    assert out.value_at(month("2012-02")) == s.value_at(month("2010-02"))
    assert lag(s, 0) is s
    with pytest.raises(ValidationError):
        lag(s, -1)


def test_moving_average_shrinking_prefix():
    # spec by example: the first w-1 months average whatever prefix exists
    out = moving_average(fs([4, 7, 10]), 3)
    assert list(out.values) == [4.0, 5.5, 7.0]
    out = moving_average(fs([0, 100, 0]), 3)
    assert out.values[0] == 0.0
    assert out.values[1] == 50.0
    assert out.values[2] == pytest.approx(100.0 / 3.0)


def test_moving_average_resets_at_holes():
    out = moving_average(fs([1, 1, np.nan, 5, 7]), 2)
    assert list(out.values[:2]) == [1.0, 1.0]
    assert np.isnan(out.values[2])
    assert list(out.values[3:]) == [5.0, 6.0]  # window never straddles the hole


def test_moving_average_window_validation():
    s = fs([1, 2, 3])
    assert moving_average(s, 1) is s
    with pytest.raises(ValidationError):
        moving_average(s, 0)


@given(
    values=st.lists(
        st.one_of(st.none(), st.floats(min_value=-100, max_value=100)),
        min_size=1,
        max_size=30,
    ),
    w=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_moving_average_matches_brute_force(values, w):
    arr = np.array([np.nan if v is None else v for v in values], dtype=float)
    got = moving_average(fs(arr), w).values

    for i in range(len(arr)):
        if not np.isfinite(arr[i]):
            assert np.isnan(got[i])
            continue
        j = i
        while j > 0 and np.isfinite(arr[j - 1]):
            j -= 1
        lo = max(j, i - w + 1)
        expect = float(np.mean(arr[lo : i + 1]))
        assert got[i] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_cumulative_sum_skips_holes_after_start():
    out = cumulative_sum(fs([np.nan, 1, 2, np.nan, 3]))
    assert np.isnan(out.values[0])
    assert list(out.values[1:3]) == [1.0, 3.0]
    assert np.isnan(out.values[3])
    assert out.values[4] == 6.0
    assert out.name == "f_cumsum"


def test_cumulative_sum_all_undefined():
    out = cumulative_sum(fs([np.nan, np.nan]))
    assert np.isnan(out.values).all()


# ------------------------------------- references: the loops these replaced


def _reference_lag(feature: FeatureSeries, k: int) -> FeatureSeries:
    if k == 0:
        return feature
    return feature.shift(k).with_values(feature.values, name=f"{feature.name}_lag_{k}")


def _reference_trailing_mean_run(values: np.ndarray, w: int) -> np.ndarray:
    csum = np.cumsum(values)
    out = np.empty_like(values)
    for i in range(len(values)):
        lo = max(0, i - w + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


def _reference_per_defined_run(values: np.ndarray, func) -> np.ndarray:
    out = np.full(len(values), np.nan)
    mask = np.isfinite(values)
    i = 0
    while i < len(values):
        if not mask[i]:
            i += 1
            continue
        j = i
        while j < len(values) and mask[j]:
            j += 1
        out[i:j] = func(values[i:j])
        i = j
    return out


def _reference_moving_average(feature: FeatureSeries, w: int) -> FeatureSeries:
    if w == 1:
        return feature
    smoothed = _reference_per_defined_run(
        feature.values, lambda run: _reference_trailing_mean_run(run, w)
    )
    return feature.with_values(smoothed, name=f"{feature.name}_ma_{w}")


def _reference_cumulative_sum(feature: FeatureSeries) -> FeatureSeries:
    values = feature.values
    out = np.full(len(values), np.nan)
    total = 0.0
    started = False
    for i, v in enumerate(values):
        if np.isfinite(v):
            total += v
            started = True
            out[i] = total
        elif started:
            out[i] = np.nan
    return feature.with_values(out, name=f"{feature.name}_cumsum")


def _same_series(got: FeatureSeries, expected: FeatureSeries) -> None:
    assert (got.name, got.start) == (expected.name, expected.start)
    assert got.values.tobytes() == expected.values.tobytes()


# leading, inner and trailing holes; -0.0 and magnitudes whose sums round
_HOLEY = st.lists(
    st.one_of(
        st.none(),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([0.0, -0.0, 0.1, 1e-9, 3.3e5]),
    ),
    max_size=40,
)


@given(values=_HOLEY, w=st.integers(min_value=1, max_value=45), k=st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_transforms_match_reference_loops_bit_for_bit(values, w, k):
    feature = fs([np.nan if v is None else v for v in values], start="2010-03", name="ship")
    _same_series(lag(feature, k), _reference_lag(feature, k))
    _same_series(moving_average(feature, w), _reference_moving_average(feature, w))
    _same_series(cumulative_sum(feature), _reference_cumulative_sum(feature))


@pytest.mark.parametrize(
    "values",
    [
        [np.nan, np.nan, 1.5, 2.25, np.nan, 0.1, 0.2, 0.3, np.nan],
        [-0.0, -0.0, 1.0, np.nan, -0.0],
        [0.1] * 25,
        [np.nan] * 4,
        [],
    ],
)
@pytest.mark.parametrize("w", [2, 3, 6, 30])
def test_transforms_match_reference_loops_on_fixed_holes(values, w):
    feature = fs(values, name="ship")
    _same_series(lag(feature, 24), _reference_lag(feature, 24))
    _same_series(moving_average(feature, w), _reference_moving_average(feature, w))
    _same_series(cumulative_sum(feature), _reference_cumulative_sum(feature))


def test_lag_is_a_renamed_read_only_view():
    feature = fs([1.0, np.nan, 3.0], start="2010-01", name="ship")
    lagged = lag(feature, 24)
    assert (lagged.name, lagged.start) == ("ship_lag_24", month("2012-01"))
    assert np.shares_memory(lagged.values, feature.values)
    with pytest.raises(ValueError):
        lagged.values.flags.writeable = True
