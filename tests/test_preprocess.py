"""Outlier screening/repair and magnitude normalization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from returncast.core import MonthInterval
from returncast.errors import NumericError, ValidationError
from returncast.preprocess import (
    detect_outliers,
    normalization_factor,
    normalize_magnitude,
    repair_outliers,
)

from helpers import fs, month


def test_detect_outliers_flags_planted_spike():
    values = np.full(24, 10.0)
    values[7] = 1000.0
    report = detect_outliers(fs(values))
    assert report.months == (month("2010-08"),)
    assert report.values == (1000.0,)
    assert report.count == 1
    # band uses population statistics of the whole series, spike included
    assert report.mean == pytest.approx(values.mean())
    assert report.sd == pytest.approx(values.std())
    assert report.upper == pytest.approx(values.mean() + 3 * values.std())


def test_detect_outliers_constant_series_is_clean():
    report = detect_outliers(fs([5.0] * 12))
    assert report.count == 0
    assert report.sd == 0.0


def test_detect_outliers_ignores_undefined_months():
    values = np.full(18, 10.0)
    values[3] = np.nan
    values[10] = 500.0
    report = detect_outliers(fs(values))
    assert report.months == (month("2010-11"),)


def test_detect_outliers_validation():
    with pytest.raises(ValidationError):
        detect_outliers(fs([1.0]), multiplier=0.0)
    with pytest.raises(ValidationError):
        detect_outliers(fs([np.nan, np.nan]))


def test_repair_outliers_uses_trailing_average_of_original():
    values = np.array([10.0, 12.0, 11.0, 600.0] + [9.0, 10.0, 11.0, 12.0] * 4)
    series = fs(values)
    report = detect_outliers(series)
    assert report.months == (month("2010-04"),)
    repaired = repair_outliers(series, report, w=3)
    # trailing 3-month mean at the flagged month, computed on the raw series
    assert repaired.values[3] == pytest.approx((12.0 + 11.0 + 600.0) / 3.0)
    assert list(repaired.values[:3]) == [10.0, 12.0, 11.0]
    assert list(repaired.values[4:]) == list(values[4:])

    clean = detect_outliers(fs([1.0, 1.0, 1.0], name="other"))
    with pytest.raises(ValidationError):
        repair_outliers(series, clean)  # report for a different feature


def test_repair_outliers_noop_without_flags():
    series = fs([1.0, 2.0, 3.0])
    report = detect_outliers(series)
    assert repair_outliers(series, report) is series


def test_normalization_factor_ratio_of_sums():
    ref = fs([2, 4, 6], name="ref")
    src = fs([1, 2, 3], name="src")
    assert normalization_factor(ref, src) == pytest.approx(2.0)

    window = MonthInterval(month("2010-01"), month("2010-02"))
    assert normalization_factor(ref, src, window, window) == pytest.approx(2.0)


def test_normalization_factor_degenerate_source():
    with pytest.raises(NumericError):
        normalization_factor(fs([1, 2], name="ref"), fs([0, 0], name="src"))
    with pytest.raises(NumericError):
        normalization_factor(
            fs([np.nan, np.nan], name="ref"), fs([1, 2], name="src")
        )


# magnitudes from 1e-3 to 1e6, zero, or NaN (an undefined month)
_HOLEY = arrays(
    np.float64, st.integers(1, 300), elements=st.just(np.nan) | st.just(0.0) | st.floats(1e-3, 1e6)
)


def _reference_window_sum(values) -> float:
    """The `np.nansum` form `normalization_factor` replaced."""
    return float(np.nansum(values)) if np.isfinite(values).any() else float("nan")


@given(ref=_HOLEY, src=_HOLEY, window=st.none() | st.tuples(st.integers(-5, 305), st.integers(0, 310)))
@settings(max_examples=300, deadline=None)
def test_normalization_factor_equals_the_nansum_form_bit_for_bit(ref, src, window):
    a, b = fs(ref, name="ref"), fs(src, name="src")
    if window is not None:
        window = MonthInterval(a.start + window[0], a.start + window[1])
        ref, src = a.restrict(window).values, b.restrict(window).values
    ref_sum, src_sum = _reference_window_sum(ref), _reference_window_sum(src)
    if not np.isfinite(src_sum) or src_sum == 0.0 or not np.isfinite(ref_sum):
        with pytest.raises(NumericError):
            normalization_factor(a, b, window, window)
    else:
        assert normalization_factor(a, b, window, window).hex() == (ref_sum / src_sum).hex()


def _reference_band(values, multiplier) -> tuple[float, float, float, float]:
    """The `ndarray.mean()`/`.std()` form `detect_outliers` replaced."""
    defined = values[np.isfinite(values)]
    mean, sd = float(defined.mean()), float(defined.std())
    return mean, sd, mean - multiplier * sd, mean + multiplier * sd


@given(
    values=_HOLEY.filter(lambda v: np.isfinite(v).any()),
    negate=st.booleans(),
    multiplier=st.floats(0.5, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_detect_outliers_band_equals_the_mean_and_std_form_bit_for_bit(values, negate, multiplier):
    values = -values if negate else values
    report = detect_outliers(fs(values), multiplier)
    band = (report.mean, report.sd, report.lower, report.upper)
    assert [v.hex() for v in band] == [v.hex() for v in _reference_band(values, multiplier)]
    defined = np.isfinite(values)
    flagged = defined & ((values < band[2]) | (values > band[3]))
    start = month("2010-01")
    assert report.months == tuple(start + int(i) for i in np.flatnonzero(flagged))


def test_normalize_magnitude_conserves_reference_volume():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ref = fs(rng.uniform(1, 50, 12), name="ref")
        src = fs(rng.uniform(1, 50, 12), name="src")
        out = normalize_magnitude(src, ref)
        assert out.values.sum() == pytest.approx(ref.values.sum(), rel=1e-12)
        assert out.name == "src_normalized"


def test_normalize_magnitude_scale_equivariance():
    ref = fs([5, 10, 15], name="ref")
    src = fs([1, 2, 3], name="src")
    base = normalize_magnitude(src, ref).values
    scaled = normalize_magnitude(fs(np.array([1, 2, 3]) * 7.0, name="src"), ref).values
    assert np.allclose(base, scaled, rtol=1e-12)
