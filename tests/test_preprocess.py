"""Outlier screening/repair and magnitude normalization."""
import numpy as np
import pytest

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
