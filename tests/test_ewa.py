"""Forecast validation: deviations, traffic lights, scores, alerts."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from returncast.config import load_config
from returncast.core import FeatureSeries, MonthIndex, MonthInterval
from returncast.encode import to_json
from returncast.errors import NumericError, ValidationError
from returncast.ewa import (
    SCORE_PRESETS,
    SIGNED_WEIGHTS,
    Alert,
    Color,
    EwaInput,
    EwaThresholds,
    Recommendation,
    color,
    deviation,
    mape_score,
    month_colors,
    pad,
    projection,
    run_ewa,
    six_month_stats,
    window_pad,
    _score_step,
)
from returncast.models import ForecastSeries, ModelKind, ModelSpec

from helpers import fs, month


def forecast_of(values, start="2012-01", spread=0.0):
    best = np.asarray(values, dtype=float)
    return ForecastSeries(
        start=month(start),
        best_fit=best,
        lci=np.maximum(best - spread, 0.0),
        uci=best + spread,
        model=ModelSpec(ModelKind.LINEAR),
        test_mape=5.0,
        test_correlation=0.9,
    )


# --------------------------------------------------------------- primitives


def test_deviation_hand_example():
    got = deviation([90, 100, 110], [100, 100, 100])
    assert np.array_equal(got, [-10.0, 0.0, 10.0])
    with pytest.raises(ValidationError):
        deviation([1, 2], [1, 2, 3])


def test_pad_hand_example():
    signed, absolute = pad([-10.0, 0.0, 10.0], [100.0, 100.0, 100.0])
    assert np.array_equal(signed, [-10.0, 0.0, 10.0])
    assert np.array_equal(absolute, [10.0, 0.0, 10.0])


def test_pad_zero_actuals():
    signed, _ = pad([5.0, -20.0], [0.0, 100.0])
    assert math.isnan(signed[0]) and signed[1] == -20.0
    with pytest.raises(NumericError):
        pad([1.0], [0.0])


def test_color_boundaries():
    expectations = [
        (-15.0, Color.RED),
        (-10.0001, Color.RED),
        (-10.0, Color.YELLOW),  # boundary is inclusive on the yellow side
        (-5.0, Color.YELLOW),
        (0.0, Color.YELLOW),
        (0.1, Color.GREEN),
        (3.0, Color.GREEN),
    ]
    for value, expected in expectations:
        assert color(value) is expected, value
    with pytest.raises(ValidationError):
        color(float("nan"))


def test_month_colors_skips_undefined():
    got = month_colors(np.array([-12.0, np.nan, 4.0]))
    assert got == (Color.RED, None, Color.GREEN)


def test_mape_score_presets():
    yellows = [Color.YELLOW] * 6
    assert mape_score(yellows) == 36.0
    mixed = [Color.RED] * 4 + [Color.YELLOW, Color.GREEN]
    assert mape_score(mixed, SIGNED_WEIGHTS) == -8.0
    assert mape_score([None, None]) == 0.0


def test_six_month_stats():
    mean, sd = six_month_stats([7.0] * 9)
    assert mean == pytest.approx(42.0)
    assert sd == pytest.approx(0.0)

    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    sums = [sum(values[i : i + 6]) for i in range(3)]
    mean, sd = six_month_stats(values)
    assert mean == pytest.approx(np.mean(sums))
    assert sd == pytest.approx(np.std(sums))
    with pytest.raises(ValidationError):
        six_month_stats([1.0, 2.0], window=6)


def test_projection_example():
    assert projection([100.0] * 6, [500.0 / 6] * 6) == pytest.approx(100.0)
    with pytest.raises(ValidationError):
        projection([1.0] * 5, [1.0] * 6)


def test_window_pad():
    assert window_pad(np.array([100.0] * 3), np.array([130.0] * 3)) == pytest.approx(-30.0)
    assert window_pad(np.array([100.0] * 3), np.array([75.0] * 3)) == pytest.approx(25.0)
    with pytest.raises(NumericError):
        window_pad(np.zeros(3), np.ones(3))


# ------------------------------------------------------------------- cycles


def _cycle_inputs(bias, n_actuals=3, **extra):
    """Uniform actuals of 100 with the prior forecast off by `bias`."""
    actuals = fs([100.0] * n_actuals, start="2012-01", name="gross_returns")
    previous = forecast_of([100.0 * (1.0 + bias)] * n_actuals, start="2012-01")
    cycle = month("2012-01") + n_actuals
    current = forecast_of([100.0] * 12, start=str(cycle), spread=20.0)
    return EwaInput(
        cycle_month=cycle,
        actuals=actuals,
        current_forecast=current,
        previous_forecast=previous,
        **extra,
    )


def test_first_cycle_has_nothing_to_validate():
    inputs = EwaInput(
        cycle_month=month("2012-01"),
        actuals=fs([100.0] * 3, start="2011-10", name="gross_returns"),
        current_forecast=forecast_of([100.0] * 12),
    )
    report = run_ewa(inputs)
    assert report.first_cycle
    assert report.score is None and report.step1 is None
    assert report.alert is Alert.NONE
    assert report.recommendation is Recommendation.USE_BEST_FIT


def test_overforecast_switches_to_lower_band():
    report = run_ewa(_cycle_inputs(+0.30))
    assert report.alert is Alert.OVER_FORECAST
    assert report.recommendation is Recommendation.USE_LCI
    assert report.step1.window_pad == pytest.approx(-30.0)
    assert report.score == pytest.approx(9.0)  # three red months, literal weights
    assert report.six_month is None and report.projection is None


def test_signed_weights_preset_reaches_the_score(tmp_path):
    """`[ewa] weights` names a preset in any case, and the score uses it."""
    path = tmp_path / "config.ini"
    path.write_text("[ewa]\nweights = Signed\n")
    config = load_config(path)
    assert SCORE_PRESETS[config.ewa.weights.lower()] == SIGNED_WEIGHTS
    for thresholds in (config.ewa, EwaThresholds(weights="signed")):
        report = run_ewa(_cycle_inputs(+0.30), thresholds)
        assert report.step1.colors == (Color.RED,) * 3
        assert report.score == pytest.approx(-9.0)  # three red months, signed weights


def test_underforecast_switches_to_upper_band():
    report = run_ewa(_cycle_inputs(-0.25))
    assert report.alert is Alert.UNDER_FORECAST
    assert report.recommendation is Recommendation.USE_UCI
    assert report.step1.window_pad == pytest.approx(25.0)


def test_small_bias_keeps_best_fit():
    for bias in (+0.05, -0.05):
        report = run_ewa(_cycle_inputs(bias))
        assert report.alert is Alert.NONE, bias
        assert report.recommendation is Recommendation.USE_BEST_FIT, bias


def test_gross_overforecast_demands_retraining():
    report = run_ewa(_cycle_inputs(+0.45))
    assert report.alert is Alert.OVER_FORECAST
    assert report.recommendation is Recommendation.RETRAIN_MODEL


def test_red_cut_drives_colors_score_and_alert_together():
    inputs = _cycle_inputs(+0.07)  # every month at pad -7%
    default = run_ewa(inputs)
    assert default.alert is Alert.NONE
    assert default.step1.colors == (Color.YELLOW,) * 3
    assert default.score == pytest.approx(18.0)

    strict = run_ewa(inputs, replace(EwaThresholds(), red_cut=-5.0))
    assert strict.alert is Alert.OVER_FORECAST
    assert strict.step1.colors == (Color.RED,) * 3
    assert strict.score == pytest.approx(9.0)
    assert color(-7.0, red_cut=-5.0) is Color.RED


def test_projection_and_six_month_populate_with_history():
    inputs = _cycle_inputs(+0.30, n_actuals=8)
    report = run_ewa(inputs)
    # eight months of actuals: last six feed the projection window
    assert report.projection == pytest.approx(600.0 - 600.0)
    assert report.six_month is not None
    mean, sd = report.six_month
    assert mean == pytest.approx(180.0)  # six months at |pad| 30
    assert sd == pytest.approx(0.0, abs=1e-9)


def test_planner_step_can_disagree():
    actuals = fs([100.0] * 3, start="2012-01", name="gross_returns")
    inputs = EwaInput(
        cycle_month=month("2012-04"),
        actuals=actuals,
        current_forecast=forecast_of([100.0] * 12, start="2012-04"),
        previous_forecast=forecast_of([130.0] * 3, start="2012-01"),
        planner_series=fs([100.0] * 3, start="2012-01", name="planner"),
    )
    report = run_ewa(inputs)
    assert report.step1.alert is Alert.OVER_FORECAST
    assert report.step2.alert is Alert.NONE
    assert report.steps_disagree


def test_ewa_needs_enough_overlap():
    inputs = EwaInput(
        cycle_month=month("2012-03"),
        actuals=fs([100.0, 100.0], start="2012-01", name="gross_returns"),
        current_forecast=forecast_of([100.0] * 12, start="2012-03"),
        previous_forecast=forecast_of([110.0] * 2, start="2012-01"),
    )
    with pytest.raises(ValidationError):
        run_ewa(inputs)


def test_report_serializes_to_json():
    report = run_ewa(_cycle_inputs(+0.30))
    blob = json.dumps(to_json(report))
    back = json.loads(blob)
    assert back["alert"] == "OverForecast"
    assert back["recommendation"] == "UseLCI"
    assert back["step1"]["colors"] == ["Red", "Red", "Red"]


def _scored_months_by_lookup(actuals, forecast_start, forecast_values, thresholds):
    """Months, deviations and window pad as `_score_step` found them month by
    month with `value_at`, before it read `defined_on`."""
    window = actuals.interval.intersect(
        MonthInterval(forecast_start, forecast_start + len(forecast_values))
    )
    months = [m for m in window if math.isfinite(actuals.value_at(m))]
    if len(months) < thresholds.lookback_months:
        return None
    months = months[-max(thresholds.lookback_months, thresholds.score_window) :]
    a = np.array([actuals.value_at(m) for m in months])
    f = np.array([float(forecast_values[m - forecast_start]) for m in months])
    recent = slice(len(months) - thresholds.lookback_months, len(months))
    return tuple(months), tuple(float(v) for v in deviation(a, f)), window_pad(a[recent], f[recent])


@given(
    actual=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0)), min_size=1, max_size=18
    ),
    forecast=st.lists(st.floats(min_value=0.0, max_value=500.0), max_size=18),
    offset=st.integers(min_value=-12, max_value=12),
    lookback=st.integers(min_value=1, max_value=4),
    score_window=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_score_step_months_and_deviations_match_the_lookup(
    actual, forecast, offset, lookback, score_window
):
    actuals = FeatureSeries(
        "gross_returns",
        month("2012-01"),
        np.array([np.nan if v is None else v for v in actual], dtype=float),
    )
    start = MonthIndex(month("2012-01").value + offset)
    values = np.array(forecast, dtype=float)
    thresholds = EwaThresholds(lookback_months=lookback, score_window=score_window)
    got = _score_step(actuals, start, values, thresholds)
    expected = _scored_months_by_lookup(actuals, start, values, thresholds)
    if expected is None:
        assert got is None
    else:
        assert (got.months, got.deviations, got.window_pad) == expected
