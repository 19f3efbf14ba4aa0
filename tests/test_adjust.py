"""Post-forecast correction rules: seasonality, onset clamp."""
import numpy as np
import pytest

from returncast.adjust import AdjustConfig, adjust_forecast
from returncast.analysis import decompose_seasonal
from returncast.core import GenerationId
from returncast.errors import MissingGaError
from returncast.models import ForecastSeries, ModelKind, ModelSpec

from helpers import family_calendar, fs, month

CAL = family_calendar("2008-01", "2010-01", "2012-01")
GEN1 = CAL.resolve("gen1")
GEN2 = CAL.resolve("gen2")


def forecast_of(values, start="2012-01"):
    best = np.asarray(values, dtype=float)
    return ForecastSeries(
        start=month(start),
        best_fit=best,
        lci=best * 0.9,
        uci=best * 1.1,
        model=ModelSpec(ModelKind.LINEAR),
        test_mape=5.0,
        test_correlation=0.9,
    )


def test_accurate_forecast_passes_through_unchanged():
    # past gen1's onset and with no seasonality to layer in, no rule applies
    forecast = forecast_of([100.0] * 12)
    result = adjust_forecast(forecast, CAL, GEN1)
    assert result.notes == ()
    assert np.array_equal(result.forecast.best_fit, forecast.best_fit)
    assert np.array_equal(result.forecast.lci, forecast.lci)
    assert result.describe() == "none"


def _seasonal():
    start = month("2009-01")
    trend = 100.0 + 0.5 * np.arange(36)
    planted = 8.0 * np.sin(2 * np.pi * np.arange(12) / 12)
    positions = (start.value + np.arange(36)) % 12
    return decompose_seasonal(fs(trend + planted[positions], start="2009-01", name="r"), 12)


def test_seasonal_component_is_dampened_while_generation_active():
    seasonal = _seasonal()
    # gen3, two launches after gen1, is not out yet at 2011-06
    forecast = forecast_of([100.0] * 12, start="2011-06")
    expect = np.array([seasonal.seasonal_at(m) for m in forecast.months()])
    active = adjust_forecast(forecast, CAL, GEN1, seasonal=seasonal)
    assert active.notes[0].rule == "seasonal"
    assert active.notes[0].factor == pytest.approx(0.8)
    assert np.allclose(active.forecast.best_fit, 100.0 + 0.8 * expect)

    # the follow-on launch already happened: full seasonal weight
    forecast = forecast_of([100.0] * 12, start="2012-06")
    expect = np.array([seasonal.seasonal_at(m) for m in forecast.months()])
    retired = adjust_forecast(forecast, CAL, GEN1, seasonal=seasonal)
    assert retired.notes[0].factor == pytest.approx(1.0)
    assert np.allclose(retired.forecast.best_fit, 100.0 + expect)


def test_seasonal_without_two_launches_ahead_stays_dampened():
    seasonal = _seasonal()
    forecast = forecast_of([100.0] * 12, start="2014-01")
    result = adjust_forecast(forecast, CAL, GEN2, seasonal=seasonal)
    assert result.notes[0].factor == pytest.approx(0.8)


def test_seasonal_damp_comes_from_the_config():
    seasonal = _seasonal()
    forecast = forecast_of([100.0] * 12, start="2011-06")
    expect = np.array([seasonal.seasonal_at(m) for m in forecast.months()])
    result = adjust_forecast(
        forecast, CAL, GEN1, seasonal=seasonal, config=AdjustConfig(seasonal_damp=0.5)
    )
    assert result.notes[0].factor == 0.5
    assert np.allclose(result.forecast.best_fit, 100.0 + 0.5 * expect)


def test_seasonal_floor_at_zero():
    seasonal = _seasonal()
    forecast = forecast_of([1.0] * 12, start="2012-06")
    result = adjust_forecast(forecast, CAL, GEN1, seasonal=seasonal)
    assert (result.forecast.best_fit >= 0.0).all()
    assert (result.forecast.lci >= 0.0).all()
    assert result.forecast.best_fit.min() == 0.0


def test_months_before_onset_are_zeroed():
    # gen1 launched 2008-01: nothing can come back before 2009-01
    forecast = forecast_of([50.0] * 12, start="2008-06")
    result = adjust_forecast(forecast, CAL, GEN1)
    assert result.notes[-1].rule == "zero_before_onset"
    assert len(result.notes[-1].months) == 7
    assert (result.forecast.best_fit[:7] == 0.0).all()
    assert (result.forecast.uci[:7] == 0.0).all()
    assert np.array_equal(result.forecast.best_fit[7:], forecast.best_fit[7:])

    # once zeroed, a rerun has nothing left to clamp
    again = adjust_forecast(result.forecast, CAL, GEN1)
    assert again.notes == ()


@pytest.mark.parametrize("seasonal", [None, _seasonal()], ids=["plain", "seasonal"])
def test_unknown_generation_is_refused(seasonal):
    # a cycle refuses a generation off the calendar before it forecasts
    forecast = forecast_of([50.0] * 6, start="2008-06")
    with pytest.raises(MissingGaError, match="ghost"):
        adjust_forecast(forecast, CAL, GenerationId("ghost", 9), seasonal=seasonal)


def test_band_ordering_survives_all_rules():
    seasonal = _seasonal()
    values = [400.0 / 3] * 3 + [120.0] * 9
    forecast = forecast_of(values, start="2008-10")
    result = adjust_forecast(forecast, CAL, GEN1, seasonal=seasonal)
    rules = [n.rule for n in result.notes]
    assert rules == ["seasonal", "zero_before_onset"]
    f = result.forecast
    assert (f.lci <= f.best_fit).all() and (f.best_fit <= f.uci).all()
