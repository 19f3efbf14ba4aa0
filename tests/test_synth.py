"""Synthetic product-family scenarios used by the end-to-end tests."""
import numpy as np
import pytest

from returncast.analysis import pearson, segment_lifecycle
from returncast.errors import ValidationError
from returncast.prep import lag
from returncast.synth import ScenarioSpec, generate

from helpers import month


def test_same_seed_is_byte_identical():
    spec = ScenarioSpec(generations=3, seed=7)
    series_a, cal_a, _ = generate(spec)
    series_b, cal_b, _ = generate(spec)
    assert [e.ga_month for e in cal_a.entries()] == [e.ga_month for e in cal_b.entries()]
    for a, b in zip(series_a, series_b):
        for channel in ("shipments", "upgrades", "new_receipts", "gross_returns"):
            assert np.array_equal(a.channel(channel), b.channel(channel)), channel


def test_calendar_spacing_and_naming():
    _, calendar, _ = generate(ScenarioSpec(generations=4))
    assert calendar.ga_month("gen1") == month("2008-01")
    assert calendar.ga_month("gen3") == month("2012-01")
    assert calendar.resolve("gen4").ordinal == 4


def test_returns_are_exactly_zero_before_the_trigger():
    series, calendar, _ = generate(ScenarioSpec(generations=3, noise_sd=0.05))
    gen1 = series[0]
    trigger = calendar.ga_of_next(gen1.generation)
    head = gen1.feature("gross_returns").values[: trigger - gen1.start]
    assert (head == 0.0).all()


def test_noise_free_returns_match_ground_truth():
    series, _, truth = generate(ScenarioSpec(generations=3, noise_sd=0.0))
    for s in series:
        t = truth.truth_for(s.generation)
        assert t.true_returns.start == s.start
        assert np.array_equal(s.channel("gross_returns"), t.true_returns.values)


def test_phase_boundaries_recoverable_from_clean_data():
    spec = ScenarioSpec(generations=4, noise_sd=0.0)
    series, calendar, truth = generate(spec)
    gen2 = series[1]
    t = truth.truth_for("gen2")
    phases = segment_lifecycle(gen2.feature("gross_returns"), calendar, gen2.generation)
    assert phases.ramp_up.start == t.trigger
    assert phases.ramp_up.end == t.ramp_end
    assert phases.plateau.end == t.decline_start


def test_generation_volume_scales_by_the_configured_factor():
    # window long enough for gen2 to finish its ramp, else its peak is clipped
    series, _, _ = generate(
        ScenarioSpec(generations=3, noise_sd=0.0, months_after_final_ga=20)
    )
    peak1 = series[0].channel("gross_returns").max()
    peak2 = series[1].channel("gross_returns").max()
    assert peak2 / peak1 == pytest.approx(3.5, rel=1e-12)


def test_smooth_shape_truth_is_one_bump_on_the_support():
    # a window long enough for gen2's whole support
    spec = ScenarioSpec(generations=3, smooth_shape=True, months_after_final_ga=36)
    _, _, truth = generate(spec)
    for i, name in enumerate(("gen1", "gen2")):
        t = truth.truth_for(name)
        values = t.true_returns.values
        lo, hi = t.trigger - t.true_returns.start, t.support_end - t.true_returns.start
        assert 0 < lo < hi < len(values)
        assert (values[:lo] == 0.0).all() and (values[hi:] == 0.0).all()
        assert (values[lo:hi] > 0.0).all()
        peak = spec.peak_volume * spec.scale_factor**i
        assert 0.99 * peak <= values.max() <= peak
    assert (truth.truth_for("gen3").true_returns.values == 0.0).all()  # no successor


def test_receipts_lead_returns_by_the_configured_lag():
    series, _, _ = generate(ScenarioSpec(generations=3, noise_sd=0.0))
    gen1 = series[0]
    returns = gen1.feature("gross_returns")
    receipts = gen1.feature("new_receipts")
    lagged = lag(receipts, 30)
    assert pearson(lagged, returns) > 0.99
    assert pearson(receipts, returns) < 0.5


def test_seasonal_amplitude_shows_up_in_returns():
    spec = ScenarioSpec(generations=3, noise_sd=0.0, seasonal_amplitude=0.1)
    series, _, truth = generate(spec)
    gen1 = series[0]
    t = truth.truth_for("gen1")
    active = t.true_returns.values > 0
    expect = np.maximum(t.true_returns.values + t.seasonal.values, 0.0)
    assert np.array_equal(gen1.channel("gross_returns")[active], expect[active])
    assert np.abs(t.seasonal.values[active]).max() > 0


def test_scenario_spec_validation():
    with pytest.raises(ValidationError):
        ScenarioSpec(generations=1)
    with pytest.raises(ValidationError):
        ScenarioSpec(noise_sd=-0.1)
    with pytest.raises(ValidationError):
        ScenarioSpec(scale_factor=0.0)
    with pytest.raises(ValidationError):
        ScenarioSpec(ga_spacing=0)
    with pytest.raises(ValidationError, match="seed"):
        ScenarioSpec(seed=-1)


@pytest.mark.parametrize("field", ["noise_sd", "seasonal_amplitude", "peak_volume", "scale_factor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scenario_spec_rejects_non_finite_shape(field, value):
    with pytest.raises(ValidationError, match=field):
        ScenarioSpec(**{field: value})


def test_truth_lookup():
    _, _, truth = generate(ScenarioSpec(generations=2))
    assert truth.truth_for("gen1").generation.name == "gen1"
    with pytest.raises(KeyError):
        truth.truth_for("gen9")
