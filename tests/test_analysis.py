"""Correlation strength, genealogy, lifecycle phases, seasonal decomposition."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from returncast.analysis import (
    AnalysisConfig,
    Strength,
    _paired_defined,
    build_correlation_table,
    classify_strength,
    decompose_seasonal,
    genealogy_match,
    pearson,
    pearson_r,
    segment_lifecycle,
)
from returncast.core import FeatureSeries, MonthIndex, MonthInterval
from returncast.pipeline import select_for_model
from returncast.errors import NumericError, ValidationError

from helpers import family_calendar, fs, gen_series, month

# published correlation table: (gross-returns column, 3-month-MA column) per predictor
STRENGTH_CASES = [
    (-0.134, "Weak"), (-0.118, "Weak"),
    (0.175, "Medium"), (0.23, "Strong"),
    (0.208, "Strong"), (0.28, "Strong"),
    (0.33, "Strong"), (0.357, "Strong"),
    (0.31, "Strong"), (0.351, "Strong"),
    (0.313, "Strong"), (0.339, "Strong"),
    (-0.139, "Weak"), (-0.137, "Weak"),
    (0.188, "Strong"), (0.245, "Strong"),
    (0.184, "Medium"), (0.274, "Strong"),
    (0.264, "Strong"), (0.392, "Strong"),
    (0.32, "Strong"), (0.36, "Strong"),
    (0.251, "Strong"), (0.39, "Strong"),
    (-0.243, "Strong"), (-0.296, "Strong"),
    (0.365, "Strong"), (0.432, "Strong"),
]


def test_classify_strength_reference_table():
    for r, expected in STRENGTH_CASES:
        assert classify_strength(r).value == expected, f"r={r}"


def test_classify_strength_boundaries():
    assert classify_strength(0.1499) is Strength.WEAK
    assert classify_strength(0.15) is Strength.MEDIUM
    assert classify_strength(0.1859) is Strength.MEDIUM
    assert classify_strength(0.186) is Strength.STRONG
    assert classify_strength(-0.186) is Strength.STRONG
    assert classify_strength(1.0) is Strength.STRONG
    with pytest.raises(ValidationError):
        classify_strength(1.5)


def test_strength_thresholds_ordering():
    with pytest.raises(ValidationError):
        AnalysisConfig(medium_at=0.3, strong_at=0.2)


def test_pearson_matches_numpy_on_overlap():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(6, 30))
        a = rng.normal(0, 10, n)
        b = rng.normal(0, 10, n)
        holes = rng.random(n) < 0.2
        a[holes] = np.nan
        both = np.isfinite(a) & np.isfinite(b)
        if both.sum() < 3:
            continue
        expect = np.corrcoef(a[both], b[both])[0, 1]
        assert pearson(fs(a, name="a"), fs(b, name="b")) == pytest.approx(expect, rel=1e-12)


def _reference_pearson_r(x, y):
    """The `ndarray.mean()`/`.sum()` form `pearson_r` replaced."""
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xc * yc).sum() / (sx * sy))


def _bits(r):
    """A float's exact bits (its hex form keeps the sign of a zero), or None."""
    return None if r is None else r.hex()


# magnitudes from 1e-3 to 1e6, either sign
_MAGNITUDE = st.one_of(st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3))


@st.composite
def _paired_columns(draw):
    n = draw(st.integers(3, 300))
    return tuple(draw(arrays(np.float64, n, elements=_MAGNITUDE)) for _ in range(2))


@given(xy=_paired_columns())
@example(xy=(np.full(5, 3.0), np.arange(5.0)))
@example(xy=(np.arange(7.0), np.full(7, -2e5)))
@settings(max_examples=300, deadline=None)
def test_pearson_r_equals_the_mean_and_sum_form_bit_for_bit(xy):
    assert _bits(pearson_r(*xy)) == _bits(_reference_pearson_r(*xy))


@given(n=st.integers(3, 300), value=st.integers(-10**6, 10**6), scale=st.sampled_from([1, 0.25]))
@settings(max_examples=100, deadline=None)
def test_pearson_r_of_a_constant_input_is_none(n, value, scale):
    # an integer or quarter value keeps the sum, and so the mean, exact
    constant = np.full(n, value * scale, dtype=float)
    other = np.arange(n, dtype=float)
    assert pearson_r(constant, other) is None is _reference_pearson_r(constant, other)
    assert pearson_r(other, constant) is None


def _reference_paired_defined(a: FeatureSeries, b: FeatureSeries):
    """The interval/restrict form `_paired_defined` replaced."""
    window = a.interval.intersect(b.interval)
    if len(window) == 0:
        return np.empty(0), np.empty(0)
    av = a.restrict(window).values
    bv = b.restrict(window).values
    mask = np.isfinite(av) & np.isfinite(bv)
    return av[mask], bv[mask]


@st.composite
def _holey_series(draw, name):
    start = draw(st.integers(-8, 8))
    values = draw(arrays(np.float64, st.integers(0, 20), elements=st.just(np.nan) | _MAGNITUDE))
    return FeatureSeries(name=name, start=MonthIndex(start), values=values)


@given(a=_holey_series("a"), b=_holey_series("b"), lo=st.none() | st.integers(-10, 30))
@settings(max_examples=300, deadline=None)
def test_paired_defined_matches_the_restrict_form(a, b, lo):
    """On offsets, as `pearson` calls it, and from month `lo` on, as
    genealogy pairs the returns from each trigger on."""
    if lo is None:
        got = _paired_defined(a.values, a.start.value, b.values, b.start.value)
    else:
        got = _paired_defined(a.values, a.start.value, b.values, b.start.value, lo=lo)
        after = MonthInterval(MonthIndex(lo), MonthIndex(10**6))
        a, b = a.restrict(after), b.restrict(after)
    for g, e in zip(got, _reference_paired_defined(a, b)):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_pearson_needs_overlap_and_variance():
    with pytest.raises(ValidationError):
        pearson(fs([1, 2], name="a"), fs([3, 4], name="b"))
    with pytest.raises(NumericError):
        pearson(fs([1, 1, 1, 1], name="a"), fs([1, 2, 3, 4], name="b"))


def test_correlation_table_and_selection():
    rng = np.random.default_rng(3)
    y = fs(rng.normal(50, 5, 24), name="gross_returns")
    strong = fs(y.values * 2 + rng.normal(0, 0.5, 24), name="strong_one")
    # project the target component out of the noise so r is ~0 by construction
    noise = rng.normal(0, 1, 24)
    noise -= noise.mean()
    centered = y.values - y.values.mean()
    noise -= (noise @ centered) / (centered @ centered) * centered
    weak = fs(noise, name="weak_one")
    flat = fs(np.ones(24), name="flat")  # degenerate: dropped
    table = build_correlation_table([weak, strong, flat], y)
    assert [row.predictor for row in table] == ["strong_one", "weak_one"]
    rows = {row.predictor: row for row in table}
    assert rows["strong_one"].strength is Strength.STRONG
    assert abs(rows["weak_one"].pearson_r) < 0.186
    assert "flat" not in rows
    chosen = select_for_model(table, [weak, strong, flat], cap=8)
    assert [p.name for p in chosen] == ["strong_one"]


def test_segment_lifecycle_with_known_next_launch():
    cal = family_calendar("2008-01", "2010-01", "2012-01")
    returns = fs(np.ones(48), start="2009-01", name="gross_returns")
    phases = segment_lifecycle(returns, cal, cal.resolve("gen1"))
    assert phases.ramp_up == MonthInterval(month("2010-01"), month("2011-04"))
    assert phases.plateau == MonthInterval(month("2011-04"), month("2012-01"))
    assert phases.ramp_down == MonthInterval(month("2012-01"), month("2013-01"))
    assert phases.phase_of(month("2010-06")) == "ramp_up"
    assert phases.phase_of(month("2011-06")) == "plateau"
    assert phases.phase_of(month("2012-06")) == "ramp_down"
    assert phases.phase_of(month("2009-06")) is None


def test_segment_lifecycle_default_plateau_when_next_unknown():
    cal = family_calendar("2008-01", "2010-01", "2012-01")
    returns = fs(np.ones(48), start="2011-01", name="gross_returns")
    phases = segment_lifecycle(returns, cal, cal.resolve("gen2"))
    # no launch two generations out: plateau runs its default 10 months
    assert phases.ramp_up == MonthInterval(month("2012-01"), month("2013-04"))
    assert phases.plateau == MonthInterval(month("2013-04"), month("2014-02"))
    assert phases.ramp_down.end == month("2015-01")


def test_segment_lifecycle_clips_to_series():
    cal = family_calendar("2008-01", "2010-01", "2012-01")
    short = fs(np.ones(18), start="2009-07", name="gross_returns")  # ends 2011-01
    phases = segment_lifecycle(short, cal, cal.resolve("gen1"))
    assert phases.ramp_up == MonthInterval(month("2010-01"), month("2011-01"))
    assert len(phases.plateau) == 0 and len(phases.ramp_down) == 0


def _aligned_generation(name, ordinal, trigger, returns_rel, shipments_rel):
    """Series spanning [trigger-2, trigger+6) with given post-trigger returns."""
    start = month(trigger) - 2
    ret = [0.0, 0.0] + list(returns_rel)
    return gen_series(
        name, str(start), returns=ret, shipments=list(shipments_rel), ordinal=ordinal
    )


def test_genealogy_match_prefers_planted_shape():
    cal = family_calendar("2008-01", "2010-01", "2012-01", "2014-01")
    rising = [10, 20, 30, 40, 50, 60]
    falling = rising[::-1]
    ship = [5, 6, 7, 8, 9, 10, 11, 12]
    current = _aligned_generation("gen3", 3, "2014-01", rising, ship)
    match = _aligned_generation("gen1", 1, "2010-01", [2 * v for v in rising], ship)
    mismatch = _aligned_generation("gen2", 2, "2012-01", falling, ship[::-1])
    got = genealogy_match(current, [mismatch, match], cal)
    assert got.name == "gen1"


def test_genealogy_match_tie_goes_to_most_recent():
    cal = family_calendar("2008-01", "2010-01", "2012-01", "2014-01")
    rising = [10, 20, 30, 40, 50, 60]
    ship = [5, 6, 7, 8, 9, 10, 11, 12]
    current = _aligned_generation("gen3", 3, "2014-01", rising, ship)
    twin_old = _aligned_generation("gen1", 1, "2010-01", rising, ship)
    twin_new = _aligned_generation("gen2", 2, "2012-01", rising, ship)
    got = genealogy_match(current, [twin_old, twin_new], cal)
    assert got.name == "gen2"


def test_genealogy_match_skips_a_candidate_with_constant_returns(caplog):
    cal = family_calendar("2008-01", "2010-01", "2012-01", "2014-01")
    rising = [10, 20, 30, 40, 50, 60]
    ship = [5, 6, 7, 8, 9, 10, 11, 12]
    current = _aligned_generation("gen3", 3, "2014-01", rising, ship)
    # gen2 has no returns correlation to score; gen1 is a poor but scorable match
    flat = _aligned_generation("gen2", 2, "2012-01", [30] * 6, ship)
    poor = _aligned_generation("gen1", 1, "2010-01", rising[::-1], ship[::-1])
    with caplog.at_level("WARNING", logger="returncast.analysis"):
        got = genealogy_match(current, [poor, flat], cal)
    assert got.name == "gen1"
    skips = [r.getMessage() for r in caplog.records if "genealogy: skipping" in r.getMessage()]
    assert len(skips) == 1 and skips[0].startswith("genealogy: skipping gen2: returns vs gen2:")


def test_genealogy_match_needs_aligned_overlap():
    cal = family_calendar("2008-01", "2010-01", "2012-01", "2014-01")
    rising = [10, 20, 30, 40, 50, 60]
    ship = [5, 6, 7, 8, 9, 10, 11, 12]
    current = _aligned_generation("gen3", 3, "2014-01", rising, ship)
    # candidate ends 3 months after its trigger: below the 6-month floor
    stub = gen_series("gen1", "2009-11", returns=[0, 0, 1, 2, 3], shipments=[1, 2, 3, 4, 5], ordinal=1)
    with pytest.raises(ValidationError):
        genealogy_match(current, [stub], cal)
    with pytest.raises(ValidationError):
        genealogy_match(current, [], cal)


def test_decompose_seasonal_recovers_planted_components():
    start = month("2010-01")
    n, period, amplitude = 36, 12, 10.0
    planted = amplitude * np.sin(2 * np.pi * np.arange(period) / period)
    trend = 50.0 + 0.8 * np.arange(n)
    positions = (start.value + np.arange(n)) % period
    series = fs(trend + planted[positions], name="returns")

    decomp = decompose_seasonal(series, period)
    half = period // 2
    interior = slice(half, n - half)
    assert np.allclose(decomp.trend.values[interior], trend[interior], atol=1e-9)
    assert np.isnan(decomp.trend.values[:half]).all()
    assert np.isnan(decomp.trend.values[n - half :]).all()
    assert np.allclose(decomp.seasonal.values, planted[positions], atol=1e-9)
    # exact additive reconstruction wherever the trend is defined
    recon = decomp.trend.values + decomp.seasonal.values + decomp.residual.values
    assert np.allclose(recon[interior], series.values[interior], atol=1e-9)
    # periodic extrapolation beyond the observed window
    assert decomp.seasonal_at(start + n + 3) == pytest.approx(
        decomp.seasonal.values[(n + 3) % period]
    )


def test_decompose_seasonal_with_an_odd_period_recovers_the_season_exactly():
    # integer values, and a season that sums to 0, keep every mean exact
    start = month("2010-01")
    n, period = 12, 3
    season = np.array([3.0, -1.0, -2.0])
    positions = (start.value + np.arange(n)) % period
    values = 50.0 + 2.0 * np.arange(n) + season[positions]

    decomp = decompose_seasonal(fs(values, name="returns"), period)
    assert np.array_equal(decomp.seasonal.values, season[positions])
    trend = decomp.trend.values
    assert np.isnan(trend[[0, n - 1]]).all()
    for i in range(1, n - 1):
        assert trend[i] == (values[i - 1] + values[i] + values[i + 1]) / 3 == 50.0 + 2.0 * i


def test_decompose_seasonal_validation():
    with pytest.raises(ValidationError):
        decompose_seasonal(fs(np.ones(20), name="short"), 12)
    gappy = np.ones(30)
    gappy[4] = np.nan
    with pytest.raises(ValidationError):
        decompose_seasonal(fs(gappy, name="gappy"), 12)
    with pytest.raises(ValidationError):
        decompose_seasonal(fs(np.ones(36), name="x"), 1)
