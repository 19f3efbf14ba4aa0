"""Calendar arithmetic, series containers, and matrix alignment."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

from returncast.core import (
    FeatureMatrix,
    FeatureSeries,
    GaEntry,
    GaCalendar,
    GenerationId,
    GenerationSeries,
    MonthIndex,
    MonthInterval,
    _longest_true_run,
    align,
    defined_on,
    true_runs,
)
from returncast.errors import MissingGaError, ValidationError

from helpers import family_calendar, fs, gen_series, month


def test_month_index_roundtrip_and_arithmetic():
    m = month("2008-01")
    assert str(m) == "2008-01"
    assert MonthIndex.parse(str(m)) == m
    assert m + 12 == month("2009-01")
    assert month("2008-12") + 1 == month("2009-01")
    assert month("2010-06") - month("2008-06") == 24
    assert month("2010-06") - 6 == month("2009-12")
    assert m.quarter == 1
    assert month("2008-04").quarter == 2
    assert month("2008-12").quarter == 4


def test_month_index_rejects_garbage():
    for bad in ("2008-13", "2008-00", "200801", "not-a-month"):
        with pytest.raises(ValidationError):
            MonthIndex.parse(bad)


def test_month_interval_basics():
    iv = MonthInterval(month("2010-01"), month("2010-04"))
    assert len(iv) == 3
    assert list(iv) == [month("2010-01"), month("2010-02"), month("2010-03")]
    assert month("2010-03") in iv
    assert month("2010-04") not in iv
    empty = MonthInterval(month("2010-01"), month("2010-01"))
    assert len(empty) == 0
    # reversed bounds normalize to an empty range, so intersect stays total
    reversed_iv = MonthInterval(month("2010-02"), month("2010-01"))
    assert len(reversed_iv) == 0


def test_month_interval_intersect():
    a = MonthInterval(month("2010-01"), month("2010-06"))
    b = MonthInterval(month("2010-04"), month("2010-09"))
    got = a.intersect(b)
    assert got.start == month("2010-04") and got.end == month("2010-06")
    disjoint = a.intersect(MonthInterval(month("2011-01"), month("2011-03")))
    assert len(disjoint) == 0


def test_ga_calendar_lookup_and_succession():
    cal = family_calendar("2008-01", "2010-01", "2012-01")
    assert cal.ga_month("gen2") == month("2010-01")
    assert cal.resolve("gen3").ordinal == 3
    assert cal.successor("gen1").generation.name == "gen2"
    assert cal.successor("gen3") is None
    assert cal.ga_of_next("gen2") == month("2012-01")
    with pytest.raises(MissingGaError):
        cal.ga_of_next("gen3")
    with pytest.raises(MissingGaError):
        cal.ga_month("gen9")


def test_ga_calendar_rejects_disorder():
    entries = [
        GaEntry(GenerationId("a", ordinal=1), "fam", month("2010-01")),
        GaEntry(GenerationId("b", ordinal=2), "fam", month("2009-01")),
    ]
    with pytest.raises(ValidationError):
        GaCalendar(entries)
    with pytest.raises(ValidationError):
        GaCalendar(
            [
                GaEntry(GenerationId("a", ordinal=1), "fam", month("2010-01")),
                GaEntry(GenerationId("a", ordinal=2), "fam", month("2011-01")),
            ]
        )


def test_feature_series_access():
    s = fs([1.0, np.nan, 3.0], start="2010-01")
    assert len(s) == 3
    assert list(s.defined_mask) == [True, False, True]
    assert s.value_at(month("2010-03")) == 3.0
    assert np.isnan(s.value_at(month("2010-02")))
    # out-of-span reads are NaN, not errors: callers probe overlap with it
    assert np.isnan(s.value_at(month("2010-04")))


def test_feature_series_restrict_and_shift():
    s = fs([1, 2, 3, 4], start="2010-01")
    r = s.restrict(MonthInterval(month("2010-02"), month("2010-04")))
    assert r.start == month("2010-02")
    assert list(r.values) == [2.0, 3.0]
    shifted = s.shift(2)
    assert shifted.start == month("2010-03")
    assert list(shifted.values) == list(s.values)


def test_generation_series_validation():
    with pytest.raises(ValidationError):
        gen_series("g", "2010-01", returns=[1, -2, 3])
    g = gen_series("g", "2010-01", returns=[1, 2, 3], shipments=[4, 5, 6])
    assert list(g.channel("shipments")) == [4.0, 5.0, 6.0]
    assert g.feature("gross_returns").name == "gross_returns"
    replaced = g.replace_channel("gross_returns", np.array([9.0, 9.0, 9.0]))
    assert list(replaced.gross_returns) == [9.0, 9.0, 9.0]
    assert list(g.gross_returns) == [1.0, 2.0, 3.0]  # original untouched


def test_generation_series_truncate():
    g = gen_series("g", "2010-01", returns=[1, 2, 3, 4])
    t = g.truncate(month("2010-03"))
    assert len(t) == 2 and t.end == month("2010-03")


@pytest.mark.parametrize("before", ["2010-03", "2009-12"])
def test_truncate_refuses_a_cut_that_keeps_no_month(before):
    g = gen_series("g", "2010-03", returns=[1, 2, 3])
    with pytest.raises(ValidationError) as info:
        g.truncate(month(before))
    assert str(info.value) == f"g: no data before {before} (series starts 2010-03)"


def test_feature_matrix_sorts_predictors():
    target = fs([1, 2, 3], name="y")
    m = align([fs([4, 5, 6], name="b"), fs([7, 8, 9], name="a")], target)
    assert m.predictor_names == ("a", "b")
    assert list(m.X[:, 0]) == [7.0, 8.0, 9.0]  # column order follows sorted names
    assert list(m.y) == [1.0, 2.0, 3.0]


def test_feature_matrix_slice_rows():
    target = fs([1, 2, 3, 4], name="y")
    m = align([fs([5, 6, 7, 8], name="x")], target)
    head = m.slice_rows(0, 3)
    tail = m.slice_rows(3, 4)
    assert head.n_rows == 3 and tail.n_rows == 1
    assert tail.start == month("2010-04")
    assert list(head.months()) + list(tail.months()) == list(m.months())


def test_align_rejects_name_collisions():
    with pytest.raises(ValidationError):
        align([fs([1, 2], name="x"), fs([3, 4], name="x")], fs([5, 6], name="y"))
    with pytest.raises(ValidationError):
        align([fs([1, 2], name="y")], fs([5, 6], name="y"))


def test_align_disjoint_is_empty():
    m = align([fs([1, 2], start="2012-01", name="x")], fs([5, 6], start="2010-01", name="y"))
    assert m.n_rows == 0


def test_align_picks_latest_longest_run():
    # holes split the overlap into runs of 2 and 2; the later run wins the tie
    target = fs([1, 2, np.nan, 4, 5], name="y")
    m = align([fs([1, 1, 1, 1, 1], name="x")], target)
    assert m.months() == [month("2010-04"), month("2010-05")]
    assert list(m.y) == [4.0, 5.0]


@st.composite
def _series_with_holes(draw, name):
    start = draw(st.integers(min_value=0, max_value=6))
    length = draw(st.integers(min_value=1, max_value=14))
    values = draw(
        st.lists(
            st.one_of(st.none(), st.floats(min_value=-50, max_value=50)),
            min_size=length,
            max_size=length,
        )
    )
    arr = np.array([np.nan if v is None else v for v in values], dtype=float)
    return FeatureSeries(name=name, start=month("2010-01") + start, values=arr)


@given(target=_series_with_holes("y"), p1=_series_with_holes("a"), p2=_series_with_holes("b"))
@settings(max_examples=80, deadline=None)
def test_align_matches_brute_force(target, p1, p2):
    got = align([p1, p2], target)

    # oracle: walk every month, find the longest all-defined run, latest on ties
    all_series = [target, p1, p2]
    lo = max(s.start for s in all_series)
    hi = min(s.end for s in all_series)
    best = (0, None)
    run_start, run_len = None, 0
    m = lo
    while m < hi or run_start is not None:
        ok = m < hi and all(np.isfinite(s.value_at(m)) for s in all_series)
        if ok:
            if run_start is None:
                run_start = m
            run_len += 1
        else:
            if run_start is not None and run_len >= best[0]:
                best = (run_len, run_start)
            run_start, run_len = None, 0
        if m >= hi:
            break
        m = m + 1

    if best[0] == 0:
        assert got.n_rows == 0
    else:
        assert got.n_rows == best[0]
        assert got.start == best[1]
        for i, mm in enumerate(got.months()):
            assert got.y[i] == target.value_at(mm)


# ------------------------------------------------- derivations are views


def _reference_longest_true_run(mask) -> tuple[int, int]:
    """The element-by-element loop `_longest_true_run` replaced."""
    best_off, best_len = 0, 0
    run_start = None
    for i, flag in enumerate(list(mask) + [False]):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            run_len = i - run_start
            if run_len >= best_len:
                best_off, best_len = run_start, run_len
            run_start = None
    return best_off, best_len


_PLACEMENTS = ("left", "across_start", "inside", "across_end", "right")


def _window(series, placement, data) -> MonthInterval:
    """A window (possibly empty) placed relative to the series' domain."""
    lo, hi = series.start.value, series.end.value

    def between(a, b):
        return data.draw(st.integers(min_value=a, max_value=b))

    if placement == "left":
        end = between(lo - 6, lo)
        start = between(end - 8, end)
    elif placement == "across_start":
        start = between(lo - 8, lo - 1)
        end = between(lo + 1, hi + 8)
    elif placement == "inside":
        start = between(lo, hi)
        end = between(start, hi)
    elif placement == "across_end":
        start = between(lo, hi - 1)
        end = between(hi + 1, hi + 8)
    else:
        start = between(hi, hi + 6)
        end = between(start, start + 8)
    return MonthInterval(MonthIndex(start), MonthIndex(end))


@given(series=_series_with_holes("x"), placement=st.sampled_from(_PLACEMENTS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_defined_on_matches_per_month_lookup(series, placement, data):
    window = _window(series, placement, data)
    got = defined_on(series, window)
    assert got.dtype == bool
    assert got.tolist() == [math.isfinite(series.value_at(m)) for m in window]


@pytest.mark.parametrize(
    "mask, expected",
    [
        ([], (0, 0)),
        ([False, False, False], (0, 0)),
        ([True], (0, 1)),
        ([True, True, False, True, True], (3, 2)),  # a tie goes to the latest run
        ([True, True, True, False, True, True], (0, 3)),
        ([False, True, False, True, False], (3, 1)),
    ],
)
def test_longest_true_run_cases(mask, expected):
    assert _longest_true_run(np.array(mask, dtype=bool)) == expected
    assert _reference_longest_true_run(mask) == expected


@given(mask=st.lists(st.booleans(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_longest_true_run_matches_reference_loop(mask):
    assert _longest_true_run(np.array(mask, dtype=bool)) == _reference_longest_true_run(mask)


def _reference_restrict(series: FeatureSeries, interval: MonthInterval) -> FeatureSeries:
    """The slice through `MonthInterval.intersect` that `restrict` replaced."""
    clipped = MonthInterval(series.start, series.start + len(series)).intersect(interval)
    i0 = clipped.start - series.start
    i1 = clipped.end - series.start
    return FeatureSeries._view(series.name, clipped.start, series.values[i0:i1])


@given(series=_series_with_holes("x"), placement=st.sampled_from(_PLACEMENTS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_restrict_matches_interval_reference_bit_for_bit(series, placement, data):
    window = _window(series, placement, data)
    got, expected = series.restrict(window), _reference_restrict(series, window)
    # an empty overlap still starts at the later of the two starts
    assert (got.name, got.start, got.end) == (expected.name, expected.start, expected.end)
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.interval == expected.interval == series.interval.intersect(window)


def _reference_true_runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """The two-comparison version `true_runs` replaced."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _same_runs(mask) -> None:
    got, expected = true_runs(mask), _reference_true_runs(mask)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


@pytest.mark.parametrize("mask", [[], [False] * 5, [True], [True] * 7, [False, True, True]])
def test_true_runs_cases_match_reference(mask):
    _same_runs(np.array(mask, dtype=bool))


@given(mask=st.lists(st.booleans(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_true_runs_matches_reference_bit_for_bit(mask):
    _same_runs(np.array(mask, dtype=bool))


def _writeable_raises(values: np.ndarray) -> bool:
    try:
        values.flags.writeable = True
    except ValueError:
        return True
    return False


def test_restrict_shift_truncate_and_feature_are_read_only_views():
    s = fs([1.0, np.nan, 3.0, 4.0], start="2010-01")
    g = gen_series("g", "2010-01", returns=[1, 2, 3, 4], shipments=[5, 6, 7, 8])
    truncated = g.truncate(month("2010-03"))
    derived = [
        ("restrict", s.values, s.restrict(MonthInterval(month("2010-02"), month("2010-04"))).values),
        ("shift", s.values, s.shift(3).values),
        ("feature", g.shipments, g.feature("shipments").values),
    ] + [
        (f"truncate {c}", g.channel(c), truncated.channel(c))
        for c in ("shipments", "upgrades", "new_receipts", "gross_returns")
    ]
    for what, source, values in derived:
        assert np.shares_memory(values, source), what
        assert not values.flags.writeable, what
        assert _writeable_raises(values), what
    # built from outside values: a private read-only copy
    outside = np.array([1.0, 2.0])
    built = FeatureSeries(name="x", start=month("2010-01"), values=outside)
    assert not np.shares_memory(built.values, outside)
    assert _writeable_raises(built.values)
    outside[0] = 9.0
    assert built.values[0] == 1.0
    assert not np.shares_memory(s.with_values([7.0, 8.0]).values, s.values)


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, np.inf], "feature 'x' contains infinite values"),
        ([[1.0, 2.0]], "series values must be one-dimensional"),
    ],
)
def test_feature_series_from_outside_values_is_validated(values, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        FeatureSeries(name="x", start=month("2010-01"), values=values)
    with pytest.raises(ValidationError, match=re.escape(message)):
        fs([1.0, 2.0], name="x").with_values(values)


@pytest.mark.parametrize(
    "returns, message",
    [
        ([1.0, np.inf], "g: channel 'gross_returns' has infinite values"),
        ([1.0, -2.0], "g: channel 'gross_returns' has negative values"),
        ([[1.0, 2.0]], "series values must be one-dimensional"),
        ([], "g: channel 'gross_returns' is empty"),
    ],
)
def test_generation_series_from_outside_values_is_validated(returns, message):
    ok = np.zeros(2)
    with pytest.raises(ValidationError, match=re.escape(message)):
        GenerationSeries(
            generation=GenerationId("g"), start=month("2010-01"),
            shipments=ok, upgrades=ok, new_receipts=ok, gross_returns=returns,
        )


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, np.inf, 3.0], "g: channel 'upgrades' has infinite values"),
        ([1.0, -0.5, 3.0], "g: channel 'upgrades' has negative values"),
        ([1.0, 2.0], "g: channels differ in length: [2, 3]"),
        ([1.0, 2.0, 3.0, 4.0], "g: channels differ in length: [3, 4]"),
        ([], "g: channel 'upgrades' is empty"),
        ([[1.0, 2.0, 3.0]], "series values must be one-dimensional"),
    ],
)
def test_replace_channel_validates_the_new_channel(values, message):
    g = gen_series("g", "2010-01", returns=[1, 2, 3])
    with pytest.raises(ValidationError, match=re.escape(message)):
        g.replace_channel("upgrades", np.array(values, dtype=float))


def _reference_channel_fault(values) -> str | None:
    """The two `.any()` scans the channel check replaced, in their order."""
    if np.isinf(values).any():
        return "infinite"
    if (values < 0).any():  # NaN compares False: undefined months pass
        return "negative"
    return None


@given(
    values=arrays(
        np.float64,
        st.integers(1, 30),
        elements=st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300])
        | st.floats(-1e6, 1e6),
    )
)
@settings(max_examples=300, deadline=None)
def test_channel_check_matches_the_any_scans(values):
    g = gen_series("g", "2010-01", returns=np.zeros(len(values)))
    fault = _reference_channel_fault(values)
    if fault is None:
        assert g.replace_channel("upgrades", values).upgrades.tobytes() == values.tobytes()
    else:
        with pytest.raises(ValidationError, match=f"channel 'upgrades' has {fault} values"):
            g.replace_channel("upgrades", values)


def test_replace_channel_copies_the_new_channel_and_keeps_the_rest():
    g = gen_series("g", "2010-01", returns=[1, 2, 3], shipments=[4, 5, 6])
    new = np.array([np.nan, 1.0, 2.0])
    replaced = g.replace_channel("gross_returns", new)
    assert not np.shares_memory(replaced.gross_returns, new)
    assert _writeable_raises(replaced.gross_returns)
    assert replaced.shipments is g.shipments
    assert (replaced.generation, replaced.start) == (g.generation, g.start)
