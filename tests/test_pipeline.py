"""Planning-cycle orchestration: staging helpers and the full run."""
import dataclasses
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import returncast.cli as cli
from returncast import errors, pipeline
from returncast.config import AppConfig
from returncast.core import (
    GaCalendar,
    GaEntry,
    GenerationId,
    GenerationSeries,
    MonthIndex,
    MonthInterval,
    align,
    defined_on,
)
from returncast.cycle_store import CycleStore, PlannerChoice
from returncast.encode import json_text
from returncast.errors import MissingGaError, NumericError, ValidationError
from returncast.models import ModelKind, ModelSpec, base
from returncast.pipeline import (
    PREDICTOR_CHANNELS,
    build_predictors,
    coverage_greedy,
    donor_candidates,
    normalize_to_current,
    observable_predictors,
    plan_cycle,
    prepare_histories,
    rebase_phases,
    run_cycle,
    select_for_model,
)
from returncast.analysis import (
    CorrelationEntry,
    LifecyclePhases,
    Strength,
    build_correlation_table,
    genealogy_match,
)
from returncast.ingest import write_ga_calendar, write_history
from returncast.prep import cumulative_sum, lag, moving_average
from returncast.preprocess import repair_outliers
from returncast.report import render_report, validate_report
from returncast.synth import ScenarioSpec, generate

from helpers import family_calendar, fs, gen_series, lifecycle_cycles, month, stage_documents


def _counted_truncate(monkeypatch) -> list[str]:
    """The generation of each series `GenerationSeries.truncate` cuts from
    now on, in call order."""
    cut = []
    truncate = GenerationSeries.truncate

    def counted(self, before):
        cut.append(self.generation.name)
        return truncate(self, before)

    monkeypatch.setattr(GenerationSeries, "truncate", counted)
    return cut


def _fleet_and_solo():
    """gen1-gen3 of one family, and solo1 of another, launched before gen1
    and with no successor: never a candidate."""
    fleet = family_calendar("2008-01", "2010-01", "2012-01").entries()
    cal = GaCalendar([*fleet, GaEntry(GenerationId("solo1", ordinal=1), "solo", month("2006-01"))])
    history = [
        gen_series("solo1", "2006-01", returns=[1] * 60, ordinal=1),
        gen_series("gen1", "2008-01", returns=[1] * 50, ordinal=1),
        gen_series("gen2", "2010-01", returns=[1] * 30, ordinal=2),
        gen_series("gen3", "2012-01", returns=[1] * 10, ordinal=3),
    ]
    return history, cal


@pytest.mark.parametrize(
    "generation, cycle_month, message",
    [
        ("gen2", "2005-06", "no history visible before 2005-06"),
        ("gen2", "2009-06", "no visible history for gen2 before 2009-06"),
        # gen1 is not visible and has no candidate either: visibility decides
        ("gen1", "2007-06", "no visible history for gen1 before 2007-06"),
        ("gen1", "2010-06", "genealogy match needs at least one candidate"),
    ],
    ids=["no_history", "not_visible", "not_visible_and_no_candidate", "no_candidate"],
)
def test_prepare_histories_refuses_before_it_cuts_a_series(
    monkeypatch, generation, cycle_month, message
):
    """README row 2's refusals up to the candidate check, in its order, read
    only the calendar and each series' first month."""
    history, cal = _fleet_and_solo()
    assert donor_candidates(history, cal.resolve("gen1"), cal) == []
    cut = _counted_truncate(monkeypatch)
    with pytest.raises(ValidationError) as refused:
        prepare_histories(history, cal, cal.resolve(generation), month(cycle_month), AppConfig())
    assert type(refused.value) is ValidationError
    assert str(refused.value) == message
    assert cut == []


def test_prepare_histories_refusals_keep_the_readme_order():
    prefixes = [prefix for kind, prefix in REFUSALS if kind is ValidationError][:3]
    assert prefixes == [
        "no history visible before",
        "no visible history for",
        "genealogy match needs at least one candidate",
    ]


def test_a_reporting_cycle_cuts_only_the_current_generation_and_its_candidates(
    scenario, monkeypatch
):
    """gen3 is visible at the demo's cycle month but launched after gen2, so
    it is no candidate and is never cut."""
    series, calendar, _ = scenario
    cycle_month = month("2012-09")
    assert [s.generation.name for s in series if s.start < cycle_month] == ["gen1", "gen2", "gen3"]
    cut = _counted_truncate(monkeypatch)
    outcome = run_cycle(series, calendar, "gen2", cycle_month)
    assert cut == ["gen2", "gen1"]
    assert outcome.donor.name == "gen1"
    assert outcome.plan.prepared.current.end == cycle_month


def test_donor_candidates_need_their_own_trigger():
    cal = family_calendar("2008-01", "2010-01", "2012-01")
    history = [
        gen_series("gen1", "2008-01", returns=[1] * 30, ordinal=1),
        gen_series("gen2", "2010-01", returns=[1] * 20, ordinal=2),
        gen_series("gen3", "2012-01", returns=[1] * 5, ordinal=3),
    ]
    got = donor_candidates(history, cal.resolve("gen2"), cal)
    # gen2 is the current generation; gen3 launched after it, and has no
    # successor launch yet
    assert [s.generation.name for s in got] == ["gen1"]


def test_donor_candidates_skip_the_last_launch_of_another_family():
    # an earlier generation of the current family always has a successor;
    # one of another family with no later launch has no trigger of its own
    fleet = family_calendar("2008-01", "2010-01", "2012-01").entries()
    cal = GaCalendar([*fleet, GaEntry(GenerationId("solo1", ordinal=1), "solo", month("2009-01"))])
    history = [
        gen_series("gen1", "2008-01", returns=[1] * 30, ordinal=1),
        gen_series("solo1", "2009-01", returns=[1] * 20, ordinal=1),
        gen_series("gen2", "2010-01", returns=[1] * 20, ordinal=2),
    ]
    got = donor_candidates(history, cal.resolve("gen2"), cal)
    assert [s.generation.name for s in got] == ["gen1"]


def test_donor_candidates_are_earlier_generations_even_when_a_later_one_matches_best():
    cal = family_calendar("2008-01", "2010-01", "2012-01", "2014-01")
    rising, ship = [10, 20, 30, 40, 50, 60], [5, 6, 7, 8, 9, 10, 11, 12]

    def shaped(name, ordinal, trigger, returns, shipments):
        # [trigger - 2, trigger + 6), returns from the trigger on
        return gen_series(name, str(month(trigger) - 2), returns=[0, 0, *returns],
                          shipments=shipments, ordinal=ordinal)

    current = shaped("gen2", 2, "2012-01", rising, ship)
    earlier = shaped("gen1", 1, "2010-01", rising[::-1], ship[::-1])
    later = shaped("gen3", 3, "2014-01", [2 * v for v in rising], ship)
    # the later generation is the planted match: it would score highest
    assert genealogy_match(current, [earlier, later], cal).name == "gen3"
    got = donor_candidates([earlier, current, later], current.generation, cal)
    assert [s.generation.name for s in got] == ["gen1"]


def test_coverage_greedy_respects_row_floor():
    target = fs(np.arange(20.0) + 1, start="2010-01", name="gross_returns")
    wide = fs(np.ones(20), start="2010-01", name="wide")
    late = fs(np.ones(8), start="2011-01", name="late")
    chosen = coverage_greedy([late, wide], target, min_rows=16)
    assert [p.name for p in chosen] == ["wide"]
    # a shorter target lowers the floor to its own length
    chosen = coverage_greedy([late, wide], target.restrict(
        MonthInterval(month("2011-01"), month("2011-09"))
    ), min_rows=16)
    assert {p.name for p in chosen} == {"wide", "late"}


def _reference_coverage_greedy(predictors, target, min_rows):
    """The align-based loop the mask-based `coverage_greedy` replaced."""
    floor = min(min_rows, align([], target).n_rows)

    def overlap(p):
        return align([p], target).n_rows

    chosen = []
    for p in sorted(predictors, key=lambda s: (-overlap(s), s.name)):
        if align(chosen + [p], target).n_rows >= floor:
            chosen.append(p)
    return chosen


def _outcome(func, predictors, target, min_rows):
    try:
        return [id(p) for p in func(predictors, target, min_rows)]
    except ValidationError as exc:
        return str(exc)


@st.composite
def _holey_series(draw, name):
    start = draw(st.integers(min_value=0, max_value=12))
    # mostly defined; a NaN hole splits a run, an all-NaN series never overlaps
    defined = draw(st.lists(st.booleans() | st.just(True), min_size=0, max_size=24))
    values = [1.0 if ok else np.nan for ok in defined]
    return fs(values, start=str(month("2010-01") + start), name=name)


@given(
    target=_holey_series("y"),
    predictors=st.lists(
        st.sampled_from("abcdefghijkl").flatmap(_holey_series), min_size=1, max_size=7
    ),
    min_rows=st.integers(min_value=-2, max_value=16),
)
@settings(max_examples=400, deadline=None)
def test_coverage_greedy_matches_align_reference(target, predictors, min_rows):
    # equal overlaps are common (ties go to name order), names may repeat
    assert _outcome(coverage_greedy, predictors, target, min_rows) == _outcome(
        _reference_coverage_greedy, predictors, target, min_rows
    )


def test_coverage_greedy_raises_aligns_name_errors():
    target = fs(np.ones(20), name="y")
    twins = [fs(np.ones(20), name="x"), fs(np.ones(18), name="x")]
    for predictors in (twins, [fs(np.ones(20), name="y")]):
        with pytest.raises(ValidationError) as expected:
            _reference_coverage_greedy(predictors, target, 16)
        with pytest.raises(ValidationError) as got:
            coverage_greedy(predictors, target, 16)
        assert str(got.value) == str(expected.value)
    # a twin of a predictor that was never admitted is no error, as in align
    late = fs(np.ones(3), start="2011-06", name="x")
    assert coverage_greedy([late, late], target, 16) == _reference_coverage_greedy(
        [late, late], target, 16
    ) == []


def _reference_build_predictors(series, config, windows):
    """Every transform of every predictor channel, as built before the
    horizon decided which to build, each paired with whether it is a lag;
    the moving averages are over `windows`."""
    out = []
    for channel in PREDICTOR_CHANNELS:
        raw = series.feature(channel)
        out.append((False, raw))
        out += [(True, lag(raw, k)) for k in config.prep.lags]
        out += [(False, moving_average(raw, w)) for w in windows]
        out.append((False, cumulative_sum(raw)))
    return out


def _reference_horizon_available(predictors, horizon):
    """The filter that ran on the built transforms of the current generation."""
    return [(is_lag, p) for is_lag, p in predictors if defined_on(p, horizon).all()]


def _bits(predictors):
    return [(p.name, p.start, p.values.tobytes()) for p in predictors]


@st.composite
def _generation(draw, name):
    """Non-negative channels, NaN holes anywhere, some series very short."""
    start = draw(st.integers(min_value=0, max_value=12))
    length = draw(st.integers(min_value=1, max_value=20))
    value = st.none() | st.floats(min_value=0, max_value=1e6) | st.just(1.0)
    channels = {
        c: [np.nan if v is None else v
            for v in draw(st.lists(value, min_size=length, max_size=length))]
        for c in ("shipments", "upgrades", "new_receipts", "gross_returns")
    }
    return GenerationSeries(GenerationId(name), MonthIndex(120 + start), **channels)


@given(
    current=_generation("current"),
    donor=_generation("donor"),
    # lags include 0 and lags below the horizon; windows include 1 and repeats
    lags=st.lists(st.integers(min_value=0, max_value=8), unique=True, max_size=5),
    windows=st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    placement=st.sampled_from(
        ("left", "across_start", "inside", "across_end", "at_end", "right")
    ),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_build_predictors_matches_build_then_filter_reference(
    current, donor, lags, windows, placement, data
):
    config = AppConfig()
    config = replace(config, prep=replace(config.prep, lags=tuple(lags)))
    lo, hi = current.start.value, current.end.value
    size = data.draw(st.integers(min_value=0, max_value=6))
    first = data.draw({
        "left": st.integers(lo - 8 - size, lo - size),
        "across_start": st.integers(lo - size, lo),
        "inside": st.integers(lo, max(lo, hi - size)),
        "across_end": st.integers(hi - size, hi),
        "at_end": st.just(hi),
        "right": st.integers(hi, hi + 8),
    }[placement])
    horizon = MonthInterval(MonthIndex(first), MonthIndex(first + size))

    available = _reference_horizon_available(
        _reference_build_predictors(current, config, windows), horizon
    )
    lags_available = [p for is_lag, p in available if is_lag]
    plan = observable_predictors(current, horizon, config)
    built = build_predictors(current, plan)
    if size >= 1 and first >= hi:
        # a cycle's horizon: nothing the full reference keeps is left out
        assert _bits(built) == _bits([p for _, p in available])
    assert _bits(built) == _bits(lags_available)
    names = {p.name for p in lags_available}
    assert _bits(build_predictors(donor, plan)) == _bits(
        [p for is_lag, p in _reference_build_predictors(donor, config, windows)
         if is_lag and p.name in names]
    )


@given(values=st.lists(st.none() | st.floats(min_value=0, max_value=1e6), max_size=30),
       w=st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_moving_average_and_running_sum_are_defined_where_their_input_is(values, w):
    # why no cycle can observe them: a cycle's horizon starts where the
    # current generation's history ends, so neither is defined on it;
    # values are bounded so that no running sum overflows
    feature = fs([np.nan if v is None else v for v in values])
    for derived in (moving_average(feature, w), cumulative_sum(feature)):
        assert derived.start == feature.start
        assert np.array_equal(derived.defined_mask, feature.defined_mask)


def test_normalize_to_current_keeps_a_donor_without_shipments(caplog):
    # the donor ships nothing on the GA-aligned window: no volume ratio exists
    calendar = family_calendar("2010-01", "2011-01", "2012-01")
    donor = gen_series("gen1", "2010-01", np.ones(12), ordinal=1)
    current = gen_series("gen2", "2011-01", np.ones(6), shipments=np.full(6, 5.0), ordinal=2)
    with caplog.at_level("WARNING", logger="returncast.pipeline"):
        scaled, factor = normalize_to_current(donor, current, calendar)
    assert scaled is donor and factor == 1.0
    skips = [r.getMessage() for r in caplog.records if "normalization skipped" in r.getMessage()]
    assert len(skips) == 1


def test_select_for_model_caps_and_falls_back():
    rng = np.random.default_rng(2)
    y = fs(rng.normal(100, 10, 30), name="gross_returns")
    strong1 = fs(y.values * 3 + rng.normal(0, 1, 30), name="s1")
    strong2 = fs(y.values * -2 + rng.normal(0, 1, 30), name="s2")
    weak = fs(rng.normal(0, 1, 30), name="w1")
    table = build_correlation_table([strong1, strong2, weak], y)
    got = select_for_model(table, [strong1, strong2, weak], cap=1)
    assert len(got) == 1 and got[0].name in {"s1", "s2"}

    # nothing strong: the top correlates are kept anyway
    weak2 = fs(rng.normal(0, 1, 30), name="w2")
    table = build_correlation_table([weak, weak2], y)
    got = select_for_model(table, [weak, weak2], cap=8)
    assert {p.name for p in got} == {"w1", "w2"}


def test_select_for_model_warns_once_when_nothing_is_strong(caplog):
    weak = [fs(np.arange(4.0), name=name) for name in ("w1", "w2")]
    table = tuple(
        CorrelationEntry(p.name, "gross_returns", r, Strength.WEAK)
        for p, r in zip(weak, (0.1, -0.12))
    )
    with caplog.at_level("DEBUG", logger="returncast"):
        select_for_model(table, weak, cap=8)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "no strong predictors" in caplog.records[0].getMessage()


def test_rebase_phases_shifts_to_relative_months():
    phases = LifecyclePhases(
        ramp_up=MonthInterval(month("2010-01"), month("2011-04")),
        plateau=MonthInterval(month("2011-04"), month("2012-02")),
        ramp_down=MonthInterval(month("2012-02"), month("2012-11")),
    )
    rel = rebase_phases(phases, month("2010-01"))
    assert rel.ramp_up.start.value == 0
    assert rel.ramp_up.end.value == 15
    assert rel.ramp_down.end.value == 34


@pytest.fixture(scope="module")
def scenario():
    return generate(ScenarioSpec(generations=3, months_after_final_ga=8, seed=0))


def test_run_cycle_produces_a_complete_outcome(scenario, tmp_path):
    series, calendar, _ = scenario
    store = CycleStore(tmp_path / "cycles")
    outcome = run_cycle(series, calendar, "gen2", month("2012-09"), store=store)

    assert outcome.donor.name == "gen1"
    assert outcome.plan.cycle_month == month("2012-09")
    assert len(outcome.forecast) == 12
    assert outcome.forecast.start == month("2012-09")
    assert (outcome.forecast.lci <= outcome.forecast.best_fit).all()
    assert (outcome.forecast.best_fit <= outcome.forecast.uci).all()
    assert outcome.plan.prepared.normalization > 0
    assert len(outcome.leaderboard) == 5
    assert outcome.plan.selected  # at least one predictor chosen
    assert outcome.ewa.first_cycle  # nothing stored before this cycle
    assert store.load_cycle(outcome.plan.generation, month("2012-09")) is not None


def test_run_cycle_second_cycle_validates_the_first(tmp_path):
    # history must run past the first cycle so the second one has actuals
    # overlapping the stored forecast
    series, calendar, _ = generate(
        ScenarioSpec(generations=3, months_after_final_ga=14, seed=0)
    )
    store = CycleStore(tmp_path / "cycles")
    run_cycle(series, calendar, "gen2", month("2012-09"), store=store, choice=PlannerChoice.UCI)
    outcome = run_cycle(series, calendar, "gen2", month("2012-12"), store=store)
    assert not outcome.ewa.first_cycle
    assert outcome.previous is not None
    assert outcome.ewa.step1 is not None
    assert outcome.ewa.step2 is not None  # planner series came from the stored record
    assert outcome.ewa.score is not None


def test_run_cycle_ewa_refusal_trains_no_model(tmp_path, monkeypatch):
    series, calendar, _ = generate(
        ScenarioSpec(generations=3, months_after_final_ga=14, seed=0)
    )
    store = CycleStore(tmp_path / "cycles")
    run_cycle(series, calendar, "gen2", month("2012-09"), store=store)

    def no_zoo(*args, **kwargs):
        raise AssertionError("evaluate_zoo called for a cycle EWA refuses")

    monkeypatch.setattr(pipeline, "evaluate_zoo", no_zoo)
    # one month on, the stored forecast overlaps a single month of actuals
    with pytest.raises(ValidationError, match="^EWA needs 3 months of actuals"):
        run_cycle(series, calendar, "gen2", month("2012-10"), store=store)


def test_run_cycle_all_zero_test_split_refuses_before_ewa(tmp_path):
    # at 2014-01 the donor's test split is all zero and the record stored at
    # 2013-12 overlaps one month of actuals: the zoo refusal comes first
    series, calendar, _ = generate(
        ScenarioSpec(generations=3, months_after_final_ga=30, seed=1)
    )
    store = CycleStore(tmp_path / "cycles")
    run_cycle(series, calendar, "gen2", month("2013-12"), store=store)
    with pytest.raises(ValidationError, match="^no model in the zoo could be fitted"):
        run_cycle(series, calendar, "gen2", month("2014-01"), store=store)


def test_run_cycle_is_deterministic(scenario):
    series, calendar, _ = scenario
    a = run_cycle(series, calendar, "gen2", month("2012-09"))
    b = run_cycle(series, calendar, "gen2", month("2012-09"))
    assert np.array_equal(a.forecast.best_fit, b.forecast.best_fit)
    assert np.array_equal(a.forecast.lci, b.forecast.lci)
    assert a.plan.selected == b.plan.selected
    assert [r.spec.kind for r in a.leaderboard] == [r.spec.kind for r in b.leaderboard]
    # dict equality trips over NaN != NaN, so compare serialized form
    assert json_text(stage_documents(a)) == json_text(stage_documents(b))


def test_prep_values_no_cycle_can_observe_leave_the_demo_cycle_byte_identical(scenario):
    # lags below the horizon's length are never built
    series, calendar, _ = scenario

    def run(prep):
        config = replace(AppConfig(), prep=prep)
        outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=config)
        return json_text(stage_documents(outcome)), render_report(outcome)

    prep = AppConfig().prep
    expected = run(prep)
    assert run(replace(prep, lags=prep.lags + (0, 1, 6, 11))) == expected


def test_run_cycle_rejects_generation_without_trigger(scenario):
    series, calendar, _ = scenario
    with pytest.raises(ValidationError):
        run_cycle(series, calendar, "gen3", month("2012-09"))


def test_run_cycle_phasewise_flag_adds_a_contender(scenario):
    series, calendar, _ = scenario
    base = AppConfig()
    config = replace(base, models=replace(base.models, include_phasewise=True))
    outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=config)
    labels = [r.spec.label() for r in outcome.leaderboard]
    assert "PhaseWise" in labels
    assert len(outcome.leaderboard) == 6


def test_every_zoo_fit_reads_only_keys_its_spec_records(scenario, monkeypatch):
    """Each name a fit asks `ModelSpec.param` for is a hyperparameter of the
    asking spec, PhaseWise's sub-specs included, so the specs a cycle records
    name every setting that shaped its fits."""
    series, calendar, _ = scenario
    models = replace(
        AppConfig().models, include_phasewise=True, include_polynomial=True, ts_seasonal=True
    )
    config = replace(AppConfig(), models=models)
    plan = plan_cycle(series, calendar, "gen2", month("2012-09"), config)
    asked = []
    param = ModelSpec.param

    def recording(spec, name, default):
        asked.append((spec, name))
        return param(spec, name, default)

    monkeypatch.setattr(ModelSpec, "param", recording)
    for spec in plan.zoo:
        try:
            base.fit(spec, plan.train)
        except (ValidationError, NumericError):
            pass  # seasonal TimeSeries and Polynomial need more rows than the split has
    assert {spec.kind for spec, _ in asked} == {
        ModelKind.CART, ModelKind.CHAID, ModelKind.NEURAL, ModelKind.TIMESERIES,
        ModelKind.PHASEWISE,
    }
    unrecorded = sorted({(spec.label(), name) for spec, name in asked if name not in spec.params})
    assert not unrecorded


def test_donor_outlier_is_repaired_and_reported_through_a_cycle(scenario, tmp_path):
    """A spike in the donor's returns is flagged, repaired to the trailing
    mean before the volume rescale, and shown in the report and in the
    prepare stage's outliers.json."""
    series, calendar, _ = scenario
    donor, spike = series[0], month("2010-06")  # gen1's trigger + 5
    returns = donor.gross_returns.copy()
    returns[spike - donor.start] = 2917.8
    history = [donor.replace_channel("gross_returns", returns), *series[1:]]

    outcome = run_cycle(history, calendar, "gen2", month("2012-09"))
    prepared = outcome.plan.prepared
    assert prepared.donor_id.name == "gen1"
    screen = {report.feature: report for report in prepared.outliers}
    flagged = screen["gross_returns"]
    assert flagged.months == (spike,) and flagged.values == (2917.8,)
    assert round(flagged.lower, 1) == -999.4 and round(flagged.upper, 1) == 1404.2
    assert screen["new_receipts"].months == ()
    repaired = repair_outliers(history[0].feature("gross_returns"), flagged)
    assert prepared.donor.feature("gross_returns").value_at(spike) == (
        repaired.value_at(spike) * prepared.normalization
    )
    row = f"gross_returns,2010-06,{2917.8:.4f},{flagged.lower:.4f},{flagged.upper:.4f}"
    assert row in render_report(outcome).splitlines()

    write_history(tmp_path / "history.csv", history)
    write_ga_calendar(tmp_path / "ga.csv", calendar)
    assert cli.main([
        "prepare", "--history", str(tmp_path / "history.csv"), "--ga", str(tmp_path / "ga.csv"),
        "--generation", "gen2", "--cycle", "2012-09", "--out", str(tmp_path / "out"),
    ]) == 0
    written = json.loads((tmp_path / "out" / "outliers.json").read_text())
    assert [(o["feature"], o["months"], o["values"]) for o in written["outliers"]] == [
        ("gross_returns", ["2010-06"], [2917.8]), ("new_receipts", [], []),
    ]


def test_seasonal_adjustment_off_paths_leave_the_forecast_raw(scenario):
    """The README demo cycle's one adjustment is the donor's seasonality. With
    `apply_seasonal` off no rule fires and every band stays raw; with a
    24-month period the donor is too short to decompose (48 months needed),
    so no seasonal note is made."""
    series, calendar, _ = scenario

    def notes(outcome):
        return [note.rule for note in outcome.adjustments.notes]

    default = AppConfig()
    assert notes(run_cycle(series, calendar, "gen2", month("2012-09"))) == ["seasonal"]
    off = replace(default, adjust=replace(default.adjust, apply_seasonal=False))
    outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=off)
    assert notes(outcome) == []
    for band in ("best_fit", "lci", "uci"):
        assert np.array_equal(getattr(outcome.forecast, band), getattr(outcome.forecast_raw, band))
    long_period = replace(default, analysis=replace(default.analysis, seasonal_period=24))
    outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=long_period)
    assert "seasonal" not in notes(outcome)


def _readme_refusals() -> list[tuple[str, type, str]]:
    """Every documented refusal, in the order a cycle decides them: per
    prefix in the "exception: message starts" column of the README
    "Refusals" table, its row's stage, exception type and the prefix."""
    refusals = []
    in_table = False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        in_table = line.startswith("|") and (
            in_table or line == "| # | refusal | stage | exception: message starts | exit |"
        )
        if not in_table or line.startswith(("| #", "|---")):
            continue
        cells = [cell.strip() for cell in line.split("|")]
        # `Type`: `prefix`, `prefix`; `Type`: `prefix`
        for group in cells[4].split(";"):
            kind, *prefixes = re.findall(r"`([^`]+)`", group)
            refusals += [(cells[3], getattr(errors, kind), prefix) for prefix in prefixes]
    return refusals


# exception type and the first words of its message
REFUSALS = tuple((kind, prefix) for _, kind, prefix in _readme_refusals())


@given(
    seed=st.integers(0, 2**20),
    # two generations never reach the split: gen1 has no donor, gen2 no
    # successor GA
    generations=st.integers(3, 4),
    amplitude=st.floats(0.0, 0.3),
    # 0.95 leaves no test row on the shortest matrices: a documented refusal
    train_fraction=st.sampled_from([0.7, 0.95]),
)
# one fixed draw at the 0.95 train fraction, in every run
@example(seed=0, generations=3, amplitude=0.0, train_fraction=0.95)
# four gens cost ~2 s each; four examples keep the test near 4 s
@settings(max_examples=4, deadline=None)
def test_every_lifecycle_cycle_reports_or_refuses(seed, generations, amplitude, train_fraction):
    """Every month of every generation, one store per generation, ends in a
    report that validates, from a donor launched before its generation, or
    in a documented refusal; never anything else."""
    series, calendar, _ = generate(
        ScenarioSpec(
            generations=generations,
            seasonal_amplitude=amplitude,
            months_after_final_ga=30,
            seed=seed,
        )
    )
    config = AppConfig(models=replace(AppConfig().models, train_fraction=train_fraction))
    with tempfile.TemporaryDirectory() as work:
        for _, _, outcome in lifecycle_cycles(series, calendar, work, config):
            if isinstance(outcome, Exception):
                assert any(
                    type(outcome) is kind and str(outcome).startswith(prefix)
                    for kind, prefix in REFUSALS
                ), f"undocumented refusal {type(outcome).__name__}: {outcome}"
            else:
                validate_report(render_report(outcome))
                assert calendar.ga_month(outcome.donor) < calendar.ga_month(
                    outcome.plan.generation
                )


def _no_usable_lag(series):
    """The demo with no lag the horizon can observe: every lag is below it."""
    return series, replace(AppConfig(), prep=replace(AppConfig().prep, lags=(6,)))


def _degenerate_predictors(series):
    """The demo with the current shipments undefined where a lag of them
    would cover the horizon, and the donor's upgrades and receipts all zero:
    the observable lags are constant on the donor history."""
    gen1, gen2, gen3 = series
    zeros = np.zeros(len(gen1))
    gen1 = gen1.replace_channel("upgrades", zeros).replace_channel("new_receipts", zeros)
    shipments = gen2.shipments.copy()
    shipments[2:20] = np.nan  # 2010-03 to 2011-08, under lags 24 and 30
    return [gen1, gen2.replace_channel("shipments", shipments), gen3], AppConfig()


def _holey_donor_returns(series):
    """The demo with every sixth post-trigger month of the donor's returns
    undefined: enough paired months to pick it, no run of six to train on."""
    gen1, gen2, gen3 = series
    returns = gen1.gross_returns.copy()
    returns[24 + 5 :: 6] = np.nan  # gen1's trigger is its 24th month
    return [gen1.replace_channel("gross_returns", returns), gen2, gen3], AppConfig()


def _band_below_best_fit(series):
    """The demo at a negative band multiplier, which no forecast can hold."""
    return series, replace(AppConfig(), models=replace(AppConfig().models, z_multiplier=-1.0))


@pytest.mark.parametrize(
    "cycle_month, inputs, message, trains",
    [
        ("2009-06", lambda series: (series, AppConfig()),
         "no visible history for gen2 before 2009-06", False),
        ("2012-09", _no_usable_lag,
         "no predictor is observable across the horizon [2012-09, 2013-09); "
         "shorten the horizon or extend the lag set", False),
        ("2012-09", _degenerate_predictors,
         "every usable predictor is degenerate on the donor history", False),
        ("2012-09", _holey_donor_returns,
         "aligned donor matrix has only 5 rows; not enough to train", False),
        ("2012-09", _band_below_best_fit,
         "no ranked model can forecast the horizon: "
         "forecast bands must satisfy lci <= best_fit <= uci", True),
    ],
    ids=["row2_no_visible_history", "row3_no_observable_predictor",
         "row4_degenerate_predictors", "row5_too_few_matrix_rows", "row9_no_winner_forecast"],
)
def test_run_cycle_refuses_with_the_documented_message(
    scenario, monkeypatch, cycle_month, inputs, message, trains
):
    """README refusal rows the lifecycle sweeps never reach, each through
    `run_cycle`; a row `plan_cycle` decides runs no fitter."""
    fits = []
    for kind, fitter in list(base._FITTERS.items()):
        def counted(spec, train, fitter=fitter):
            fits.append(spec.kind)
            return fitter(spec, train)

        monkeypatch.setitem(base._FITTERS, kind, counted)
    history, config = inputs(list(scenario[0]))
    with pytest.raises(ValidationError) as refused:
        run_cycle(history, scenario[1], "gen2", month(cycle_month), config=config)
    assert type(refused.value) is ValidationError
    assert str(refused.value) == message
    assert any(kind is ValidationError and message.startswith(prefix) for kind, prefix in REFUSALS)
    assert bool(fits) is trains


# the README refusal rows that `plan_cycle` decides
PLAN_REFUSALS = tuple(
    (kind, prefix) for stage, kind, prefix in _readme_refusals() if stage == "`plan_cycle`"
)


def _untouchable(*args, **kwargs):
    raise AssertionError("a fitter or the store was touched while planning")


def _sweep_cycles():
    """The seed-0 sweep's inputs and its (generation, month) cycles, in the
    order of `tests/fixtures/sweep.txt`."""
    series, calendar, _ = generate(ScenarioSpec(generations=3, months_after_final_ga=30, seed=0))
    cycles = [
        (s.generation.name, s.start + j)
        for s in sorted(series, key=lambda s: s.generation.ordinal)
        for j in range(1, len(s) + 1)
    ]
    return series, calendar, cycles


def test_plan_cycle_decides_each_sweep_refusal_before_the_store_or_a_model(monkeypatch):
    """Every cycle of the seed-0 sweep (`tests/fixtures/sweep.txt`) that
    refuses with a row 1-6 reason refuses the same way in `plan_cycle`, with
    no fitter able to run and no store read; every other cycle plans."""
    for kind in list(base._FITTERS):
        monkeypatch.setitem(base._FITTERS, kind, _untouchable)
    for attr in ("load_cycle", "load_previous_cycle", "list_cycle_months", "store_cycle"):
        monkeypatch.setattr(CycleStore, attr, _untouchable)

    sweep = (Path(__file__).parent / "fixtures" / "sweep.txt").read_text().splitlines()
    series, calendar, cycles = _sweep_cycles()
    assert len(cycles) == len(sweep)
    decided = set()
    for (generation, cycle_month), line in zip(cycles, sweep):
        expected = line.split(" ", 2)[2]
        try:
            plan_cycle(series, calendar, generation, cycle_month, AppConfig())
            got = None
        except (ValidationError, NumericError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        row = next(
            (r for r in PLAN_REFUSALS if expected.startswith(f"{r[0].__name__}: {r[1]}")), None
        )
        assert got == (expected if row else None), f"{generation} {cycle_month}"
        decided.add(row)
    # the sweep's own mix: missing GA, both genealogy refusals, all-zero test split
    assert len(decided - {None}) == 4


def test_plan_lists_the_zoo_and_the_horizon_matrix_without_a_fit(monkeypatch):
    """Every cycle of the seed-0 sweep that plans carries the configured
    zoo and a horizon matrix with the donor matrix's predictors, decided
    with no fitter able to run: what `train_plan` reads, and all of it."""
    for kind in list(base._FITTERS):
        monkeypatch.setitem(base._FITTERS, kind, _untouchable)
    models = replace(
        AppConfig().models, nn_hidden_units=3, nn_epochs=7, nn_learning_rate=0.02, seed=5
    )
    config = AppConfig(models=models)
    neural = ModelSpec(
        ModelKind.NEURAL, {"hidden_units": 3, "epochs": 7, "learning_rate": 0.02}, seed=5
    )
    series, calendar, cycles = _sweep_cycles()
    planned = 0
    for generation, cycle_month in cycles:
        try:
            plan = plan_cycle(series, calendar, generation, cycle_month, config)
        except (ValidationError, NumericError):
            continue
        planned += 1
        assert neural in plan.zoo, f"{generation} {cycle_month}"
        assert plan.horizon_matrix.predictor_names == plan.matrix.predictor_names
        assert len(plan.horizon_matrix) == config.pipeline.horizon_months
    # the sweep's 5 reports and its 10 refusals after planning, all EWA's
    assert planned == 15


def _same(a, b) -> bool:
    """Deep equality of dataclasses, containers and arrays, NaN equal to NaN."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float):
        return isinstance(b, float) and (a == b or (np.isnan(a) and np.isnan(b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_outcome_keeps_its_plan_its_record_and_the_previous_record_ewa_scored(tmp_path):
    """Every report of the seed-0 sweep holds the plan `plan_cycle` makes
    from the same inputs, the recorded forecast, and as `previous` the
    stored record the store hands that cycle."""
    series, calendar, _ = _sweep_cycles()
    config = AppConfig()
    reported = scored = 0
    for generation, cycle_month, outcome in lifecycle_cycles(series, calendar, tmp_path, config):
        if isinstance(outcome, Exception):
            continue
        reported += 1
        where = f"{generation} {cycle_month}"
        plan = plan_cycle(series, calendar, generation, cycle_month, config)
        assert _same(outcome.plan, plan), where
        assert outcome.forecast is outcome.record.forecast, where
        # strictly before the cycle month, so this cycle's own record is skipped
        previous = CycleStore(tmp_path / generation).load_previous_cycle(
            outcome.plan.generation, cycle_month
        )
        assert _same(outcome.previous, previous), where
        scored += previous is not None
    # the sweep's 5 reports, all gen2's; all but the first scored a record
    assert (reported, scored) == (5, 4)
