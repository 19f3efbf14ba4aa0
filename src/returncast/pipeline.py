"""End-to-end planning cycle: history in, validated forecast out.

`plan_cycle` picks the donor generation by genealogy, cleans and rescales
its history, builds the lagged predictors observable over the horizon,
keeps the strongly correlated ones and splits the donor matrix 70/30
chronologically; it reads no store and fits no model. Its `CyclePlan` also
holds the zoo's model specs and the current generation's horizon matrix.
`cycle_outcome` then scores the previous stored forecast (EWA), so a record
EWA cannot score refuses before any training; `train_plan` races the plan's
zoo and forecasts its horizon matrix with the winner; `finish_cycle`
adjusts, recommends and builds the record. The `CycleOutcome` keeps the
plan whole beside what the later stages made, so a plan fact has one home.
`run_cycle` is those stages plus writing the record to the store.

Cross-generation transfer works on a shifted time axis: donor and current
months are both rebased so month 0 is each generation's returns trigger,
letting the donor's fitted lifecycle be replayed at the current
generation's age.

`AppConfig` is the whole config, one section per field; `PipelineConfig`,
the `[pipeline]` section, sizes the horizon and the predictor set.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import (
    AnalysisConfig,
    CorrelationEntry,
    LifecyclePhases,
    SeasonalDecomposition,
    Strength,
    build_correlation_table,
    decompose_seasonal,
    genealogy_match,
    segment_lifecycle,
)
from .adjust import AdjustConfig, AdjustResult, adjust_forecast
from .core import (
    CHANNELS,
    FeatureMatrix,
    FeatureSeries,
    GaCalendar,
    GenerationId,
    GenerationSeries,
    MonthIndex,
    MonthInterval,
    _longest_true_run,
    align,
    defined_on,
)
from .cycle_store import CycleRecord, CycleStore, PlannerChoice
from .encode import to_json
from .errors import AT_LEAST_ONE, NumericError, ValidationError
from .ewa import EwaReport, EwaThresholds, StepResult, recommend, score_previous
from .models import (
    ForecastSeries,
    ModelKind,
    ModelLeaderboard,
    ModelsConfig,
    ModelSpec,
    evaluate_zoo,
    fit,
    phasewise_spec,
    require_scorable,
    residual_band,
    split_chronological,
)
from .prep import PrepConfig, exclude_prega_receipts, filter_post_ga, lag
from .preprocess import (
    OutlierReport, PreprocessConfig, detect_outliers, normalization_factor, repair_outliers,
)

log = logging.getLogger(__name__)

PREDICTOR_CHANNELS = ("shipments", "upgrades", "new_receipts")

# per predictor channel, the lags of it to build, in build order
PredictorPlan = list[tuple[str, tuple[int, ...]]]


@dataclass(frozen=True)
class PipelineConfig:
    horizon_months: int = field(default=12, metadata=AT_LEAST_ONE)
    min_matrix_rows: int = 16
    max_predictors: int = field(default=8, metadata=AT_LEAST_ONE)


@dataclass(frozen=True)
class AppConfig:
    """One field per INI section, named after it."""

    prep: PrepConfig = field(default_factory=PrepConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    models: ModelsConfig = field(default_factory=ModelsConfig)
    ewa: EwaThresholds = field(default_factory=EwaThresholds)
    adjust: AdjustConfig = field(default_factory=AdjustConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


@dataclass(frozen=True)
class CycleOutcome:
    """Everything one cycle produced, for reporting and persistence: its
    plan, what training and the finish stage made of it, and the stored
    record EWA scored."""

    plan: CyclePlan
    leaderboard: ModelLeaderboard
    forecast_raw: ForecastSeries
    adjustments: AdjustResult
    previous: Optional[CycleRecord]  # None on a first cycle
    ewa: EwaReport
    record: CycleRecord

    @property
    def donor(self) -> GenerationId:
        return self.plan.prepared.donor_id

    @property
    def forecast(self) -> ForecastSeries:
        """The adjusted forecast, as recorded."""
        return self.record.forecast


@dataclass(frozen=True)
class PreparedHistories:
    """The genealogy donor and both generations' histories, cleaned, masked
    and with the donor rescaled to the current generation's volume."""

    donor_id: GenerationId
    donor: GenerationSeries
    current: GenerationSeries
    outliers: tuple[OutlierReport, ...]
    normalization: float


@dataclass(frozen=True)
class CyclePlan:
    """What a cycle decides before it reads the store or fits a model; the
    later stages read everything they need from it."""

    generation: GenerationId
    cycle_month: MonthIndex  # also the first horizon month
    calendar: GaCalendar
    config: AppConfig
    prepared: PreparedHistories
    phases: LifecyclePhases
    table: tuple[CorrelationEntry, ...]
    selected: tuple[str, ...]  # in selection order, which the matrix does not keep
    matrix: FeatureMatrix
    train: FeatureMatrix
    test: FeatureMatrix
    zoo: tuple[ModelSpec, ...]
    horizon_matrix: FeatureMatrix  # the current generation's, rebased to its trigger
    actuals: FeatureSeries

    @property
    def analysis(self) -> dict:
        """The analyze stage's artifact, for `to_json`: donor, correlation
        table, selected predictors and lifecycle phases."""
        return {
            "donor": self.prepared.donor_id.name,
            "correlations": self.table,
            "selected_predictors": self.selected,
            "phases": self.phases,
        }


def outlier_screen(prepared: PreparedHistories) -> dict:
    """The prepare stage's artifact, for `to_json`: donor, volume factor and
    the donor's outlier screens."""
    return {
        "donor": prepared.donor_id.name,
        "normalization_factor": prepared.normalization,
        "outliers": prepared.outliers,
    }


# ------------------------------------------------------------------ stages


def donor_candidates(
    visible: list[GenerationSeries],
    generation: GenerationId,
    calendar: GaCalendar,
) -> list[GenerationSeries]:
    """Generations usable as history donors: launched before the current
    one, and with their own returns trigger (a successor launch) on the
    calendar."""
    ga = calendar.ga_month(generation)
    candidates = []
    for s in visible:
        try:
            if calendar.ga_month(s.generation) < ga:
                calendar.ga_of_next(s.generation)
                candidates.append(s)
        except ValidationError:
            continue
    return candidates


def prepare_generation(
    series: GenerationSeries,
    calendar: GaCalendar,
    config: AppConfig,
    repair: bool,
) -> tuple[GenerationSeries, tuple[OutlierReport, ...]]:
    """Outlier repair (donor only), then the business-rule masks."""
    reports: list[OutlierReport] = []
    if repair:
        for channel in ("gross_returns", "new_receipts"):
            feature = series.feature(channel)
            report = detect_outliers(feature, config.preprocess.sigma_multiplier)
            if report.count:
                log.info("%s: repairing %d outlier months in %s",
                         series.generation, report.count, channel)
                repaired = repair_outliers(feature, report, config.preprocess.smoothing_window)
                series = series.replace_channel(channel, repaired.values)
            reports.append(report)
    series = filter_post_ga(series, calendar)
    series = exclude_prega_receipts(series, calendar, config.prep.receipt_exclusion_months)
    return series, tuple(reports)


def normalize_to_current(
    donor: GenerationSeries,
    current: GenerationSeries,
    calendar: GaCalendar,
) -> tuple[GenerationSeries, float]:
    """Scale every donor channel by one volume factor.

    The factor comes from shipments aligned at each generation's own GA:
    shipments are fully observed long before returns exist. One shared
    factor keeps the donor's internal channel ratios intact.
    """
    ga_donor = calendar.ga_month(donor.generation)
    ga_current = calendar.ga_month(current.generation)
    donor_ship = donor.feature("shipments").shift(-ga_donor.value)
    current_ship = current.feature("shipments").shift(-ga_current.value)
    window = donor_ship.interval.intersect(current_ship.interval)
    try:
        factor = normalization_factor(current_ship, donor_ship, window, window)
    except NumericError as exc:
        log.warning("normalization skipped (%s); factor 1.0", exc)
        return donor, 1.0
    scaled = {channel: donor.channel(channel) * factor for channel in CHANNELS}
    return GenerationSeries(donor.generation, donor.start, **scaled), factor


def prepare_histories(
    history: list[GenerationSeries],
    calendar: GaCalendar,
    generation: GenerationId,
    cycle_month: MonthIndex,
    config: AppConfig,
) -> PreparedHistories:
    """Pick the donor by genealogy, then clean both generations' visible
    history and put the donor on the current generation's volume.

    A series is visible when it starts before the cycle month. What is
    visible, the current generation's presence and the donor candidates
    come from the calendar and each series' first month, so the refusals up
    to the candidate check copy no series; only then are the current
    generation and its candidates cut to the cycle month."""
    visible = [s for s in history if s.start < cycle_month]
    if not visible:
        raise ValidationError(f"no history visible before {cycle_month}")
    by_name = {s.generation.name: s for s in visible}
    if generation.name not in by_name:
        raise ValidationError(f"no visible history for {generation.name} before {cycle_month}")
    current_raw = by_name[generation.name]

    candidates = donor_candidates(visible, generation, calendar)
    if candidates:  # with none, genealogy_match refuses before it reads a series
        current_raw = current_raw.truncate(cycle_month)
        candidates = [s.truncate(cycle_month) for s in candidates]
    donor_id = genealogy_match(
        current_raw, candidates, calendar, config.analysis.min_genealogy_overlap
    )
    donor_raw = {s.generation.name: s for s in candidates}[donor_id.name]
    current, _ = prepare_generation(current_raw, calendar, config, repair=False)
    donor, outliers = prepare_generation(donor_raw, calendar, config, repair=True)
    donor, factor = normalize_to_current(donor, current, calendar)
    return PreparedHistories(donor_id, donor, current, outliers, factor)


def observable_predictors(
    current: GenerationSeries, horizon: MonthInterval, config: AppConfig
) -> PredictorPlan:
    """Per predictor channel, the `[prep] lags`, in config order, whose lag
    of the current generation is defined on every horizon month, that is on
    the horizon moved back by k. Only these are built, for the donor too.

    The horizon must be non-empty and start at or after the end of the
    current generation's history, as `run_cycle`'s does. Then nothing that
    is defined exactly where its channel is (the raw channel, a lag below
    the horizon's length, a moving average, a running sum) covers a horizon
    month, so only lags are planned.
    """
    lags = config.prep.lags
    back, n = max(lags, default=0), len(horizon)
    # one mask per channel covers the horizon under every lag
    span = MonthInterval(horizon.start - back, horizon.end)
    plan: PredictorPlan = []
    for channel in PREDICTOR_CHANNELS:
        # one byte per month, zero where undefined
        defined = defined_on(current.feature(channel), span).tobytes()
        covered = tuple(k for k in lags if b"\0" not in defined[back - k : back - k + n])
        plan.append((channel, covered))
    return plan


def build_predictors(series: GenerationSeries, plan: PredictorPlan) -> list[FeatureSeries]:
    """The planned lags of the series' channels, in plan order."""
    return [lag(series.feature(channel), k) for channel, lags in plan for k in lags]


def rebase_phases(phases: LifecyclePhases, trigger: MonthIndex) -> LifecyclePhases:
    def move(iv: MonthInterval) -> MonthInterval:
        return MonthInterval(iv.start - trigger.value, iv.end - trigger.value)

    return LifecyclePhases(
        ramp_up=move(phases.ramp_up),
        plateau=move(phases.plateau),
        ramp_down=move(phases.ramp_down),
    )


def coverage_greedy(
    predictors: list[FeatureSeries], target: FeatureSeries, min_rows: int
) -> list[FeatureSeries]:
    """Admit predictors widest-overlap first while the aligned matrix stays
    at or above the row floor.

    Each predictor's defined mask is taken once on the target's interval
    (`defined_on`). The longest run of True in the AND of the target's and
    the chosen masks is then the row count `align(chosen, target)` would
    give, and names are rejected with `FeatureMatrix`'s messages.
    """
    if any(p.name == target.name for p in predictors):
        raise ValidationError(f"target name {target.name!r} collides with a predictor")
    defined, window = target.defined_mask, target.interval
    floor = min(min_rows, _longest_true_run(defined)[1])
    ranked = sorted(
        ((p, defined_on(p, window)) for p in predictors),
        key=lambda pm: (-_longest_true_run(defined & pm[1])[1], pm[0].name),
    )
    chosen: dict[str, FeatureSeries] = {}
    running = defined
    for p, mask in ranked:
        if p.name in chosen:
            raise ValidationError(f"duplicate feature name {p.name!r}")
        admitted = running & mask
        if _longest_true_run(admitted)[1] >= floor:
            chosen[p.name] = p
            running = admitted
    return list(chosen.values())


def _zoo(config: AppConfig, rel_phases: LifecyclePhases) -> list[ModelSpec]:
    """The configured contenders; phase-wise gets the donor's phases rebased
    to its trigger month."""
    m = config.models
    zoo = [
        ModelSpec(ModelKind.LINEAR),
        ModelSpec(ModelKind.CART, {"min_leaf": m.cart_min_leaf, "max_depth": m.cart_max_depth}),
        ModelSpec(
            ModelKind.CHAID,
            {
                "min_segment": m.chaid_min_segment,
                "merge_alpha": m.chaid_merge_alpha,
                "split_alpha": m.chaid_split_alpha,
            },
        ),
        ModelSpec(
            ModelKind.NEURAL,
            {
                "hidden_units": m.nn_hidden_units,
                "epochs": m.nn_epochs,
                "learning_rate": m.nn_learning_rate,
            },
            seed=m.seed,
        ),
        ModelSpec(ModelKind.TIMESERIES, {"seasonal": m.ts_seasonal, "period": m.ts_period}),
    ]
    if m.include_polynomial:
        zoo.append(ModelSpec(ModelKind.POLYNOMIAL))
    if m.include_phasewise:
        zoo.append(phasewise_spec(rel_phases, m.ts_period))
    return zoo


def select_for_model(
    table: tuple[CorrelationEntry, ...], candidates: list[FeatureSeries], cap: int
) -> list[FeatureSeries]:
    """Strong predictors, best first, truncated to the cap; top-correlated
    fallback when nothing clears the bar. Redundancy is the models' problem."""
    rows = [r for r in table if r.strength is Strength.STRONG]
    if not rows:
        rows = sorted(table, key=lambda r: -abs(r.pearson_r))[:3]
        log.warning("no strong predictors; falling back to top %d by |r|", len(rows))
    rows = sorted(rows, key=lambda r: (-abs(r.pearson_r), r.predictor))[:cap]
    names = {r.predictor for r in rows}
    return [p for p in candidates if p.name in names]


# --------------------------------------------------------------- the cycle


def plan_cycle(
    history: list[GenerationSeries],
    calendar: GaCalendar,
    generation: GenerationId | str,
    cycle_month: MonthIndex,
    config: AppConfig,
) -> CyclePlan:
    """Everything up to training: the donor and its phases, the observable
    predictors, the correlation pick and the split donor matrix. Decides
    every refusal that needs neither the store nor a fitted model."""
    if isinstance(generation, str):
        generation = calendar.resolve(generation)
    trigger = calendar.ga_of_next(generation)
    prepared = prepare_histories(history, calendar, generation, cycle_month, config)
    donor_id, donor, current = prepared.donor_id, prepared.donor, prepared.current

    donor_trigger = calendar.ga_of_next(donor_id)
    phases = segment_lifecycle(
        donor.feature("gross_returns"),
        calendar,
        donor_id,
        config.analysis.ramp_up_months,
        config.analysis.plateau_months,
    )

    # the observable lags, rebased so month 0 is each generation's trigger
    horizon = MonthInterval(cycle_month, cycle_month + config.pipeline.horizon_months)
    observable = observable_predictors(current, horizon, config)
    donor_target = donor.feature("gross_returns").shift(-donor_trigger.value)
    usable = [p.shift(-donor_trigger.value) for p in build_predictors(donor, observable)]
    if not usable:
        raise ValidationError(
            f"no predictor is observable across the horizon {horizon}; "
            "shorten the horizon or extend the lag set"
        )
    usable = coverage_greedy(usable, donor_target, config.pipeline.min_matrix_rows)

    table = build_correlation_table(usable, donor_target, config.analysis)
    if not table:
        raise ValidationError("every usable predictor is degenerate on the donor history")
    chosen = select_for_model(table, usable, config.pipeline.max_predictors)

    matrix = align(chosen, donor_target)
    if matrix.n_rows < 6:
        raise ValidationError(
            f"aligned donor matrix has only {matrix.n_rows} rows; not enough to train"
        )
    train, test = split_chronological(matrix, config.models.train_fraction)
    # a test split MAPE cannot score refuses before any training
    require_scorable(test)
    # the matrix's lags of the current generation over the horizon, rebased
    names = set(matrix.predictor_names)
    lags = [p for p in build_predictors(current, observable) if p.name in names]
    on_horizon = tuple(p.restrict(horizon).shift(-trigger.value) for p in lags)
    horizon_matrix = FeatureMatrix(horizon.start - trigger.value, None, on_horizon)
    zoo = tuple(_zoo(config, rebase_phases(phases, donor_trigger)))
    return CyclePlan(
        generation, cycle_month, calendar, config, prepared, phases, table,
        tuple(p.name for p in chosen), matrix, train, test, zoo, horizon_matrix,
        current.feature("gross_returns"),
    )


def train_plan(plan: CyclePlan) -> tuple[ModelLeaderboard, ForecastSeries]:
    """Race the plan's zoo on its split, then forecast its horizon matrix
    with the best model that can."""
    z = plan.config.models.z_multiplier
    leaderboard, residuals = evaluate_zoo(plan.zoo, plan.train, plan.test, z)
    return leaderboard, _winner_forecast(
        leaderboard, residuals, plan.matrix, plan.horizon_matrix, plan.cycle_month, z
    )


def finish_cycle(
    plan: CyclePlan,
    leaderboard: ModelLeaderboard,
    forecast_raw: ForecastSeries,
    previous: Optional[CycleRecord],
    ewa_steps: Optional[tuple[StepResult, Optional[StepResult]]],
    choice: PlannerChoice,
) -> CycleOutcome:
    """Adjust the raw forecast, recommend from the EWA steps `score_previous`
    scored, and build the cycle's record; nothing is written."""
    config = plan.config
    adjusted = adjust_forecast(
        forecast_raw,
        calendar=plan.calendar,
        generation=plan.generation,
        seasonal=_donor_seasonality(plan.prepared.donor, config),
        config=config.adjust,
    )

    ewa_report = recommend(plan.cycle_month, plan.actuals, adjusted.forecast, ewa_steps, config.ewa)

    record = CycleRecord.create(
        cycle_month=plan.cycle_month,
        generation=plan.generation,
        forecast=adjusted.forecast,
        choice=choice,
        realized_actuals=plan.actuals,
        ewa=to_json(ewa_report),
    )
    return CycleOutcome(plan, leaderboard, forecast_raw, adjusted, previous, ewa_report, record)


def cycle_outcome(
    history: list[GenerationSeries],
    calendar: GaCalendar,
    generation: GenerationId | str,
    cycle_month: MonthIndex,
    store: Optional[CycleStore],
    config: AppConfig,
    choice: PlannerChoice,
) -> CycleOutcome:
    """The cycle's stages in order; the store is read, never written."""
    plan = plan_cycle(history, calendar, generation, cycle_month, config)
    previous = store.load_previous_cycle(plan.generation, cycle_month) if store else None
    ewa_steps = None  # a first cycle has nothing to score
    if previous is not None:
        planner = FeatureSeries(
            name="planner_selected",
            start=previous.forecast.start,
            values=previous.selected_series,
        )
        ewa_steps = score_previous(plan.actuals, previous.forecast, planner, config.ewa)
    leaderboard, forecast_raw = train_plan(plan)
    return finish_cycle(plan, leaderboard, forecast_raw, previous, ewa_steps, choice)


def run_cycle(
    history: list[GenerationSeries],
    calendar: GaCalendar,
    generation: GenerationId | str,
    cycle_month: MonthIndex,
    store: Optional[CycleStore] = None,
    config: AppConfig = AppConfig(),
    choice: PlannerChoice = PlannerChoice.BEST_FIT,
) -> CycleOutcome:
    """One complete monthly planning cycle for one generation; with a store,
    the cycle's record is written to it."""
    outcome = cycle_outcome(history, calendar, generation, cycle_month, store, config, choice)
    if store is not None:
        store.store_cycle(outcome.record)
    return outcome


def _winner_forecast(
    leaderboard: ModelLeaderboard,
    residuals: dict[ModelKind, np.ndarray],
    matrix: FeatureMatrix,
    horizon_matrix: FeatureMatrix,
    start: MonthIndex,
    z: float,
) -> ForecastSeries:
    """Refit the leaderboard winner on the full donor matrix and predict the
    horizon from `start`, in a band of `z` times the held-out residual spread
    that `evaluate_zoo` measured. Falls to the next-ranked model if the
    winner cannot cover the horizon."""
    last_error: Exception | None = None
    for row in leaderboard:
        try:
            best = fit(row.spec, matrix).predict(horizon_matrix)
            lci, uci = residual_band(best, residuals[row.spec.kind], z)
            return ForecastSeries(
                start=start,
                best_fit=best,
                lci=lci,
                uci=uci,
                model=row.spec,
                test_mape=row.mape_best_fit,
                test_correlation=row.correlation,
            )
        except (ValidationError, NumericError) as exc:
            log.warning("%s cannot forecast the horizon: %s", row.spec.label(), exc)
            last_error = exc
    raise ValidationError(f"no ranked model can forecast the horizon: {last_error}")


def _donor_seasonality(
    donor: GenerationSeries, config: AppConfig
) -> Optional[SeasonalDecomposition]:
    """Seasonal pattern of the donor's returns, when enough history exists.

    The indices are calendar-anchored, so they transfer to the current
    generation's months; volumes already match via normalization.
    """
    if not config.adjust.apply_seasonal:
        return None
    feature = donor.feature("gross_returns")
    mask = feature.defined_mask  # genealogy admits no donor without defined returns
    first, last = int(np.argmax(mask)), len(mask) - int(np.argmax(mask[::-1]))
    window = feature.restrict(
        MonthInterval(feature.start + first, feature.start + last)
    )
    if len(window) < 2 * config.analysis.seasonal_period or not window.defined_mask.all():
        return None
    try:
        return decompose_seasonal(window, config.analysis.seasonal_period)
    except (ValidationError, NumericError) as exc:
        log.warning("seasonal decomposition skipped: %s", exc)
        return None
