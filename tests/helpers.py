"""Small builders shared across test modules."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from returncast.config import AppConfig
from returncast.core import (
    FeatureSeries,
    GaCalendar,
    GaEntry,
    GenerationId,
    GenerationSeries,
    MonthIndex,
)
from returncast.cycle_store import CycleStore
from returncast.encode import to_json
from returncast.errors import NumericError, ValidationError
from returncast.pipeline import CycleOutcome, outlier_screen, run_cycle


def month(text: str) -> MonthIndex:
    return MonthIndex.parse(text)


def fs(values, start: str = "2010-01", name: str = "f") -> FeatureSeries:
    return FeatureSeries(name=name, start=month(start), values=np.asarray(values, dtype=float))


def family_calendar(*ga_months: str, family: str = "fleet") -> GaCalendar:
    """Calendar with generations gen1, gen2, ... at the given GA months."""
    return GaCalendar(
        GaEntry(
            generation=GenerationId(f"gen{i + 1}", ordinal=i + 1),
            family=family,
            ga_month=month(m),
        )
        for i, m in enumerate(ga_months)
    )


def gen_series(
    name: str,
    start: str,
    returns,
    shipments=None,
    upgrades=None,
    receipts=None,
    ordinal: int = 0,
) -> GenerationSeries:
    ret = np.asarray(returns, dtype=float)
    n = len(ret)

    def channel(values):
        return np.zeros(n) if values is None else np.asarray(values, dtype=float)

    return GenerationSeries(
        generation=GenerationId(name, ordinal=ordinal),
        start=month(start),
        shipments=channel(shipments),
        upgrades=channel(upgrades),
        new_receipts=channel(receipts),
        gross_returns=ret,
    )


def lifecycle_cycles(history, calendar: GaCalendar, root, config: AppConfig, history_at=None):
    """Every month of every generation, oldest generation first, each
    generation against its own store under `root`. Yields (generation name,
    cycle month, outcome), where a refused cycle's outcome is its exception.
    With `history_at`, the cycle at a month runs on `history_at(month)`."""
    for series in sorted(history, key=lambda s: s.generation.ordinal):
        store = CycleStore(Path(root) / series.generation.name)
        for j in range(1, len(series) + 1):
            month = series.start + j
            seen = history if history_at is None else history_at(month)
            try:
                outcome = run_cycle(
                    seen, calendar, series.generation.name, month, store=store, config=config
                )
            except (ValidationError, NumericError) as exc:
                outcome = exc
            yield series.generation.name, month, outcome


def stage_documents(outcome: CycleOutcome) -> dict:
    """Every stage artifact of a cycle as JSON data, one key per artifact:
    what the CLI stages write (the table in `returncast.cli`)."""
    return to_json(
        {
            "outliers": outlier_screen(outcome.plan.prepared),
            "analysis": outcome.plan.analysis,
            "leaderboard": outcome.leaderboard,
            "forecast": outcome.forecast_raw,
            "ewa": outcome.ewa,
            "adjust": outcome.adjustments,
            "record": outcome.record,
        }
    )
