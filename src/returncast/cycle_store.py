"""Per-cycle planning records, persisted one JSON file per generation-month.

A deviation check needs last cycle's forecast and what the planner actually
committed to, months after the fact. Records are strict JSON on disk,
versioned by their `schema` field, so an audit can read them without this
package.
"""
from __future__ import annotations

import enum
import json
import os
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import FeatureSeries, GenerationId, MonthIndex
from .encode import from_json, json_text
from .errors import ValidationError
from .models import ForecastSeries


class PlannerChoice(enum.Enum):
    BEST_FIT = "BestFit"
    LCI = "LCI"
    UCI = "UCI"

    @property
    def band(self) -> str:
        return {"BestFit": "best_fit", "LCI": "lci", "UCI": "uci"}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CycleRecord:
    """Everything one planning cycle committed to, plus actuals seen since."""

    cycle_month: MonthIndex
    generation: GenerationId
    forecast: ForecastSeries
    planner_selected: PlannerChoice
    selected_series: np.ndarray
    realized_actuals: Optional[FeatureSeries] = None
    ewa: Optional[dict] = None  # this cycle's EwaReport as JSON data, stored verbatim
    # the record format's version; a record written before versions loads as 1
    schema: int = 1

    def __post_init__(self):
        arr = np.asarray(self.selected_series, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "selected_series", arr)
        band = getattr(self.forecast, self.planner_selected.band)
        if len(arr) != len(band) or not np.array_equal(arr, band):
            raise ValidationError(
                f"record field 'selected_series' does not match forecast "
                f"{self.planner_selected.band}"
            )

    @classmethod
    def create(
        cls,
        cycle_month: MonthIndex,
        generation: GenerationId,
        forecast: ForecastSeries,
        choice: PlannerChoice = PlannerChoice.BEST_FIT,
        realized_actuals: Optional[FeatureSeries] = None,
        ewa: Optional[dict] = None,
    ) -> "CycleRecord":
        return cls(
            cycle_month=cycle_month,
            generation=generation,
            forecast=forecast,
            planner_selected=choice,
            selected_series=getattr(forecast, choice.band),
            realized_actuals=realized_actuals,
            ewa=ewa,
        )


class CycleStore:
    """Directory store, one `<generation>/<YYYY-MM>.json` per cycle.

    Writes are atomic whole-file replacements; re-storing the same cycle
    month overwrites the old record. Single writer by contract.
    """

    def __init__(self, root: str | Path):
        # the directory appears with the first stored record; reads of a
        # missing store find no records, but a root no write could create
        # (its nearest existing ancestor is not a directory) is refused now
        self.root = Path(root)
        nearest = next(p for p in (self.root, *self.root.parents) if p.exists())
        if not nearest.is_dir():
            raise ValidationError(f"cycle store {self.root} is unusable: {nearest} is a file")

    def _generation_dir(self, generation: GenerationId) -> Path:
        return self.root / urllib.parse.quote(generation.name, safe="")

    def path_for(self, generation: GenerationId, month: MonthIndex) -> Path:
        """Where the record for (generation, month) lives (whether or not it exists)."""
        return self._generation_dir(generation) / f"{month}.json"

    def store_cycle(self, record: CycleRecord) -> Path:
        path = self.path_for(record.generation, record.cycle_month)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json_text(record), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def load_cycle(self, generation: GenerationId, month: MonthIndex) -> Optional[CycleRecord]:
        path = self.path_for(generation, month)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cycle record {path} is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cycle record {path} is unreadable: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"cycle record {path} is not a JSON object")
        # checked first: another version may shape any other field differently
        if doc.get("schema", 1) != CycleRecord.schema:
            raise ValidationError(f"cycle record {path} has schema {doc['schema']!r}; "
                                  f"this version reads schema {CycleRecord.schema}")
        try:
            return from_json(CycleRecord, doc)
        except KeyError as exc:
            raise ValidationError(f"cycle record {path} has no field {exc}") from None
        except ValidationError as exc:  # it names the field by its dotted path
            raise ValidationError(f"cycle record {path} is damaged: {exc}") from None

    def list_cycle_months(self, generation: GenerationId) -> list[MonthIndex]:
        folder = self._generation_dir(generation)
        if not folder.is_dir():
            return []
        months = []
        for entry in folder.iterdir():
            if entry.suffix == ".json":
                try:
                    months.append(MonthIndex.parse(entry.stem))
                except ValidationError as exc:
                    raise ValidationError(f"cycle store file {entry}: {exc}") from None
        return sorted(months)

    def load_previous_cycle(
        self, generation: GenerationId, before: MonthIndex
    ) -> Optional[CycleRecord]:
        """Most recent record strictly before `before`, or None."""
        months = [m for m in self.list_cycle_months(generation) if m < before]
        if not months:
            return None
        return self.load_cycle(generation, max(months))
