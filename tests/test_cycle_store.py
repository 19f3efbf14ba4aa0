"""Persistence of per-cycle planning records."""
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from returncast.core import GenerationId
from returncast.cycle_store import CycleRecord, CycleStore, PlannerChoice
from returncast.encode import from_json, json_text, to_json
from returncast.errors import ValidationError
from returncast.models import ForecastSeries, ModelKind, ModelSpec

from helpers import fs, month

GEN = GenerationId("gen2", 2)


def forecast_of(values, start="2012-01"):
    best = np.asarray(values, dtype=float)
    return ForecastSeries(
        start=month(start),
        best_fit=best,
        lci=best * 0.8,
        uci=best * 1.2,
        model=ModelSpec(ModelKind.CHAID, {"min_segment": 5}),
        test_mape=4.1,
        test_correlation=0.97,
    )


def test_planner_choice_band_names():
    assert PlannerChoice.BEST_FIT.band == "best_fit"
    assert PlannerChoice.LCI.band == "lci"
    assert PlannerChoice.UCI.band == "uci"


def test_record_pins_the_committed_series():
    f = forecast_of([10.0, 20.0, 30.0])
    record = CycleRecord.create(month("2012-04"), GEN, f, choice=PlannerChoice.UCI)
    assert np.array_equal(record.selected_series, f.uci)
    with pytest.raises(ValidationError):
        CycleRecord(
            cycle_month=month("2012-04"),
            generation=GEN,
            forecast=f,
            planner_selected=PlannerChoice.LCI,
            selected_series=f.uci,  # wrong band
        )


def test_record_roundtrip_with_and_without_actuals(tmp_path):
    store = CycleStore(tmp_path)
    f = forecast_of([10.0, 20.0, 30.0])
    bare = CycleRecord.create(month("2012-04"), GEN, f)
    store.store_cycle(bare)
    back = store.load_cycle(GEN, month("2012-04"))
    assert back.realized_actuals is None and back.ewa is None
    assert back.forecast.model == f.model
    assert np.array_equal(back.selected_series, f.best_fit)

    actuals = fs([11.0, np.nan, 29.0], start="2012-01", name="gross_returns")
    full = CycleRecord.create(
        month("2012-04"), GEN, f, realized_actuals=actuals, ewa={"alert": "None", "score": 9.0}
    )
    store.store_cycle(full)
    back = store.load_cycle(GEN, month("2012-04"))
    assert back.ewa == {"alert": "None", "score": 9.0}
    got = back.realized_actuals
    assert got.start == month("2012-01")
    assert got.values[1] != got.values[1]  # NaN survives the JSON roundtrip
    assert got.values[2] == 29.0


def _record_text(actuals: bool, ewa: bool, correlation: float) -> str:
    forecast = replace(forecast_of([1.0, 2.5, 3.0]), test_correlation=correlation)
    return json_text(CycleRecord.create(
        month("2012-04"), GEN, forecast, choice=PlannerChoice.LCI,
        realized_actuals=fs([4.0, np.nan, 6.5], name="gross_returns") if actuals else None,
        ewa={"alert": "None", "score": None} if ewa else None,
    ))


RECORD_TEXTS = {
    **{name: (Path(__file__).parent / "fixtures" / name).read_text()
       for name in ("demo/record.json", "two_cycles/record.json")},
    "bare": _record_text(actuals=False, ewa=False, correlation=0.97),
    "actuals_only": _record_text(actuals=True, ewa=False, correlation=0.97),
    "full_nan_correlation": _record_text(actuals=True, ewa=True, correlation=math.nan),
}


@pytest.mark.parametrize("name", sorted(RECORD_TEXTS))
def test_valid_record_loads_byte_identically(name):
    text = RECORD_TEXTS[name]
    assert json_text(from_json(CycleRecord, json.loads(text))) == text


def test_record_written_before_versions_loads_as_schema_1():
    text = RECORD_TEXTS["full_nan_correlation"]
    doc = json.loads(text)
    del doc["schema"]
    doc["forecast"]["test_correlation"] = math.nan
    old = json.dumps(doc)  # as records were written: no schema, a bare NaN
    assert "NaN" in old
    record = from_json(CycleRecord, json.loads(old))
    assert record.schema == 1
    assert json_text(record) == text


def test_json_text_is_strict():
    assert json_text({"r": math.nan, "values": np.array([1.0, np.nan])}) == (
        '{\n  "r": null,\n  "values": [\n    1.0,\n    null\n  ]\n}\n'
    )
    with pytest.raises(ValueError):
        json_text({"r": math.inf})


def test_damaged_record_names_the_field():
    doc = to_json(CycleRecord.create(month("2012-04"), GEN, forecast_of([1.0, 2.0, 3.0])))
    for field, value in (("ewa", "Green"), ("ewa", 3), ("selected_series", [1.0, 2.0]),
                         ("selected_series", 1.0)):
        with pytest.raises(ValidationError, match=f"record field '{field}'"):
            from_json(CycleRecord, {**doc, field: value})
    assert from_json(CycleRecord, {**doc, "ewa": None}).ewa is None


def _with(doc: dict, where: tuple, value) -> str:
    """`doc` as JSON text with the field at `where` (keys, outermost first) set to `value`."""
    doc = json.loads(json.dumps(doc))
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


# a field of the wrong type or value, which the message names by its
# dotted path
WRONG_FIELDS = [
    (("forecast", "test_mape"), "x"),
    (("cycle_month",), 5),
    (("generation",), "gen2"),
    (("forecast", "best_fit"), "abc"),
    (("planner_selected",), "Nope"),
    (("forecast",), []),
    (("realized_actuals", "values"), ["a"]),
    (("forecast", "model", "hyperparameters"), [1, 2]),
]


def test_unreadable_record_names_the_file(tmp_path):
    store = CycleStore(tmp_path)
    actuals = fs([1.0, 2.0], start="2012-01", name="gross_returns")
    record = CycleRecord.create(
        month("2012-04"), GEN, forecast_of([1.0, 2.0]), realized_actuals=actuals
    )
    path = store.store_cycle(record)
    text = path.read_text()
    doc = json.loads(text)
    no_forecast = {k: v for k, v in doc.items() if k != "forecast"}
    cases = [(text[:-10], "is not valid JSON"),
             (json.dumps(no_forecast), "has no field 'forecast'"),
             ("[]", "is not a JSON object"),
             # the damage's own text is kept
             (_with(doc, ("ewa",), 3), "is damaged: record field 'ewa'"),
             (_with(doc, ("schema",), 2), "has schema 2; this version reads schema 1"),
             (_with(doc, ("schema",), "1"), "has schema '1'")]
    cases += [(_with(doc, where, value), f"is damaged: record field '{'.'.join(where)}'")
              for where, value in WRONG_FIELDS]
    for damaged, message in cases:
        path.write_text(damaged)
        with pytest.raises(ValidationError, match=f"{path.name} {message}"):
            store.load_cycle(GEN, month("2012-04"))


@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
def test_unreadable_record_path_is_named(tmp_path, unreadable):
    store = CycleStore(tmp_path)
    path = store.path_for(GEN, month("2012-04"))
    path.parent.mkdir(parents=True)
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"cycle_month": "2012-04\xff"}')
    with pytest.raises(ValidationError, match=re.escape(f"cycle record {path} is unreadable")):
        store.load_previous_cycle(GEN, month("2012-05"))


def test_store_lists_and_finds_previous_cycles(tmp_path):
    store = CycleStore(tmp_path)
    for m in ("2012-06", "2012-01", "2012-04"):
        store.store_cycle(CycleRecord.create(month(m), GEN, forecast_of([1.0, 2.0], start=m)))
    assert [str(m) for m in store.list_cycle_months(GEN)] == ["2012-01", "2012-04", "2012-06"]

    previous = store.load_previous_cycle(GEN, month("2012-06"))
    assert previous.cycle_month == month("2012-04")
    assert store.load_previous_cycle(GEN, month("2012-01")) is None
    assert store.load_previous_cycle(GenerationId("other", 1), month("2013-01")) is None
    assert store.load_cycle(GEN, month("2011-01")) is None


def test_stray_json_in_a_generation_folder_is_named(tmp_path):
    store = CycleStore(tmp_path)
    store.store_cycle(CycleRecord.create(month("2012-09"), GEN, forecast_of([1.0, 2.0])))
    stray = store.path_for(GEN, month("2012-09")).with_name("notes.json")
    stray.write_text("{}")
    message = f"cycle store file {stray}: bad month 'notes'"
    with pytest.raises(ValidationError, match=re.escape(message)):
        store.load_previous_cycle(GEN, month("2012-10"))


def test_store_overwrites_same_cycle(tmp_path):
    store = CycleStore(tmp_path)
    first = CycleRecord.create(month("2012-04"), GEN, forecast_of([1.0, 2.0]))
    second = CycleRecord.create(month("2012-04"), GEN, forecast_of([5.0, 6.0]))
    store.store_cycle(first)
    path = store.store_cycle(second)
    assert path == store.path_for(GEN, month("2012-04"))
    assert np.array_equal(store.load_cycle(GEN, month("2012-04")).selected_series, [5.0, 6.0])
    assert len(store.list_cycle_months(GEN)) == 1
