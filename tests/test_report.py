"""Cycle report rendering and schema validation."""
from dataclasses import replace

import pytest

from returncast.config import AppConfig
from returncast.core import MonthIndex
from returncast.cycle_store import CycleStore
from returncast.errors import ValidationError
from returncast.pipeline import run_cycle
from returncast.report import (
    LEADERBOARD_HEADER,
    MONTHLY_HEADER,
    emit_report,
    render_report,
    validate_report,
)
from returncast.synth import ScenarioSpec, generate

from helpers import month


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    # the window runs past the first cycle month so the second cycle can
    # score the stored forecast against realized actuals
    series, calendar, _ = generate(
        ScenarioSpec(generations=3, months_after_final_ga=14, seed=0)
    )
    store = CycleStore(tmp_path_factory.mktemp("cycles"))
    first = run_cycle(series, calendar, "gen2", month("2012-09"), store=store)
    second = run_cycle(series, calendar, "gen2", month("2012-12"), store=store)
    return first, second


def test_render_is_deterministic(outcomes):
    first, _ = outcomes
    assert render_report(first) == render_report(first)


def test_report_validates_and_parses(outcomes):
    first, second = outcomes
    for outcome in (first, second):
        parsed = validate_report(render_report(outcome))
        assert parsed["metadata"]["cycle"] == str(outcome.plan.cycle_month)
        assert parsed["metadata"]["generation"] == "gen2"
        assert parsed["metadata"]["donor"] == "gen1"
        assert len(parsed["leaderboard"]) == 5
        assert len(parsed["quarters"]) >= 4  # 12 horizon months span 5 quarters


def test_first_cycle_report_leaves_validation_cells_empty(outcomes):
    first, _ = outcomes
    parsed = validate_report(render_report(first))
    assert parsed["metadata"]["first_cycle"] == "true"
    assert parsed["ewa"]["score"] == ""
    assert parsed["ewa"]["steps_disagree"] == ""
    cycle_row = parsed["months"][str(first.plan.cycle_month)]
    assert cycle_row[11] == "None"  # alert column
    assert cycle_row[12] == "UseBestFit"


def test_second_cycle_report_scores_the_previous_forecast(outcomes):
    _, second = outcomes
    parsed = validate_report(render_report(second))
    assert parsed["metadata"]["first_cycle"] == "false"
    assert parsed["ewa"]["score"] != ""
    assert parsed["ewa"]["step1_window_pad"] != ""
    # scored months carry a color in the monthly grid
    colored = [row for row in parsed["months"].values() if row[8] in ("Red", "Yellow", "Green")]
    assert colored


def test_tampered_quarter_subtotal_is_caught(outcomes):
    first, _ = outcomes
    text = render_report(first)
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines) if "-Q" in line.split(",")[0])
    cells = lines[idx].split(",")
    cells[2] = f"{float(cells[2]) + 5.0:.4f}"
    lines[idx] = ",".join(cells)
    with pytest.raises(ValidationError):
        validate_report("\n".join(lines) + "\n")


def test_missing_section_is_caught(outcomes):
    first, _ = outcomes
    text = render_report(first).replace(LEADERBOARD_HEADER + "\n", "")
    with pytest.raises(ValidationError):
        validate_report(text)


def test_malformed_month_row_is_caught(outcomes):
    first, _ = outcomes
    text = render_report(first)
    lines = text.splitlines()
    grid_start = lines.index(MONTHLY_HEADER) + 1
    cells = lines[grid_start].split(",")
    cells[2] = "not-a-number"
    lines[grid_start] = ",".join(cells)
    with pytest.raises(ValueError):
        validate_report("\n".join(lines) + "\n")


def test_emit_report_writes_validated_bytes(outcomes, tmp_path):
    first, _ = outcomes
    path = tmp_path / "report.csv"
    text = emit_report(first, path)
    assert path.read_text(encoding="utf-8") == text == render_report(first)


def test_monthly_rows_cover_the_horizon(outcomes):
    first, _ = outcomes
    parsed = validate_report(render_report(first))
    horizon = [m for m in parsed["months"] if MonthIndex.parse(m) >= first.plan.cycle_month]
    assert len(horizon) == 12
    for m in horizon:
        row = parsed["months"][m]
        assert row[2] and row[3] and row[4]  # all three bands present


def test_onset_clamp_is_itemized_in_the_report():
    # the README demo cycle with an onset 36 months after gen2's GA (2010-01)
    series, calendar, _ = generate(ScenarioSpec(generations=3, months_after_final_ga=8, seed=0))
    config = replace(AppConfig(), adjust=replace(AppConfig().adjust, onset_months=36))
    outcome = run_cycle(series, calendar, "gen2", month("2012-09"), config=config)
    parsed = validate_report(render_report(outcome))
    note = "zero_before_onset [2012-09..2012-12]"
    for m in ("2012-09", "2012-10", "2012-11", "2012-12"):
        row = parsed["months"][m]
        assert row[2:5] == ["0.0000"] * 3
        assert note in row[-1].split(";")
    assert note not in parsed["months"]["2013-01"][-1]
    assert "zero_before_onset,,2012-09..2012-12" in parsed["adjustments"]
