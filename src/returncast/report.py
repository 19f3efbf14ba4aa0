"""The cycle report file: one deterministic CSV, sections separated by
blank lines.

`SECTIONS` is the one source for the section order: run metadata
(field,value), the monthly grid with the fixed column set, the model
leaderboard, the correlation table, lifecycle phases, flagged outliers,
applied adjustments, and EWA statistics. `render_report` writes the sections
in that order and `validate_report` checks them against it.

The monthly grid covers the months the EWA scored (realized actuals against
the previous forecast, with per-month deviation, PAD, and color) followed by
the forecast horizon. Cycle-level values (test MAPE, score, projection,
alert, recommendation) sit on the cycle-month row; every other cell they
would not apply to stays empty. Quarterly subtotal rows follow the monthly
rows, summing forecast bands over each calendar quarter the horizon touches.

Everything is formatted to fixed precision and iterated in a fixed order, so
re-emission from identical inputs is byte-identical.
"""
from __future__ import annotations

import math
from typing import Optional

from .analysis import PHASES
from .core import MonthIndex
from .errors import ValidationError
from .pipeline import CycleOutcome

MONTHLY_HEADER = (
    "month,actual,best_fit,lci,uci,mape,deviation,pad,color,"
    "score,projection,alert,recommendation,adjustment_notes"
)
LEADERBOARD_HEADER = "algorithm,mape_best_fit,mape_lci,mape_uci,correlation"
CORRELATION_HEADER = "predictor,pearson_r,strength"
PHASES_HEADER = "phase,start,end"
OUTLIERS_HEADER = "outlier_feature,month,value,band_low,band_high"
ADJUSTMENTS_HEADER = "adjustment,factor,months"
EWA_HEADER = "ewa_stat,value"
METADATA_HEADER = "field,value"

SECTIONS = (
    METADATA_HEADER,
    MONTHLY_HEADER,
    LEADERBOARD_HEADER,
    CORRELATION_HEADER,
    PHASES_HEADER,
    OUTLIERS_HEADER,
    ADJUSTMENTS_HEADER,
    EWA_HEADER,
)
_BANDS = ("best_fit", "lci", "uci")


def _num(x: Optional[float]) -> str:
    """Fixed-precision cell; absent or undefined values stay empty."""
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return f"{x:.4f}"


def _flag(x: Optional[bool]) -> str:
    return "" if x is None else ("true" if x else "false")


def _monthly_rows(outcome: CycleOutcome) -> list[str]:
    """EWA-scored months, then the horizon, then quarterly subtotals."""
    ewa, forecast, plan = outcome.ewa, outcome.forecast, outcome.plan
    previous = outcome.previous.forecast if outcome.previous is not None else None
    scored: dict[MonthIndex, tuple[float, float, str]] = {}
    if ewa.step1 is not None:
        step = ewa.step1
        for m, dev, pad, color in zip(step.months, step.deviations, step.pad_signed, step.colors):
            scored[m] = (dev, pad, color.value if color is not None else "")
    # the cycle-level cells after color, filled on the cycle-month row only
    cycle_cells = [
        _num(ewa.score),
        _num(ewa.projection),
        ewa.alert.value,
        ewa.recommendation.value,
    ]

    rows = []
    for m in sorted(set(scored) | set(forecast.months())):
        in_horizon = m in forecast.interval
        is_cycle_row = m == plan.cycle_month
        # a scored month outside the horizon was scored against the previous
        # forecast, so it lies in that forecast, which exists whenever EWA scored
        bands = forecast if in_horizon else previous
        dev, pad, color = scored.get(m, (None, None, ""))
        notes = ";".join(
            n.describe() for n in outcome.adjustments.notes if m in n.months
        )
        cells = [
            str(m),
            _num(plan.actuals.value_at(m)),
            *(_num(bands.value_at(m, band)) for band in _BANDS),
            _num(forecast.test_mape) if is_cycle_row else "",
            _num(dev),
            _num(pad),
            color,
            *(cycle_cells if is_cycle_row else [""] * len(cycle_cells)),
            notes if in_horizon else "",
        ]
        rows.append(",".join(cells))

    # quarterly subtotals over the horizon months only
    by_quarter: dict[tuple[int, int], list[MonthIndex]] = {}
    for m in forecast.months():
        by_quarter.setdefault((m.year, m.quarter), []).append(m)
    for (year, quarter), q_months in sorted(by_quarter.items()):
        sums = [_num(math.fsum(forecast.value_at(m, b) for m in q_months)) for b in _BANDS]
        rows.append(",".join([f"{year}-Q{quarter}", "", *sums, *[""] * 9]))
    return rows


def render_report(outcome: CycleOutcome) -> str:
    """Render the full report; `emit_report` writes it to a file."""
    ewa, plan = outcome.ewa, outcome.plan
    meta = [
        ("cycle", str(plan.cycle_month)),
        ("generation", plan.generation.name),
        ("donor", outcome.donor.name),
        ("normalization_factor", _num(plan.prepared.normalization)),
        ("winning_model", outcome.forecast.model.label()),
        ("selected_predictors", ";".join(plan.selected)),
        ("planner_choice", outcome.record.planner_selected.value),
        ("first_cycle", _flag(ewa.first_cycle)),
    ]
    phases = [(name, getattr(plan.phases, name)) for name in PHASES]
    six_mean, six_sd = ewa.six_month if ewa.six_month is not None else (None, None)
    stats = [
        ("first_cycle", _flag(ewa.first_cycle)),
        ("alert", ewa.alert.value),
        ("recommendation", ewa.recommendation.value),
        ("score", _num(ewa.score)),
        ("six_month_mean", _num(six_mean)),
        ("six_month_sd", _num(six_sd)),
        ("projection", _num(ewa.projection)),
        ("step1_window_pad", _num(ewa.step1.window_pad) if ewa.step1 else ""),
        ("step2_window_pad", _num(ewa.step2.window_pad) if ewa.step2 else ""),
        ("steps_disagree", _flag(ewa.steps_disagree if not ewa.first_cycle else None)),
    ]
    # one list of rows per entry of SECTIONS, in the same order
    bodies = [
        [f"{k},{v}" for k, v in meta],
        _monthly_rows(outcome),
        [
            ",".join(
                [
                    row.spec.label(),
                    _num(row.mape_best_fit),
                    _num(row.mape_lci),
                    _num(row.mape_uci),
                    _num(row.correlation),
                ]
            )
            for row in outcome.leaderboard
        ],
        [
            f"{entry.predictor},{_num(entry.pearson_r)},{entry.strength.value}"
            for entry in plan.table
        ],
        [f"{name},{iv.start},{iv.end}" for name, iv in phases],
        [
            f"{report.feature},{month},{_num(value)},{_num(report.lower)},{_num(report.upper)}"
            for report in plan.prepared.outliers
            for month, value in zip(report.months, report.values)
        ],
        [
            f"{note.rule},{_num(note.factor)},"
            + (f"{note.months[0]}..{note.months[-1]}" if note.months else "")
            for note in outcome.adjustments.notes
        ],
        [f"{k},{v}" for k, v in stats],
    ]
    sections = ("\n".join([header, *rows]) for header, rows in zip(SECTIONS, bodies, strict=True))
    return "\n\n".join(sections) + "\n"


def emit_report(outcome: CycleOutcome, path) -> str:
    text = render_report(outcome)
    validate_report(text)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write report to {path}: {exc}") from exc
    return text


def _split_sections(text: str) -> list[list[str]]:
    sections, current = [], []
    for line in text.splitlines():
        if line == "":
            if current:
                sections.append(current)
            current = []
        else:
            current.append(line)
    if current:
        sections.append(current)
    return sections


def validate_report(text: str) -> dict:
    """Check the report against its section schema; returns parsed sections.

    Verifies the fixed headers, that every monthly cell parses as a month,
    number, or allowed token, and that quarterly rows equal the sum of their
    constituent monthly forecast rows.
    """
    sections = _split_sections(text)
    headers = [s[0] for s in sections]
    if headers != list(SECTIONS):
        raise ValidationError(f"report sections {headers} != expected {list(SECTIONS)}")
    body = {s[0]: s[1:] for s in sections}

    metadata = dict(line.split(",", 1) for line in body[METADATA_HEADER])
    if "cycle" not in metadata:
        raise ValidationError("report metadata is missing the cycle month")
    cycle_month = MonthIndex.parse(metadata["cycle"])

    n_columns = len(MONTHLY_HEADER.split(","))
    month_rows: dict[MonthIndex, list[str]] = {}
    quarter_rows: dict[str, list[str]] = {}
    for line in body[MONTHLY_HEADER]:
        cells = line.split(",")
        if len(cells) < n_columns:
            raise ValidationError(f"monthly row has {len(cells)} cells: {line!r}")
        label = cells[0]
        if "-Q" in label:
            quarter_rows[label] = cells
        else:
            month_rows[MonthIndex.parse(label)] = cells
        for cell in cells[1:5]:
            if cell:
                float(cell)  # ValueError bubbles as a genuine schema failure
    if not month_rows:
        raise ValidationError("report has no monthly rows")

    # subtotals cover horizon months only, which start at the cycle month
    for label, cells in quarter_rows.items():
        year, q = label.split("-Q")
        member_cols: dict[int, float] = {}
        for m, row in month_rows.items():
            if m.year == int(year) and m.quarter == int(q) and m >= cycle_month:
                for col in (2, 3, 4):
                    if row[col]:
                        member_cols[col] = member_cols.get(col, 0.0) + float(row[col])
        for col in (2, 3, 4):
            if not cells[col]:
                continue
            total = member_cols.get(col, 0.0)
            if abs(float(cells[col]) - total) > 1e-2:
                raise ValidationError(
                    f"{label} column {col} subtotal {cells[col]} != sum {total:.4f}"
                )

    if not body[LEADERBOARD_HEADER]:
        raise ValidationError("leaderboard section is empty")
    return {
        "metadata": metadata,
        "months": {str(m): row for m, row in month_rows.items()},
        "quarters": quarter_rows,
        "leaderboard": body[LEADERBOARD_HEADER],
        "correlations": body[CORRELATION_HEADER],
        "phases": body[PHASES_HEADER],
        "outliers": body[OUTLIERS_HEADER],
        "adjustments": body[ADJUSTMENTS_HEADER],
        "ewa": dict(line.split(",", 1) for line in body[EWA_HEADER]),
    }
