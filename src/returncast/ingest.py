"""CSV ingestion of returns history and the GA calendar.

History schema (header required, exact):
    generation_id,month,shipments,upgrades,new_receipts,gross_returns
GA calendar schema:
    generation_id,family,ordinal,ga_month

Months are YYYY-MM. Quantities must be non-negative decimals. Month gaps
within a generation are errors, never imputed: the lags and the outlier
repair's moving average assume contiguous months and silent imputation
would corrupt them. Files are UTF-8, read with or without the byte-order
mark that spreadsheet programs write; text that cannot be decoded is a
validation error.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CHANNELS, GaCalendar, GaEntry, GenerationId, GenerationSeries, MonthIndex
from .errors import ValidationError

HISTORY_HEADER = ["generation_id", "month", "shipments", "upgrades", "new_receipts", "gross_returns"]
GA_HEADER = ["generation_id", "family", "ordinal", "ga_month"]


def _open_rows(path: str | Path, expected_header: list[str]):
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no input file at {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                return  # fully empty file: treated as zero rows
            if [h.strip() for h in header] != expected_header:
                raise ValidationError(
                    f"{path}: bad header {header!r}, expected {','.join(expected_header)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                yield lineno, [cell.strip() for cell in row]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not readable as text: {exc}") from None


def _parse_quantity(text: str, column: str, path, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{path} line {lineno}: malformed {column} {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path} line {lineno}: non-finite {column}")
    if value < 0:
        raise ValidationError(f"{path} line {lineno}: negative {column}")
    return value


def load_history(path: str | Path, calendar: Optional[GaCalendar] = None) -> list[GenerationSeries]:
    """Load one GenerationSeries per generation_id, sorted by first month.

    When a calendar is given, generation ordinals are resolved from it;
    otherwise they default to 0.
    """
    rows_by_gen: dict[str, list[tuple[int, MonthIndex, list[float]]]] = {}
    for lineno, row in _open_rows(path, HISTORY_HEADER):
        if len(row) != len(HISTORY_HEADER):
            raise ValidationError(f"{path} line {lineno}: expected {len(HISTORY_HEADER)} fields, got {len(row)}")
        gen_name = row[0]
        if not gen_name:
            raise ValidationError(f"{path} line {lineno}: empty generation_id")
        month = MonthIndex.parse(row[1])
        quantities = [
            _parse_quantity(row[2 + i], CHANNELS[i], path, lineno) for i in range(4)
        ]
        rows_by_gen.setdefault(gen_name, []).append((lineno, month, quantities))

    series: list[GenerationSeries] = []
    for gen_name in sorted(rows_by_gen):
        rows = sorted(rows_by_gen[gen_name], key=lambda r: r[1])
        months = [r[1] for r in rows]
        for (ln_a, a, _), (ln_b, b, _) in zip(rows, rows[1:]):
            if b - a == 0:
                raise ValidationError(f"{path} line {ln_b}: duplicate month {b} for generation {gen_name!r}")
            if b - a > 1:
                raise ValidationError(
                    f"{path}: generation {gen_name!r} has a month gap between {a} and {b}"
                )
        values = np.array([r[2] for r in rows], dtype=float)
        generation = calendar.resolve(gen_name) if calendar is not None else GenerationId(gen_name)
        series.append(
            GenerationSeries(
                generation=generation,
                start=months[0],
                shipments=values[:, 0],
                upgrades=values[:, 1],
                new_receipts=values[:, 2],
                gross_returns=values[:, 3],
            )
        )
    series.sort(key=lambda s: (s.start, s.generation.name))
    return series


def write_history(path: str | Path, series: list[GenerationSeries]) -> None:
    """Emit GenerationSeries back to the history CSV schema (round-trips)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for s in sorted(series, key=lambda s: (s.generation.name, s.start)):
            for i, month in enumerate(s.interval):
                writer.writerow(
                    [s.generation.name, str(month)]
                    + [_format_quantity(s.channel(c)[i]) for c in CHANNELS]
                )


def _format_quantity(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def load_ga_calendar(path: str | Path) -> GaCalendar:
    """Load the GA calendar; an empty file yields an empty calendar."""
    entries = []
    for lineno, row in _open_rows(path, GA_HEADER):
        if len(row) != len(GA_HEADER):
            raise ValidationError(f"{path} line {lineno}: expected {len(GA_HEADER)} fields, got {len(row)}")
        name, family, ordinal_text, ga_text = row
        if not name:
            raise ValidationError(f"{path} line {lineno}: empty generation_id")
        try:
            ordinal = int(ordinal_text)
        except ValueError:
            raise ValidationError(f"{path} line {lineno}: malformed ordinal {ordinal_text!r}") from None
        entries.append(
            GaEntry(
                generation=GenerationId(name, ordinal),
                family=family or "default",
                ga_month=MonthIndex.parse(ga_text),
            )
        )
    return GaCalendar(entries)


def write_ga_calendar(path: str | Path, calendar: GaCalendar) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GA_HEADER)
        for e in calendar.entries():
            writer.writerow([e.generation.name, e.family, e.generation.ordinal, str(e.ga_month)])
