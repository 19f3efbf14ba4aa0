"""Metamorphic guards: invariances the method promises, checked on whole cycles.

A known change to the input must give a known change to the output:

- Every volume channel of every generation multiplied by c = 4 or 1/4. A
  power of two is exact in binary floating point, so each raw forecast,
  adjusted forecast and band must be exactly c times the original, and
  every scale-free number must not move: the refusals, the leaderboard's
  kinds, order, MAPEs and correlations, the donor's volume normalization
  factor, and EWA's percentage deviations, scores, alerts and
  recommendation (its deviations and projection are volumes, c times).
- The GA calendar and the cycle months moved 12 months later: the same
  numbers, with only the month labels moved.

These catch what a golden fixture cannot: an absolute constant that makes
the method depend on volume (a `+ 1.0` in a ratio of sums, an `eps` added
to a denominator), a month-anchoring slip, or a normalization that is no
longer a pure rescale.

The cycles are the seed-0 lifecycle sweep (162 cycles, 5 of its 7 reports
scored by EWA against a stored record) and a part of the benchmark's
in-process cycles: the first 6 `seasonal_flags` draws (phase-wise,
polynomial and seasonal smoothing on; three cycles a store) and the last 16
`demo_cycle` draws, which hold every inexact case named below.
"""
import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from returncast.config import AppConfig
from returncast.core import CHANNELS, GaCalendar
from returncast.cycle_store import CycleStore
from returncast.encode import to_json
from returncast.errors import NumericError, ValidationError
from returncast.models import ModelKind
from returncast.pipeline import run_cycle
from returncast.synth import generate

from helpers import lifecycle_cycles, month
from test_golden import BENCHMARK_CYCLES, SWEEP

DRAWS = {"seasonal_flags": range(6), "demo_cycle": range(16, 32)}
YEAR = 12


def _outcomes(transform, months_later: int = 0) -> list:
    """The outcome, or the refusal, of every cycle, on inputs passed through
    `transform(history, calendar)` and with each cycle `months_later`."""
    outcomes = []
    with tempfile.TemporaryDirectory() as work:
        history, calendar = transform(*generate(SWEEP)[:2])
        cycles = lifecycle_cycles(history, calendar, Path(work) / "sweep", AppConfig())
        outcomes += [outcome for _, _, outcome in cycles]
        for name, draws in DRAWS.items():
            spec, _, months, config = BENCHMARK_CYCLES[name]
            for j in draws:
                history, calendar, _ = generate(dataclasses.replace(spec, seed=j))
                cycle_months = [m + months_later for m in months(calendar)]
                history, calendar = transform(history, calendar)
                store = CycleStore(Path(work) / name / str(j))
                for cycle_month in cycle_months:
                    try:
                        outcome = run_cycle(history, calendar, "gen2", cycle_month, store, config)
                    except (ValidationError, NumericError) as exc:
                        outcome = exc
                    outcomes.append(outcome)
    return outcomes


def _scaled(c: float):
    def transform(history, calendar):
        scaled = [dataclasses.replace(s, **{ch: s.channel(ch) * c for ch in CHANNELS})
                  for s in history]
        return scaled, calendar
    return transform


def _a_year_later(history, calendar):
    history = [dataclasses.replace(s, start=s.start + YEAR) for s in history]
    calendar = GaCalendar(dataclasses.replace(e, ga_month=e.ga_month + YEAR)
                          for e in calendar.entries())
    return history, calendar


_MONTH = re.compile(r"\b\d{4}-\d{2}\b")


def _earlier(text: str, months: int) -> str:
    """`text` with every YYYY-MM in it moved `months` earlier."""
    return _MONTH.sub(lambda m: str(month(m.group()) - months), text)


def _ewa_parts(report) -> tuple[str, np.ndarray]:
    """EWA's report as its scale-free part (JSON text) and its volumes: the
    projection and each step's deviations."""
    doc = to_json(report)
    volumes = [doc.pop("projection")]
    for step in ("step1", "step2"):
        if doc[step] is not None:
            volumes += doc[step].pop("deviations")
    return repr(doc), np.array(volumes, dtype=float)  # null, as NaN


def _assert_transformed(base, other, c: float, months: int) -> None:
    """`other` is `base` with volumes c times and months `months` later."""
    if isinstance(base, Exception) or isinstance(other, Exception):
        assert type(other) is type(base)
        assert _earlier(str(other), months) == str(base)
        return
    assert [row.spec.kind for row in other.leaderboard] == [
        row.spec.kind for row in base.leaderboard
    ]
    for got, want in zip(other.leaderboard, base.leaderboard):
        got_numbers = [got.mape_best_fit, got.mape_lci, got.mape_uci, got.correlation]
        want_numbers = [want.mape_best_fit, want.mape_lci, want.mape_uci, want.correlation]
        if c != 1 and got.spec.kind is ModelKind.LINEAR:
            # Linear solves its normal equations with an intercept column of
            # ones that c does not scale, so LAPACK rounds its scaled solve
            # differently: its test predictions, and so its MAPEs and
            # correlation, agree to a few ulps (4e-15 relative at most over
            # the 80 benchmark cycles and the sweep), not bit for bit. Its
            # forecasts below are still exact.
            assert np.allclose(got_numbers, want_numbers, rtol=1e-13, atol=0, equal_nan=True)
        else:
            assert np.array_equal(got_numbers, want_numbers, equal_nan=True)
    assert other.plan.prepared.normalization == base.plan.prepared.normalization
    for got, want in ((other.forecast_raw, base.forecast_raw), (other.forecast, base.forecast)):
        assert got.start == want.start + months
        for band in ("best_fit", "lci", "uci"):
            assert np.array_equal(getattr(got, band), c * getattr(want, band))
    got_free, got_volumes = _ewa_parts(other.ewa)
    want_free, want_volumes = _ewa_parts(base.ewa)
    assert _earlier(got_free, months) == want_free
    assert np.array_equal(got_volumes, c * want_volumes, equal_nan=True)


@pytest.fixture(scope="module")
def base_outcomes():
    return _outcomes(lambda history, calendar: (history, calendar))


@pytest.mark.parametrize("c", [4.0, 0.25], ids=["x4", "x1/4"])
def test_volume_by_a_power_of_two_scales_every_cycle_exactly(base_outcomes, c):
    scaled = _outcomes(_scaled(c))
    assert len(scaled) == len(base_outcomes)
    for got, want in zip(scaled, base_outcomes):
        _assert_transformed(want, got, c, 0)


def test_a_year_later_every_cycle_gives_the_same_numbers(base_outcomes):
    later = _outcomes(_a_year_later, months_later=YEAR)
    assert len(later) == len(base_outcomes)
    for got, want in zip(later, base_outcomes):
        _assert_transformed(want, got, 1.0, YEAR)
