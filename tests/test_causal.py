"""The causal cut: a cycle reads no history at or after its month, and a
store hands a cycle only a record from a strictly earlier month.

The cycles are the lifecycle sweeps of `test_golden.SWEEP` at seeds 0 and
1 (162 cycles each) and the README demo's first cycle. A cycle's output is
compared as its report text and record JSON, or as its refusal's type and
message.
"""
import dataclasses
import random

import numpy as np
import pytest

from returncast.config import AppConfig
from returncast.core import CHANNELS
from returncast.cycle_store import CycleStore
from returncast.encode import json_text
from returncast.errors import NumericError, ValidationError
from returncast.pipeline import run_cycle
from returncast.report import render_report
from returncast.synth import ScenarioSpec, generate

from helpers import lifecycle_cycles, month
from test_golden import SWEEP

SEEDS = [0, 1]


def _output(outcome) -> tuple[str, str]:
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return render_report(outcome), json_text(outcome.record)


def _noise_from(history, cycle_month, seed: int) -> list:
    """`history` with every channel value at or after `cycle_month`, in every
    generation, replaced by seeded non-negative noise; no series moves."""
    rng = np.random.default_rng([seed, cycle_month.value])
    noisy = []
    for series in history:
        cut = min(len(series), max(0, cycle_month - series.start))
        channels = {}
        for channel in CHANNELS:
            values = series.channel(channel).copy()
            values[cut:] = rng.uniform(0.0, 1000.0, len(values) - cut)
            channels[channel] = values
        noisy.append(dataclasses.replace(series, **channels))
    return noisy


@pytest.mark.parametrize("seed", SEEDS)
def test_no_cycle_reads_history_at_or_after_its_month(tmp_path, seed):
    """Every sweep cycle gives the same output when all history from its
    month on is noise. Each run keeps its own store, so a record written
    from noisy history is what the next noisy cycle reads.

    Only history is perturbed: the GA calendar is the launch plan, and a
    cycle reads it whole by design (a later generation's launch, even one
    still ahead, decides the returns trigger and the seasonal damping)."""
    history, calendar, _ = generate(dataclasses.replace(SWEEP, seed=seed))
    true = lifecycle_cycles(history, calendar, tmp_path / "true", AppConfig())
    noisy = lifecycle_cycles(
        history, calendar, tmp_path / "noisy", AppConfig(),
        history_at=lambda cycle_month: _noise_from(history, cycle_month, seed),
    )
    reports = 0
    for (name, cycle_month, outcome), (_, _, perturbed) in zip(true, noisy, strict=True):
        assert _output(perturbed) == _output(outcome), f"{name} at {cycle_month}"
        reports += not isinstance(outcome, Exception)
    assert reports > 0


def _gen2_months(history) -> list:
    (series,) = (s for s in history if s.generation.name == "gen2")
    return [series.start + j for j in range(1, len(series) + 1)]


def _run(history, calendar, months, store) -> list:
    outcomes = []
    for cycle_month in months:
        try:
            outcome = run_cycle(history, calendar, "gen2", cycle_month, store=store)
        except (ValidationError, NumericError) as exc:
            outcome = exc
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_a_store_rerun_in_any_order_gives_the_in_order_bytes(tmp_path, seed):
    """gen2's months run in order into a store, then again in a seeded
    shuffled order against that store, which by then holds the record of
    every reported month, later ones included: each cycle gives the bytes
    of its in-order run, because it reads only a strictly earlier record."""
    history, calendar, _ = generate(dataclasses.replace(SWEEP, seed=seed))
    months = _gen2_months(history)
    store = CycleStore(tmp_path / "cycles")
    outcomes = _run(history, calendar, months, store)
    shuffled = list(months)
    random.Random(seed).shuffle(shuffled)
    again = dict(zip(shuffled, _run(history, calendar, shuffled, store)))
    for cycle_month, outcome in zip(months, outcomes):
        assert _output(again[cycle_month]) == _output(outcome), str(cycle_month)
    # the store is read: some in-order report scored an earlier record
    assert any(getattr(outcome, "previous", None) is not None for outcome in outcomes)


def test_a_first_cycle_reports_the_same_with_an_empty_store_as_with_none(tmp_path):
    history, calendar, _ = generate(ScenarioSpec(generations=3, months_after_final_ga=8, seed=0))
    store = CycleStore(tmp_path / "cycles")
    with_store = run_cycle(history, calendar, "gen2", month("2012-09"), store=store)
    without = run_cycle(history, calendar, "gen2", month("2012-09"))
    assert _output(with_store) == _output(without)
