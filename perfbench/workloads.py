"""The four benchmark workloads: which scenario, which cycles, which config.

Each workload draws `draws` scenarios from the benchmark seed (scenario
seed = seed * draws + j), so that a run's medians do not hinge on one
noise draw: the README demo's cycle costs 70-190 ms depending on which model
wins the draw. Why each workload exists is recorded in BENCHMARK.json and in
README.md beside this file.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from returncast.config import AppConfig
from returncast.core import GaCalendar, GenerationSeries, MonthIndex
from returncast.synth import ScenarioSpec


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ScenarioSpec
    draws: int
    # (generation name, cycle month) in run order, from the loaded inputs
    cycles: Callable[[list[GenerationSeries], GaCalendar], list[tuple[str, MonthIndex]]]
    config: AppConfig = AppConfig()
    via_cli: bool = False

    def scenario(self, seed: int, j: int) -> ScenarioSpec:
        return dataclasses.replace(self.spec, seed=seed * self.draws + j)


def _demo_cycle(history, calendar):
    return [("gen2", MonthIndex.parse("2012-09"))]


def _every_month(history, calendar):
    """Every cycle month of every generation, oldest first within each."""
    return [
        (s.generation.name, s.start + j)
        for s in sorted(history, key=lambda s: s.generation.ordinal)
        for j in range(1, len(s) + 1)
    ]


def _gen2_after_trigger(history, calendar):
    trigger = calendar.ga_of_next(calendar.resolve("gen2"))
    return [("gen2", trigger + k) for k in (6, 12, 18)]


_FLAGS_ON = AppConfig(
    models=dataclasses.replace(
        AppConfig().models, include_phasewise=True, include_polynomial=True, ts_seasonal=True
    )
)

_DEMO = ScenarioSpec(generations=3, months_after_final_ga=8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_cycle", _DEMO, 32, _demo_cycle),
        Workload("cli_cold", _DEMO, 4, _demo_cycle, via_cli=True),
        # three generations keep every refusal kind (genealogy, MissingGa,
        # zoo, EWA, zero actuals) in a ~5 s sweep, so a run repeats it
        Workload(
            "lifecycle_sweep",
            ScenarioSpec(generations=3, months_after_final_ga=30),
            1,
            _every_month,
        ),
        Workload(
            "seasonal_flags",
            ScenarioSpec(seasonal_amplitude=0.1, months_after_final_ga=20),
            16,
            _gen2_after_trigger,
            config=_FLAGS_ON,
        ),
    )
}
