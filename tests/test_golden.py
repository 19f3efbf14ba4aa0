"""Golden bytes: CLI cycles must reproduce the committed output files.

Criterion 11 only compares two runs of the same code; these fixtures pin the
output itself, so a refactor that changes any written byte fails here. Pinned:
both cycles' report.csv; for the README demo also its cycle record, every
stage artifact and the stdout summary lines; and for a second cycle scored
against the first in one store (EWA on a real previous forecast), its record
and its ewa.json; every cycle of a lifecycle sweep, one line each, which
pins the order in which a cycle decides its refusals; and, in the same line
format, every in-process cycle of seed 0 of the benchmark's demo and
seasonal workloads, where CHAID, CART, TimeSeries, Linear, phase-wise and
the NN each win at least once; what each command of the README demo
prints before ` -> ` (its summary), or its exit code and error line when
it refuses; and the plan (`plan_cycle`) of every sweep and benchmark
cycle, one line each, which pins a refused plan's correlation table too.
Regenerate the fixtures
(only for a deliberate output change, noted in CHANGES.md) with:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import returncast.cli as cli
from returncast import pipeline
from returncast.config import AppConfig
from returncast.core import CHANNELS, MonthIndex
from returncast.cycle_store import CycleStore
from returncast.encode import json_text
from returncast.errors import NumericError, ValidationError
from returncast.pipeline import outlier_screen, plan_cycle, run_cycle
from returncast.report import render_report
from returncast.synth import ScenarioSpec, generate

from helpers import lifecycle_cycles, stage_documents

FIXTURES = Path(__file__).parent / "fixtures"

FLAGS_ON_INI = """\
[models]
include_phasewise = true
include_polynomial = true
ts_seasonal = true
"""

# name -> (synth flags, generation, cycle month, config text or None)
CYCLES = {
    # the README demo: default config, gen2 at 2012-09
    "demo": (["--generations", "3", "--months-after-final-ga", "8"], "gen2", "2012-09", None),
    # seasonal synth with every optional model on, gen2 at trigger (2012-01) + 12
    "seasonal_flags": (
        ["--generations", "4", "--seasonal-amplitude", "0.1", "--months-after-final-ga", "20"],
        "gen2",
        "2013-01",
        FLAGS_ON_INI,
    ),
}

STAGES = ("prepare", "analyze", "train", "forecast", "ewa", "adjust", "report")
# what the stage subcommands write, besides report.csv
STAGE_ARTIFACTS = (
    "prepared.csv", "outliers.json", "analysis.json", "leaderboard.json",
    "forecast.json", "ewa.json", "adjust.json",
)
DEMO_FILES = sorted(["record.json", "stdout.txt", *STAGE_ARTIFACTS])
TWO_CYCLE_FILES = ["ewa.json", "record.json"]
# every month of every generation, one store per generation: reports, and
# every refusal kind (missing GA, genealogy, all-zero test actuals, EWA)
SWEEP = ScenarioSpec(generations=3, months_after_final_ga=30, seed=0)


def _gen2_after_trigger(calendar) -> list[MonthIndex]:
    trigger = calendar.ga_of_next(calendar.resolve("gen2"))
    return [trigger + k for k in (6, 12, 18)]


# the benchmark's in-process workloads at seed 0, spelled out: name ->
# (scenario, draws, gen2's cycle months from the calendar, config); draw j
# is the scenario at seed j, its cycles run in order against one store
BENCHMARK_CYCLES = {
    "demo_cycle": (
        ScenarioSpec(generations=3, months_after_final_ga=8),
        32,
        lambda calendar: [MonthIndex.parse("2012-09")],
        AppConfig(),
    ),
    "seasonal_flags": (
        ScenarioSpec(seasonal_amplitude=0.1, months_after_final_ga=20),
        16,
        _gen2_after_trigger,
        AppConfig(
            models=dataclasses.replace(
                AppConfig().models,
                include_phasewise=True,
                include_polynomial=True,
                ts_seasonal=True,
            )
        ),
    ),
}


def _synth(work: Path, synth_flags: list[str]) -> Path:
    data = work / "data"
    assert cli.main(["synth", "--seed", "0", *synth_flags, "--out", str(data)]) == 0
    return data


def _cycle_args(data: Path, generation: str, cycle: str, out: Path, extra=()) -> list[str]:
    return [
        "--history", str(data / "history.csv"),
        "--ga", str(data / "ga.csv"),
        "--generation", generation,
        "--cycle", cycle,
        "--out", str(out),
        *extra,
    ]


def run_report(name: str, work: Path) -> bytes:
    synth_flags, generation, cycle, config_text = CYCLES[name]
    data = _synth(work, synth_flags)
    extra = []
    if config_text is not None:
        ini = work / "config.ini"
        ini.write_text(config_text)
        extra = ["--config", str(ini)]
    out = work / "run"
    assert cli.main(["run-cycle", *_cycle_args(data, generation, cycle, out, extra)]) == 0
    return (out / "report.csv").read_bytes()


def run_demo_files(work: Path) -> dict[str, bytes]:
    """The demo's record, every stage artifact and the stdout of each command."""
    synth_flags, generation, cycle, _ = CYCLES["demo"]
    data = _synth(work, synth_flags)
    out = work / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["run-cycle", *_cycle_args(data, generation, cycle, out)]) == 0
        for command in STAGES:
            stages = _cycle_args(data, generation, cycle, work / "stages")
            assert cli.main([command, *stages]) == 0
    files = {name: (work / "stages" / name).read_bytes() for name in STAGE_ARTIFACTS}
    files["record.json"] = (out / "cycles" / generation / f"{cycle}.json").read_bytes()
    files["stdout.txt"] = stdout.getvalue().replace(str(work), "WORK").encode()
    return files


# the README demo's commands in its order: both cycles into one store,
# `analyze` at the second cycle, then every stage that prints a summary, at
# the first cycle, reading that store
README_DEMO = (
    ("run-cycle", "2012-09"),
    ("run-cycle", "2012-12"),
    ("analyze", "2012-12"),
    *(
        (stage, "2012-09")
        for stage in ("prepare", "analyze", "train", "forecast", "ewa", "adjust")
    ),
)


def run_readme_demo_summaries(work: Path) -> str:
    """One line per README demo command: its cycle month, then its stdout
    up to ` -> `, or its exit code and its error line."""
    synth_flags, generation, _, _ = CYCLES["demo"]
    data = _synth(work, synth_flags)
    store = work / "run1"
    lines = []
    for command, cycle in README_DEMO:
        if command == "run-cycle":
            args = _cycle_args(data, generation, cycle, store)
        else:
            extra = ["--store", str(store / "cycles")]
            args = _cycle_args(data, generation, cycle, work / "stages", extra)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *args])
        if code == 0:
            summary = stdout.getvalue().split(" -> ")[0]
        else:
            error = [line for line in stderr.getvalue().splitlines() if line.startswith(command)]
            summary = f"exit {code} {error[-1]}"
        lines.append(f"{cycle} {summary}\n")
    return "".join(lines)


def run_two_cycle_files(work: Path) -> dict[str, bytes]:
    """gen2 at 2012-09 then 2012-12 in one store: the second cycle scores EWA."""
    data = _synth(work, ["--generations", "3", "--months-after-final-ga", "20"])
    out = work / "run"
    for cycle in ("2012-09", "2012-12"):
        assert cli.main(["run-cycle", *_cycle_args(data, "gen2", cycle, out)]) == 0
    stages = _cycle_args(data, "gen2", "2012-12", work / "stages", ["--store", str(out / "cycles")])
    assert cli.main(["ewa", *stages]) == 0
    return {
        "ewa.json": (work / "stages" / "ewa.json").read_bytes(),
        "record.json": (out / "cycles" / "gen2" / "2012-12.json").read_bytes(),
    }


def _outcome_line(generation: str, month, outcome) -> str:
    """Generation, month, then either the refusal's exception type and
    message, or the kind that forecast, the leaderboard's kinds in rank
    order and the SHA-256 of the rendered report followed by
    `json_text(stage_documents(outcome))`. The kinds come first so that a diff of
    regenerated lines shows whether a ranking moved or only digits did."""
    if isinstance(outcome, Exception):
        result = f"{type(outcome).__name__}: {outcome}"
    else:
        blob = render_report(outcome) + json_text(stage_documents(outcome))
        order = ",".join(str(row.spec.kind) for row in outcome.leaderboard)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        result = f"report {outcome.forecast_raw.model.kind} {order} {digest}"
    return f"{generation} {month} {result}\n"


def run_sweep(work: Path) -> str:
    """One line per cycle of the lifecycle sweep."""
    history, calendar, _ = generate(SWEEP)
    cycles = lifecycle_cycles(history, calendar, work, AppConfig())
    return "".join(_outcome_line(*cycle) for cycle in cycles)


def run_benchmark_cycles(work: Path) -> str:
    """One line per benchmark cycle, after its workload name and draw."""
    lines = []
    for name, (spec, draws, months, config) in BENCHMARK_CYCLES.items():
        for j in range(draws):
            history, calendar, _ = generate(dataclasses.replace(spec, seed=j))
            store = CycleStore(work / name / f"r{j}" / "gen2")
            for month in months(calendar):
                try:
                    outcome = run_cycle(history, calendar, "gen2", month, store, config)
                except (ValidationError, NumericError) as exc:
                    outcome = exc
                lines.append(f"{name} {j} " + _outcome_line("gen2", month, outcome))
    return "".join(lines)


def _plan_digest(plan) -> str:
    """SHA-256 over the plan's artifacts (analysis, outlier screen, zoo
    specs), both prepared histories, every matrix's start, names, X and y
    bytes, and the current generation's actuals."""
    blob = hashlib.sha256(
        json_text(
            {
                "analysis": plan.analysis,
                "outliers": outlier_screen(plan.prepared),
                "zoo": plan.zoo,
            }
        ).encode()
    )
    for series in (plan.prepared.donor, plan.prepared.current):
        blob.update(f"{series.generation} {series.start}".encode())
        for channel in CHANNELS:
            blob.update(series.channel(channel).tobytes())
    for matrix in (plan.matrix, plan.train, plan.test, plan.horizon_matrix):
        blob.update(f"{matrix.start} {matrix.n_rows} {matrix.predictor_names}".encode())
        blob.update(matrix.X.tobytes())
        if matrix.target is not None:
            blob.update(f"{matrix.target.name}".encode() + matrix.y.tobytes())
    blob.update(f"{plan.actuals.start}".encode() + plan.actuals.values.tobytes())
    return blob.hexdigest()


def _plan_cycles():
    """(label, history, calendar, generation, month, config) for every
    cycle of the sweep, then every benchmark cycle, in run order."""
    history, calendar, _ = generate(SWEEP)
    for series in sorted(history, key=lambda s: s.generation.ordinal):
        for j in range(1, len(series) + 1):
            yield "sweep", history, calendar, series.generation.name, series.start + j, AppConfig()
    for name, (spec, draws, months, config) in BENCHMARK_CYCLES.items():
        for j in range(draws):
            history, calendar, _ = generate(dataclasses.replace(spec, seed=j))
            for month in months(calendar):
                yield f"{name} {j}", history, calendar, "gen2", month, config


def run_plan_cycles() -> str:
    """One line per planned cycle: its label, generation and month, then
    `plan` and the plan's digest, or the refusal's type and message. A plan
    refused after its correlation table was built names the table's digest
    before the refusal."""
    tables = []
    build_table = pipeline.build_correlation_table

    def recording(*args, **kwargs):
        tables.append(build_table(*args, **kwargs))
        return tables[-1]

    lines = []
    pipeline.build_correlation_table = recording
    try:
        for label, history, calendar, generation, month, config in _plan_cycles():
            tables.clear()
            try:
                result = f"plan {_plan_digest(plan_cycle(history, calendar, generation, month, config))}"
            except (ValidationError, NumericError) as exc:
                result = f"{type(exc).__name__}: {exc}"
                if tables:
                    table = hashlib.sha256(json_text(tables[-1]).encode()).hexdigest()
                    result = f"table {table} {result}"
            lines.append(f"{label} {generation} {month} {result}\n")
    finally:
        pipeline.build_correlation_table = build_table
    return "".join(lines)


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    return run_demo_files(tmp_path_factory.mktemp("demo"))


@pytest.fixture(scope="module")
def two_cycle_files(tmp_path_factory):
    return run_two_cycle_files(tmp_path_factory.mktemp("two_cycles"))


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_report_matches_golden_bytes(name, tmp_path):
    expected = (FIXTURES / f"{name}_report.csv").read_bytes()
    assert run_report(name, tmp_path) == expected


@pytest.mark.parametrize("name", DEMO_FILES)
def test_demo_file_matches_golden_bytes(name, demo_files):
    assert demo_files[name] == (FIXTURES / "demo" / name).read_bytes()


@pytest.mark.parametrize("name", TWO_CYCLE_FILES)
def test_two_cycle_file_matches_golden_bytes(name, two_cycle_files):
    assert two_cycle_files[name] == (FIXTURES / "two_cycles" / name).read_bytes()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_written_json_is_strict(demo_files, two_cycle_files):
    """No NaN or Infinity reaches a file: strict parsers read every one."""
    written = [*demo_files.items(), *two_cycle_files.items()]
    for name, blob in written:
        if name.endswith(".json"):
            json.loads(blob, parse_constant=_refuse_constant)


def test_readme_demo_summaries_match_golden_lines(tmp_path):
    expected = (FIXTURES / "readme_demo_summaries.txt").read_text().splitlines()
    assert run_readme_demo_summaries(tmp_path).splitlines() == expected


def test_sweep_outcomes_match_golden_lines(tmp_path):
    expected = (FIXTURES / "sweep.txt").read_text().splitlines()
    assert run_sweep(tmp_path).splitlines() == expected


def test_benchmark_cycle_outcomes_match_golden_lines(tmp_path):
    expected = (FIXTURES / "benchmark_cycles.txt").read_text().splitlines()
    assert run_benchmark_cycles(tmp_path).splitlines() == expected


def test_plan_of_every_sweep_and_benchmark_cycle_matches_golden_lines():
    expected = (FIXTURES / "plan_cycles.txt").read_text().splitlines()
    assert run_plan_cycles().splitlines() == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CYCLES):
            path = FIXTURES / f"{name}_report.csv"
            path.write_bytes(run_report(name, Path(work) / name))
            print(f"wrote {path}", file=sys.stderr)
        for folder, run in (("demo", run_demo_files), ("two_cycles", run_two_cycle_files)):
            (FIXTURES / folder).mkdir(parents=True, exist_ok=True)
            for name, blob in run(Path(work) / folder).items():
                (FIXTURES / folder / name).write_bytes(blob)
                print(f"wrote {FIXTURES / folder / name}", file=sys.stderr)
        for name, run in (
            ("readme_demo_summaries", run_readme_demo_summaries),
            ("sweep", run_sweep),
            ("benchmark_cycles", run_benchmark_cycles),
            ("plan_cycles", lambda work: run_plan_cycles()),
        ):
            (FIXTURES / f"{name}.txt").write_text(run(Path(work) / name))
            print(f"wrote {FIXTURES / name}.txt", file=sys.stderr)
