"""Command-line interface: subcommands, artifacts, exit codes."""
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import returncast
import returncast.cli as cli
from returncast import pipeline, report
from returncast.core import MonthIndex
from returncast.cycle_store import CycleStore
from returncast.errors import NumericError, ValidationError
from returncast.ingest import load_ga_calendar, load_history
from returncast.models import base
from returncast.synth import ScenarioSpec, generate


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = cli.main(
        ["synth", "--generations", "3", "--seed", "0",
         "--months-after-final-ga", "8", "--out", str(d)]
    )
    assert code == 0
    return d


def _cycle_args(data_dir, out, extra=()):
    return [
        "--history", str(data_dir / "history.csv"),
        "--ga", str(data_dir / "ga.csv"),
        "--generation", "gen2",
        "--cycle", "2012-09",
        "--out", str(out),
        *extra,
    ]


def test_synth_writes_both_csvs(data_dir):
    assert (data_dir / "history.csv").exists()
    assert (data_dir / "ga.csv").exists()
    header = (data_dir / "history.csv").read_text().splitlines()[0]
    assert header == "generation_id,month,shipments,upgrades,new_receipts,gross_returns"


@pytest.mark.parametrize(
    "flag, value",
    [("--noise-sd", "nan"), ("--seasonal-amplitude", "nan"), ("--seed", "-1")],
    ids=["--noise-sd", "--seasonal-amplitude", "--seed"],
)
def test_synth_refuses_a_non_finite_shape(tmp_path, capsys, flag, value):
    """A shape value or seed the generator cannot use exits 1 naming it."""
    out = tmp_path / "synth"
    assert cli.main(["synth", flag, value, "--out", str(out)]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (out / "history.csv").exists()


def test_run_cycle_writes_report_and_record(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "cycles" / "gen2" / "2012-09.json").exists()
    stdout = capsys.readouterr().out
    assert "gen2 2012-09" in stdout
    assert "winner" in stdout


def test_stage_commands_write_their_artifacts(data_dir, tmp_path):
    expected = {
        "ingest": "history.csv",
        "prepare": "prepared.csv",
        "analyze": "analysis.json",
        "train": "leaderboard.json",
        "forecast": "forecast.json",
        "ewa": "ewa.json",
        "adjust": "adjust.json",
        "report": "report.csv",
    }
    for command, artifact in expected.items():
        out = tmp_path / command
        args = (
            ["ingest", "--history", str(data_dir / "history.csv"),
             "--ga", str(data_dir / "ga.csv"), "--out", str(out)]
            if command == "ingest"
            else [command, *_cycle_args(data_dir, out)]
        )
        assert cli.main(args) == 0, command
        assert (out / artifact).exists(), command

    leaderboard = json.loads((tmp_path / "train" / "leaderboard.json").read_text())
    assert len(leaderboard["rows"]) == 5
    mapes = [r["mape_best_fit"] for r in leaderboard["rows"]]
    assert mapes == sorted(mapes)


def test_analyze_summary_counts_the_strong_rows(data_dir, tmp_path, capsys):
    """At cuts the demo's five predictors straddle, the summary's strong and
    selected counts are those of analysis.json."""
    ini = tmp_path / "cuts.ini"
    ini.write_text("[analysis]\nmedium_at = 0.5\nstrong_at = 0.8\n")
    out = tmp_path / "analyze"
    assert cli.main(["analyze", *_cycle_args(data_dir, out, ["--config", str(ini)])]) == 0
    analysis = json.loads((out / "analysis.json").read_text())
    strengths = [row["strength"] for row in analysis["correlations"]]
    assert strengths.count("Strong") == 2 and len(strengths) == 5
    assert len(analysis["selected_predictors"]) == 2
    assert "5 predictors (2 strong, 2 selected)" in capsys.readouterr().out


def test_stage_commands_do_not_persist_cycles(data_dir, tmp_path):
    out = tmp_path / "probe"
    assert cli.main(["forecast", *_cycle_args(data_dir, out)]) == 0
    assert not (out / "cycles" / "gen2" / "2012-09.json").exists()


def test_stage_commands_leave_the_store_untouched(data_dir, tmp_path):
    out = tmp_path / "stored"
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out)]) == 0
    store = out / "cycles"

    def snapshot():
        return {
            str(p.relative_to(store)): (p.is_file() and p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(store.rglob("*"))
        }

    before = snapshot()
    assert "gen2/2012-09.json" in before
    for command in ["prepare", *cli._STAGES]:
        if command != "run-cycle":
            assert cli.main([command, *_cycle_args(data_dir, out)]) == 0, command
    assert snapshot() == before


# perfbench's tracer (perfbench/spans.py) times each layer by wrapping these
# module attributes; a cycle that no longer calls one through its module
# would leave that layer's benchmark figures reading 0
TRACED_LAYERS = (
    "cycle", "prep", "prep.coverage_greedy", "analysis.correlation", "models.evaluate_zoo",
    "forecast.winner", "adjust", "report.render",
)
# the layers of a cycle that `plan_cycle` refuses after planning, as the
# seed-0 sweep's all-zero test splits (README refusal row 6) are
PLANNING_LAYERS = (
    "cycle", "prep", "analysis.genealogy_match", "prep.coverage_greedy", "analysis.correlation",
)


def test_benchmark_tracer_sees_every_layer_of_the_demo_cycle(
    data_dir, tmp_path, monkeypatch
):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    calendar = load_ga_calendar(data_dir / "ga.csv")
    history = load_history(data_dir / "history.csv", calendar)
    sweep_history, sweep_calendar, _ = generate(
        ScenarioSpec(generations=3, months_after_final_ga=30, seed=0)
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.cycle = 1
        outcome = pipeline.run_cycle(
            history, calendar, "gen2", MonthIndex.parse("2012-09"),
            store=CycleStore(tmp_path / "in_process"),
        )
        report.render_report(outcome)
        tracer.cycle = 2
        assert cli.main(["run-cycle", *_cycle_args(data_dir, tmp_path / "cli")]) == 0
        tracer.cycle = 3
        with pytest.raises(ValidationError, match="no model in the zoo"):
            pipeline.run_cycle(
                sweep_history, sweep_calendar, "gen2", MonthIndex.parse("2013-10"),
                store=CycleStore(tmp_path / "sweep"),
            )
    finally:
        tracer.uninstall()
    for cycle, how, layers in (
        (1, "in process", TRACED_LAYERS),
        (2, "run-cycle", TRACED_LAYERS),
        (3, "plan-only refusal", PLANNING_LAYERS),
    ):
        fired = {name for c, _, name, *_ in tracer.spans if c == cycle}
        missing = [name for name in layers if name not in fired]
        assert not missing, f"{how}: no span for {missing}"
    refused = {name: raised for c, _, name, _, _, raised in tracer.spans if c == 3}
    assert refused["cycle"] and "models.evaluate_zoo" not in refused


def test_inspection_stage_creates_no_store(data_dir, tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert cli.main(["analyze", *_cycle_args(data_dir, out)]) == 0
    assert not (out / "cycles").exists()
    assert [p.name for p in out.iterdir()] == ["analysis.json"]


def _at_2012_12(data_dir, out, extra=()):
    args = _cycle_args(data_dir, out, extra)
    args[args.index("2012-09")] = "2012-12"
    return args


def test_stages_before_ewa_report_against_a_store_ewa_refuses(data_dir, tmp_path, capsys):
    """The README demo: after `run-cycle` at 2012-09, EWA cannot yet score
    the stored forecast at 2012-12. The stages whose artifact comes before
    EWA write what they write against an empty store; the others refuse."""
    assert cli.main(["run-cycle", *_cycle_args(data_dir, tmp_path / "run1")]) == 0
    stored = ["--store", str(tmp_path / "run1" / "cycles")]
    for command in ("analyze", "train", "forecast"):
        artifact = cli._STAGES[command][1]
        assert cli.main([command, *_at_2012_12(data_dir, tmp_path / "stored", stored)]) == 0
        assert cli.main([command, *_at_2012_12(data_dir, tmp_path / "empty")]) == 0
        written = (tmp_path / "stored" / artifact).read_bytes()
        assert written == (tmp_path / "empty" / artifact).read_bytes(), command
    capsys.readouterr()
    for command in ("ewa", "adjust", "report"):
        assert cli.main([command, *_at_2012_12(data_dir, tmp_path / "refused", stored)]) == 1
        assert capsys.readouterr().err.startswith(
            f"{command}: EWA needs 3 months of actuals overlapping the previous forecast"
        )


def test_stages_before_ewa_read_no_record_and_analyze_fits_no_model(
    data_dir, tmp_path, monkeypatch, capsys
):
    assert cli.main(["run-cycle", *_cycle_args(data_dir, tmp_path / "run1")]) == 0
    fits = []
    for kind, fitter in list(base._FITTERS.items()):
        def counted(spec, train, fitter=fitter):
            fits.append(spec.kind)
            return fitter(spec, train)

        monkeypatch.setitem(base._FITTERS, kind, counted)

    def unreadable(*args, **kwargs):
        raise ValidationError("the store was read")

    for attr in ("load_cycle", "load_previous_cycle", "list_cycle_months"):
        monkeypatch.setattr(CycleStore, attr, unreadable)
    stored = ["--store", str(tmp_path / "run1" / "cycles")]
    assert cli.main(["analyze", *_at_2012_12(data_dir, tmp_path / "out", stored)]) == 0
    assert fits == []
    for command in ("train", "forecast"):
        assert cli.main([command, *_at_2012_12(data_dir, tmp_path / "out", stored)]) == 0
    assert fits  # the counters see the zoo's fits
    capsys.readouterr()
    # the stages after them do read it
    assert cli.main(["ewa", *_at_2012_12(data_dir, tmp_path / "out", stored)]) == 1
    assert capsys.readouterr().err == "ewa: the store was read\n"


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this checkout's package."""
    src = str(Path(returncast.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy would be most of the cold start
    code = (
        "import sys, returncast.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demo_cycle_runs_without_scipy(data_dir, tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    out = tmp_path / "run"
    args = ["run-cycle", *_cycle_args(data_dir, out)]
    code = (
        "import sys; sys.modules['scipy'] = None; "
        f"from returncast.cli import main; sys.exit(main({args!r}))"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).parent / "fixtures" / "demo_report.csv"
    assert (out / "report.csv").read_bytes() == golden.read_bytes()


def test_chaid_fit_and_demo_cycle_leave_numpy_ma_unloaded(data_dir, tmp_path):
    # np.unique reaches for np.ma, whose import adds 15-25 ms to a cold run-cycle
    out = tmp_path / "run"
    args = ["run-cycle", *_cycle_args(data_dir, out)]
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from returncast.cli import main\n"
        "from returncast.core import FeatureMatrix, FeatureSeries, MonthIndex\n"
        "from returncast.models import ModelKind, ModelSpec, fit\n"
        "rng = np.random.default_rng(0)\n"
        "start = MonthIndex.parse('2010-01')\n"
        "xs = tuple(FeatureSeries(f'x{j}', start, rng.normal(size=40)) for j in range(3))\n"
        "y = FeatureSeries('gross_returns', start, rng.normal(size=40))\n"
        "fit(ModelSpec(ModelKind.CHAID), FeatureMatrix(start, y, xs))\n"
        "print('numpy.ma' in sys.modules)\n"
        f"code = main({args!r})\n"
        "print('numpy.ma' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # run-cycle prints its own lines between
    assert (lines[0], lines[-1]) == ("False", "False")


def test_reruns_are_byte_identical(data_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out_a)]) == 0
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_planner_band_choice_is_recorded(data_dir, tmp_path):
    out = tmp_path / "uci"
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out, ["--select", "uci"])]) == 0
    record = json.loads((out / "cycles" / "gen2" / "2012-09.json").read_text())
    assert record["planner_selected"] == "UCI"
    assert record["selected_series"] == record["forecast"]["uci"]


def test_missing_input_exits_2(data_dir, tmp_path, capsys):
    args = [
        "run-cycle",
        "--history", str(tmp_path / "nope.csv"),
        "--ga", str(data_dir / "ga.csv"),
        "--generation", "gen2",
        "--cycle", "2012-09",
        "--out", str(tmp_path),
    ]
    assert cli.main(args) == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, unreadable, code",
    [("--history", "directory", 2), ("--ga", "directory", 2), ("--config", "directory", 2),
     ("--history", "not_utf8", 1), ("--ga", "not_utf8", 1), ("--config", "not_utf8", 1)],
)
def test_unreadable_input_exits_with_its_code(data_dir, tmp_path, capsys, flag, unreadable, code):
    # a path that is not a regular file is a missing input; undecodable text
    # is a validation error; either way the message names the path
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"generation_id\xff\n")
    args = ["run-cycle", *_cycle_args(data_dir, tmp_path / "out")]
    if flag in args:
        args[args.index(flag) + 1] = str(path)
    else:
        args += [flag, str(path)]
    assert cli.main(args) == code
    assert str(path) in capsys.readouterr().err


def test_validation_failure_exits_1(data_dir, tmp_path, capsys):
    # the latest generation has no successor launch, so it cannot be forecast
    args = ["run-cycle", *_cycle_args(data_dir, tmp_path / "v")]
    args[args.index("gen2")] = "gen3"
    assert cli.main(args) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, nested",
    [(command, "--out", False) for command in ["ingest", "synth", "prepare", *cli._STAGES]]
    + [("run-cycle", "--out", True)]
    + [("run-cycle", "--store", nested) for nested in (False, True)],
)
def test_unusable_output_path_exits_1_before_any_work(
    data_dir, tmp_path, monkeypatch, capsys, command, flag, nested
):
    # an existing regular file, or a path below one, cannot be a directory
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    path = blocker / "sub" if nested else blocker

    def no_zoo(*args, **kwargs):
        raise AssertionError("evaluate_zoo called although the output path is unusable")

    monkeypatch.setattr(pipeline, "evaluate_zoo", no_zoo)
    inputs = ["--history", str(data_dir / "history.csv"), "--ga", str(data_dir / "ga.csv")]
    if command == "synth":
        args = ["synth", "--out", str(path)]
    elif command == "ingest":
        args = ["ingest", *inputs, "--out", str(path)]
    elif flag == "--out":
        args = [command, *_cycle_args(data_dir, path)]
    else:
        args = [command, *_cycle_args(data_dir, tmp_path / "out"), flag, str(path)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def _rerun_after_damage(data_dir, out, damage) -> int:
    """Run the demo cycle, move its record a month back through `damage`
    (record text in, text out), then rerun the cycle, which scores it."""
    assert cli.main(["run-cycle", *_cycle_args(data_dir, out)]) == 0
    folder = out / "cycles" / "gen2"
    (folder / "2012-08.json").write_text(damage((folder / "2012-09.json").read_text()))
    (folder / "2012-09.json").unlink()
    return cli.main(["run-cycle", *_cycle_args(data_dir, out)])


@pytest.mark.parametrize(
    "field, damage",
    [("ewa", lambda doc: doc.update(ewa=["not", "an", "object"])),
     ("selected_series", lambda doc: doc.update(selected_series=doc["selected_series"][:-2]))],
)
def test_damaged_previous_record_exits_1(data_dir, tmp_path, capsys, field, damage):
    def edit(text):
        doc = json.loads(text)
        damage(doc)
        return json.dumps(doc)

    assert _rerun_after_damage(data_dir, tmp_path / "damaged", edit) == 1
    assert f"record field '{field}'" in capsys.readouterr().err


def _drop_forecast(text):
    doc = json.loads(text)
    del doc["forecast"]
    return json.dumps(doc)


def _mistype_generation(text):
    doc = json.loads(text)
    doc["generation"] = "gen2"
    return json.dumps(doc)


def _schema_2(text):
    doc = json.loads(text)
    doc["schema"] = 2
    return json.dumps(doc)


@pytest.mark.parametrize(
    "damage, message",
    [(lambda text: text[: len(text) // 2], "2012-08.json is not valid JSON"),
     (_drop_forecast, "2012-08.json has no field 'forecast'"),
     (_mistype_generation, "2012-08.json is damaged: "),
     (_schema_2, "2012-08.json has schema 2")],
    ids=["truncated", "no_forecast", "wrong_type", "schema_2"],
)
def test_unreadable_previous_record_exits_1(data_dir, tmp_path, capsys, damage, message):
    assert _rerun_after_damage(data_dir, tmp_path / "unreadable", damage) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_record_written_before_versions_is_scored(tmp_path):
    data = tmp_path / "data"
    synth = ["synth", "--generations", "3", "--seed", "0", "--months-after-final-ga", "20"]
    assert cli.main([*synth, "--out", str(data)]) == 0
    out = tmp_path / "out"
    assert cli.main(["run-cycle", *_cycle_args(data, out)]) == 0
    first = out / "cycles" / "gen2" / "2012-09.json"
    doc = json.loads(first.read_text())
    del doc["schema"]
    doc["forecast"]["test_correlation"] = math.nan
    first.write_text(json.dumps(doc))  # as records were written: no schema, a bare NaN
    later = _cycle_args(data, out)
    later[later.index("2012-09")] = "2012-12"
    assert cli.main(["run-cycle", *later]) == 0
    ewa = json.loads((out / "cycles" / "gen2" / "2012-12.json").read_text())["ewa"]
    assert ewa["first_cycle"] is False


def test_numeric_failure_exits_3(data_dir, tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericError("degenerate input")

    monkeypatch.setattr(cli, "run_cycle", explode)
    assert cli.main(["run-cycle", *_cycle_args(data_dir, tmp_path / "n")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
