"""Command-line interface.

Each subcommand runs the planning pipeline through the last stage its
artifact comes from, writes that artifact under --out and prints a one-line
summary. Only the stages that run the whole cycle read the cycle store, and
only `run-cycle` writes to it: it stores the cycle record beside the report
file. Every stage recomputes from the raw inputs, so any stage can be re-run
and inspected on its own.

The JSON artifacts are encoded by `returncast.encode.to_json`, as the cycle
record is:

    stage      runs through        artifact
    prepare    prepare_histories   prepared.csv (both prepared histories), outliers.json
    analyze    plan_cycle          analysis.json
    train      train_plan          leaderboard.json
    forecast   train_plan          forecast.json
    ewa        cycle_outcome       ewa.json
    adjust     cycle_outcome       adjust.json
    report     cycle_outcome       report.csv (rendered from the outcome)
    run-cycle  run_cycle           report.csv, <store>/<gen>/<month>.json (the cycle record)

Exit codes: 0 success, 1 validation error (undecodable text, an unreadable
stored record), 2 missing input file (or not a regular file), 3 numeric
failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .analysis import Strength
from .config import AppConfig, load_config
from .core import MonthIndex
from .cycle_store import CycleStore, PlannerChoice
from .encode import json_text
from .errors import NumericError, ValidationError
from .ingest import load_ga_calendar, load_history, write_ga_calendar, write_history
from .pipeline import (
    cycle_outcome, outlier_screen, plan_cycle, prepare_histories, run_cycle, train_plan,
)
from .report import emit_report
from .synth import ScenarioSpec, generate

log = logging.getLogger(__name__)

_CHOICES = {choice.band: choice for choice in PlannerChoice}


def _load(args) -> tuple[list, object, AppConfig]:
    calendar = load_ga_calendar(args.ga)
    history = load_history(args.history, calendar)
    return history, calendar, load_config(args.config or None)


def _outdir(args) -> Path:
    """The --out directory, created if missing; a command calls it before its
    work, so an unusable path costs nothing."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise ValidationError(f"output path {out} exists and is not a directory") from None
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


# ------------------------------------------------------------ subcommands


def cmd_ingest(args) -> int:
    history, calendar, _ = _load(args)
    out = _outdir(args)
    write_history(out / "history.csv", history)
    write_ga_calendar(out / "ga.csv", calendar)
    print(
        f"ingest: {len(history)} generations, {len(calendar.entries())} GA entries -> {out}"
    )
    return 0


def cmd_prepare(args) -> int:
    history, calendar, config = _load(args)
    out = _outdir(args)
    generation = calendar.resolve(args.generation)
    prepared = prepare_histories(
        history, calendar, generation, MonthIndex.parse(args.cycle), config
    )
    write_history(out / "prepared.csv", [prepared.donor, prepared.current])
    (out / "outliers.json").write_text(json_text(outlier_screen(prepared)), encoding="utf-8")
    flagged = sum(r.count for r in prepared.outliers)
    print(
        f"prepare: donor {prepared.donor_id.name}, factor {prepared.normalization:.4f}, "
        f"{flagged} outlier months repaired -> {out}"
    )
    return 0


# command -> (help, artifact under --out, the last pipeline stage it runs,
# the artifact's document in that stage's result or None for the rendered
# report, summary of the result or None)
_STAGES = {
    "analyze": (
        "genealogy, correlations, lifecycle phases",
        "analysis.json",
        "plan_cycle",
        lambda plan: plan.analysis,
        lambda plan: f"donor {plan.prepared.donor_id.name}, {len(plan.table)} predictors "
        f"({sum(r.strength is Strength.STRONG for r in plan.table)} strong, "
        f"{len(plan.selected)} selected)",
    ),
    "train": (
        "fit the model zoo and rank by test MAPE",
        "leaderboard.json",
        "train_plan",
        lambda t: t.leaderboard,
        lambda t: f"{len(t.leaderboard)} models, winner {t.leaderboard.winner.spec.label()} "
        f"(test MAPE {t.leaderboard.winner.mape_best_fit:.2f}%)",
    ),
    "forecast": (
        "predict the horizon with the winning model",
        "forecast.json",
        "train_plan",
        lambda t: t.forecast_raw,
        lambda t: f"{t.forecast_raw.model.label()} over {t.forecast_raw.interval}, "
        f"test MAPE {t.forecast_raw.test_mape:.2f}%",
    ),
    "ewa": (
        "validate the previous cycle's forecast",
        "ewa.json",
        "cycle_outcome",
        lambda o: o.ewa,
        lambda o: f"alert {o.ewa.alert.value}, recommendation {o.ewa.recommendation.value}",
    ),
    "adjust": (
        "apply post-forecast adjustment rules",
        "adjust.json",
        "cycle_outcome",
        lambda o: o.adjustments,
        lambda o: o.adjustments.describe(),
    ),
    "report": ("write the cycle report CSV", "report.csv", "cycle_outcome", None, None),
    "run-cycle": (
        "run every stage and store the cycle record",
        "report.csv",
        "run_cycle",
        None,
        lambda o: f"{o.plan.generation.name} {o.plan.cycle_month} "
        f"winner {o.forecast.model.label()} (test MAPE {o.forecast.test_mape:.2f}%), "
        f"alert {o.ewa.alert.value}, {o.ewa.recommendation.value}",
    ),
}


def cmd_stage(args) -> int:
    """Run the cycle through the last pipeline stage the command's artifact
    comes from and write the artifact. Only the stages that run the whole
    cycle read the store; `run-cycle` also writes the cycle record to it."""
    _, artifact, last, document, summary = _STAGES[args.command]
    history, calendar, config = _load(args)
    out = _outdir(args)
    cycle = (history, calendar, args.generation, MonthIndex.parse(args.cycle))
    written = ""
    if last in ("plan_cycle", "train_plan"):
        result = plan_cycle(*cycle, config)
        if last == "train_plan":
            leaderboard, forecast_raw = train_plan(result)
            result = SimpleNamespace(leaderboard=leaderboard, forecast_raw=forecast_raw)
    else:
        store = CycleStore(args.store if args.store else out / "cycles")
        writes = last == "run_cycle"
        # looked up at call time: the benchmark's tracer wraps `cli.run_cycle`
        result = (run_cycle if writes else cycle_outcome)(
            *cycle, store, config, _CHOICES[args.select]
        )
        if writes:
            written = f", {store.path_for(result.plan.generation, result.plan.cycle_month)}"
    path = out / artifact
    if document is None:
        emit_report(result, path)
    else:
        path.write_text(json_text(document(result)), encoding="utf-8")
    head = f"{summary(result)} -> " if summary else ""
    print(f"{args.command}: {head}{path}{written}")
    return 0


def cmd_synth(args) -> int:
    spec = ScenarioSpec(
        generations=args.generations,
        seed=args.seed,
        noise_sd=args.noise_sd,
        seasonal_amplitude=args.seasonal_amplitude,
        months_after_final_ga=args.months_after_final_ga,
    )
    out = _outdir(args)
    series, calendar, _ = generate(spec)
    write_history(out / "history.csv", series)
    write_ga_calendar(out / "ga.csv", calendar)
    print(
        f"synth: {spec.generations} generations, seed {spec.seed} "
        f"-> {out / 'history.csv'}, {out / 'ga.csv'}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="returncast",
        description="Part-returns forecasting with model ranking and cycle validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage details")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags the input commands share, defined once and inherited
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--history", required=True, help="history CSV (generation_id,month,...)")
    io_flags.add_argument("--ga", required=True, help="GA calendar CSV")
    io_flags.add_argument("--config", default=None, help="INI config file (defaults built in)")
    io_flags.add_argument("--out", default=".", help="output directory (default: current)")
    cycle_flags = argparse.ArgumentParser(add_help=False, parents=[io_flags])
    cycle_flags.add_argument(
        "--generation", required=True, help="generation to forecast, e.g. gen2"
    )
    cycle_flags.add_argument("--cycle", required=True, help="cycle month, e.g. 2016-04")
    cycle_flags.add_argument(
        "--store", default=None, help="cycle store directory (default: <out>/cycles)"
    )
    cycle_flags.add_argument(
        "--select",
        choices=sorted(_CHOICES),
        default="best_fit",
        help="series the planner commits to (default: best_fit)",
    )

    p = sub.add_parser("ingest", help="validate and normalize the input CSVs", parents=[io_flags])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "prepare", help="clean, mask, and normalize donor history", parents=[cycle_flags]
    )
    p.set_defaults(func=cmd_prepare)
    for name, (blurb, *_) in _STAGES.items():
        p = sub.add_parser(name, help=blurb, parents=[cycle_flags])
        p.set_defaults(func=cmd_stage)

    p = sub.add_parser("synth", help="generate a synthetic multi-generation scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=4)
    p.add_argument("--noise-sd", type=float, default=0.03, dest="noise_sd")
    p.add_argument(
        "--seasonal-amplitude", type=float, default=0.0, dest="seasonal_amplitude"
    )
    p.add_argument(
        "--months-after-final-ga", type=int, default=8, dest="months_after_final_ga"
    )
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"{args.command}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
