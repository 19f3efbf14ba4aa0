"""Set-up, passes, output checks and metrics of one benchmark run."""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from returncast import ingest, pipeline, report
from returncast.core import MonthIndex
from returncast.cycle_store import CycleStore
from returncast.errors import NumericError, ValidationError
from returncast.synth import ScenarioSpec, generate

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
WARM_UP_CYCLES = 8
HORIZON = 12
HIT_MAPE_PCT = 15.0
REASONS = ("genealogy", "zoo", "ewa", "zero_actuals", "missing_ga", "other", "crash")
# first words of each documented refusal message
_REFUSAL_PREFIXES = (
    ("missing_ga", ("no GA entry for",)),
    ("genealogy", ("no candidate generation has", "genealogy match needs")),
    ("zoo", ("no model in the zoo",)),
    ("ewa", ("EWA needs",)),
    ("zero_actuals", ("every actual is zero", "window actuals sum to zero")),
)


def refusal_reason(message: str) -> str:
    for reason, prefixes in _REFUSAL_PREFIXES:
        if message.startswith(prefixes):
            return reason
    return "other"


def _python(args: list[str], check: bool = False) -> subprocess.CompletedProcess:
    """Run the interpreter on the checkout's sources, as the README does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=check,
    )


# ------------------------------------------------------------------ set-up


@dataclasses.dataclass
class Draw:
    """One synthesized scenario, written to CSV and loaded back."""

    j: int
    spec: ScenarioSpec
    history_csv: Path
    ga_csv: Path
    history: list
    calendar: object
    cycles: list


def fresh_import_s() -> float:
    """Seconds to import the CLI module in a new interpreter."""
    code = (
        "import time; t = time.perf_counter(); import returncast.cli; "
        "print(time.perf_counter() - t)"
    )
    return float(_python(["-c", code], check=True).stdout.split()[-1])


def set_up(workload, seed: int, dest: Path) -> tuple[list[Draw], float, float]:
    """Import, synth, write and load every draw, SETUP_REPEATS times.

    Returns the first repeat's draws, the median set-up seconds and the
    median seconds to load one draw's CSVs.
    """
    setups, loads, kept = [], [], None
    for r in range(SETUP_REPEATS):
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        draws = []
        for j in range(workload.draws):
            spec = workload.scenario(seed, j)
            series, calendar, _ = generate(spec)
            folder = dest / f"setup{r}" / f"r{j}"
            ingest.write_history(folder / "history.csv", series)
            ingest.write_ga_calendar(folder / "ga.csv", calendar)
            t_load = time.perf_counter()
            calendar = ingest.load_ga_calendar(folder / "ga.csv")
            history = ingest.load_history(folder / "history.csv", calendar)
            loads.append(time.perf_counter() - t_load)
            draws.append(Draw(j, spec, folder / "history.csv", folder / "ga.csv", history,
                              calendar, workload.cycles(history, calendar)))
        setups.append(import_s + time.perf_counter() - t0)
        kept = kept or draws
    return kept, statistics.median(setups), statistics.median(loads)


# ----------------------------------------------------------- ground truth


class Truth:
    """Noise-free returns over the whole forecast horizon.

    `true_returns` and the seasonal term do not depend on the RNG, so the
    same spec with HORIZON extra months gives the truth past the history end.
    The program only ever sees the generated history.
    """

    def __init__(self):
        self._cache: dict = {}

    def _values(self, spec, generation: str):
        key = (spec, generation)
        if key not in self._cache:
            longer = dataclasses.replace(
                spec, months_after_final_ga=spec.months_after_final_ga + HORIZON
            )
            truth = generate(longer)[2].truth_for(generation)
            base = truth.true_returns.values
            # returns are zero outside the active support, seasonal or not
            values = np.where(base > 0, np.maximum(base + truth.seasonal.values, 0.0), 0.0)
            self._cache[key] = (truth.true_returns.start, values)
        return self._cache[key]

    def mape_pct(self, spec, generation: str, start: MonthIndex, best_fit) -> float | None:
        """Truth-MAPE of a forecast; None where the truth is zero throughout."""
        first, values = self._values(spec, generation)
        truth = values[start - first : start - first + len(best_fit)]
        nonzero = truth != 0
        if len(truth) != len(best_fit) or not nonzero.any():
            return None
        errors = (truth[nonzero] - np.asarray(best_fit)[nonzero]) / truth[nonzero]
        return float(np.abs(errors).mean() * 100.0)


# ------------------------------------------------------------------ cycles


@dataclasses.dataclass
class CycleResult:
    key: tuple
    ms: float
    reason: str | None  # None: a validated report
    digest: str = ""
    truth_mape: float | None = None


class Runner:
    """Runs passes over a workload's cycles and checks every output."""

    def __init__(self, workload, draws: list[Draw], work: Path):
        self.workload = workload
        self.draws = draws
        self.work = work
        self.truth = Truth()
        self.first: dict = {}  # cycle key -> first CycleResult
        self.failed = 0
        self.problems: list[str] = []
        self.cycle_id = 0
        self.tracer: spans.Tracer | None = None  # set during a traced pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _finish(self, result: CycleResult, text: str | None, forecast) -> CycleResult:
        """Validate the report and compare with the cycle's first run."""
        if text is not None:
            result.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if result.key not in self.first:
                j, generation, _ = result.key
                start, best_fit = forecast
                result.truth_mape = self.truth.mape_pct(
                    self.draws[j].spec, generation, start, best_fit
                )
            try:
                report.validate_report(text)
            except Exception as exc:  # any error here is a failed output
                self.fail(f"{result.key}: report fails validation: {exc!r}")
        first = self.first.setdefault(result.key, result)
        if (first.reason, first.digest) != (result.reason, result.digest):
            self.fail(f"{result.key}: repeat gave {result.reason or 'a different report'}, "
                      f"first run gave {first.reason or 'a report'}")
        if result.reason == "crash":
            self.fail(f"{result.key}: crashed")
        return result

    def in_process(self, draw: Draw, generation: str, month, store_root: Path) -> CycleResult:
        store = CycleStore(store_root / f"r{draw.j}" / generation)
        self.cycle_id += 1
        if self.tracer is not None:
            self.tracer.cycle = self.cycle_id
        outcome = text = reason = None
        t0 = time.perf_counter()
        try:
            outcome = pipeline.run_cycle(
                draw.history, draw.calendar, generation, month, store=store,
                config=self.workload.config,
            )
            text = report.render_report(outcome)
        except (ValidationError, NumericError) as exc:
            reason = refusal_reason(str(exc))
        except Exception as exc:  # a crash is counted, not fatal
            reason = "crash"
            print(f"crash at {generation} {month}: {exc!r}", file=sys.stderr)
        ms = (time.perf_counter() - t0) * 1000.0
        forecast = (outcome.forecast.start, outcome.forecast.best_fit) if text else None
        return self._finish(CycleResult((draw.j, generation, str(month)), ms, reason), text,
                            forecast)

    def via_cli(self, draw: Draw, generation: str, month, out: Path) -> CycleResult:
        self.cycle_id += 1
        argv = ["run-cycle", "--history", str(draw.history_csv), "--ga", str(draw.ga_csv),
                "--generation", generation, "--cycle", str(month), "--out", str(out)]
        spans_file = out.with_suffix(".spans.json")
        if self.tracer is not None:
            cmd = [str(Path(__file__).with_name("cli_shim.py")), str(spans_file), *argv]
        else:
            cmd = ["-m", "returncast.cli", *argv]
        t0 = time.perf_counter()
        proc = _python(cmd)
        ms = (time.perf_counter() - t0) * 1000.0
        text = forecast = reason = None
        record_path = out / "cycles" / generation / f"{month}.json"
        if "Traceback (most recent call last)" in proc.stderr or proc.returncode not in (0, 1, 3):
            reason = "crash"
            print(f"run-cycle exit {proc.returncode}: {proc.stderr[-800:]}", file=sys.stderr)
        elif proc.returncode:
            message = proc.stderr.strip().splitlines()[-1].split(": ", 1)[-1]
            reason = refusal_reason(message.removeprefix("numeric failure: "))
        elif not record_path.exists():
            reason = "crash"
            print(f"run-cycle wrote no cycle record at {record_path}", file=sys.stderr)
        else:
            text = (out / "report.csv").read_bytes().decode("utf-8")
            doc = json.loads(record_path.read_text())["forecast"]
            forecast = (MonthIndex.parse(doc["start"]), doc["best_fit"])
        if self.tracer is not None:
            self.tracer.absorb(json.loads(spans_file.read_text()), self.cycle_id)
        shutil.rmtree(out, ignore_errors=True)
        spans_file.unlink(missing_ok=True)
        return self._finish(CycleResult((draw.j, generation, str(month)), ms, reason), text,
                            forecast)

    def run_draw(self, draw: Draw, root: Path, deadline: float = float("inf")
                 ) -> list[CycleResult]:
        """The cycles of one draw in order, with fresh stores, until all ran
        or `deadline` (perf_counter) has passed."""
        results = []
        for n, (generation, month) in enumerate(draw.cycles):
            if time.perf_counter() >= deadline:
                break
            if self.workload.via_cli:
                results.append(self.via_cli(draw, generation, month, root / f"r{draw.j}-{n}"))
            else:
                results.append(self.in_process(draw, generation, month, root))
        shutil.rmtree(root, ignore_errors=True)
        return results

    def run_pass(self, index: int) -> list[CycleResult]:
        """Every cycle of every draw once."""
        root = self.work / f"pass{index}"
        return [r for draw in self.draws for r in self.run_draw(draw, root)]

    def timed_passes(self, seconds: float) -> list[CycleResult]:
        """One whole pass, then more passes until `seconds` have gone by:
        every cycle runs at least once, most several times, at moments
        spread over the whole run. A cut pass keeps the cycles it ran, each
        after the same earlier cycles of its draw as in a whole pass."""
        deadline = time.perf_counter() + seconds
        results = self.run_pass(0)
        for index in itertools.count(1):
            if time.perf_counter() >= deadline:
                return results
            for draw in self.draws:
                results += self.run_draw(draw, self.work / f"pass{index}", deadline)

    def traced_pass(self, index: int) -> tuple[spans.Tracer, list[CycleResult]]:
        """A pass with spans: in this process, or in each CLI child."""
        self.tracer = spans.Tracer()
        in_process = not self.workload.via_cli
        if in_process:
            self.tracer.install()
        try:
            return self.tracer, self.run_pass(index)
        finally:
            if in_process:
                self.tracer.uninstall()
            self.tracer = None

    def warm_up(self) -> None:
        """First-call costs of a warm process are not a cycle's: run up to
        WARM_UP_CYCLES cycles of the first draw, spread over its list, untimed
        and unrecorded (CLI calls are cold anyway)."""
        if self.workload.via_cli:
            return
        draw = self.draws[0]
        step = max(1, len(draw.cycles) // WARM_UP_CYCLES)
        for generation, month in draw.cycles[::step][:WARM_UP_CYCLES]:
            self.in_process(draw, generation, month, self.work / "warmup")
        shutil.rmtree(self.work / "warmup", ignore_errors=True)
        self.first.clear()

    def cli_reference(self) -> None:
        """The CLI's report bytes must equal an in-process run of the cycle;
        `_finish` compares them with the CLI's first report."""
        for (j, generation, month), first in list(self.first.items()):
            if first.reason is None:
                self.in_process(self.draws[j], generation, MonthIndex.parse(month),
                                self.work / "reference")


# ----------------------------------------------------------------- metrics


def end_to_end(workload, timed: list[CycleResult], setup_s: float) -> dict:
    """Percentiles over every cycle run in the timed passes, refusals included,
    and cycles run divided by the time they took.

    The host adds time in phases of seconds; a run's many cycles, spread over
    its whole length, keep a phase from moving the median much. (A cycle's
    fastest run is a worse estimate here: the minimum of a few runs depends on
    whether a fast phase happened to come.)
    """
    ms = np.array([r.ms for r in timed])
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF
    )
    return {
        "setup_s": setup_s,
        "cycle_p50_ms": float(np.percentile(ms, 50)),
        "cycle_p90_ms": float(np.percentile(ms, 90)),
        "cycles_per_s": len(ms) / (ms.sum() / 1000.0),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def import_breakdown() -> dict:
    """`python -X importtime` of the CLI module in a fresh interpreter.

    scipy.stats is the summed cumulative time of every scipy.stats* entry
    whose importer is not itself a scipy.stats* module.
    """
    proc = _python(["-X", "importtime", "-c", "import returncast.cli"], check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = next(c for _, c, n in rows if n == "returncast.cli")
    stats_us = 0
    pending: list[tuple[int, int, str]] = []  # entries whose importer is not listed yet
    for depth, cumulative, name in rows:
        children = [p for p in pending if p[0] == depth + 1]
        pending = [p for p in pending if p[0] != depth + 1]
        if not name.startswith("scipy.stats"):
            stats_us += sum(c for _, c, n in children if n.startswith("scipy.stats"))
        pending.append((depth, cumulative, name))
    return {"import.total_s": total / 1e6, "import.scipy_stats_s": stats_us / 1e6}


def quality(results: list[CycleResult]) -> dict:
    """Forecast quality of one pass against synth ground truth.

    A refused cycle counts as a miss. truth_mape_pct is the median over
    cycles with a forecast, 100 when none produced one.
    """
    n = len(results)
    mapes = [r.truth_mape for r in results if r.reason is None and r.truth_mape is not None]
    return {
        "cycle_fail_share": sum(1 for r in results if r.reason is not None) / n,
        "forecast_hit_share": sum(1 for m in mapes if m <= HIT_MAPE_PCT) / n,
        "truth_mape_pct": statistics.median(mapes) if mapes else 100.0,
    }


# span name -> metric, for self times reported per attempted cycle
_SPAN_METRICS = {
    "models.evaluate_zoo_s": "models.evaluate_zoo_s",
    "analysis.genealogy_match_s": "analysis.genealogy_match_s",
    "analysis.correlation_s": "analysis.correlation_s",
    "analysis.segment_lifecycle_s": "analysis.segment_lifecycle_s",
    "analysis.decompose_seasonal_s": "analysis.decompose_seasonal_s",
    "prep_s": "prep.s",
    "prep.coverage_greedy_s": "prep.coverage_greedy_s",
    "cycle_s": "cycle.self_s",
    "forecast.winner_s": "forecast.winner_s",
    "adjust_s": "adjust.s",
    "ewa_s": "ewa.s",
    "cycle_store.load_previous_s": "cycle_store.load_previous_s",
    "cycle_store.store_s": "cycle_store.store_s",
    "report.render_s": "report.render_s",
    "report.validate_s": "report.validate_s",
}
_COUNT_METRICS = (
    "core.align_calls", "forecast.fallthroughs", "ewa.scored_previous",
    "cycle_store.bytes_written", "report.bytes",
)


def per_layer(traced, untraced, load_s: float) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every traced pass counted the same."""
    summaries = [spans.summarize(t.spans, t.counts) for t, _ in traced]
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    cycles = sum(len(results) for _, results in traced)
    total = collections.Counter()
    for s in summaries:
        total.update(s)
    count = counts[0]

    m: dict = {}
    for kind in spans.MODEL_KINDS:
        # a flag-gated kind reads 0 on a workload that never runs it
        m[f"models.{kind}.fit_s"] = total[f"models.{kind}.fit_s"] / cycles
        for what in ("fit", "predict"):
            m[f"models.{kind}.{what}_calls"] = count.get(f"models.{kind}.{what}_calls", 0)
    # zoo kinds evaluate_zoo dropped, plus phase-wise fits that never ranked
    m["models.skipped"] = (
        count.get("models.skipped", 0)
        + count.get("models.phasewise.scoring_fits", 0)
        - count.get("models.phasewise.ranked", 0)
    )
    attempts = count.get("models.fit_attempts", 0)
    m["models.useful_fit_ratio"] = (
        count.get("models.leaderboard_rows", 0) / attempts if attempts else 0.0
    )
    m.update(import_breakdown())
    m["ingest.load_s"] = load_s
    for span_name, metric in _SPAN_METRICS.items():
        m[metric] = total[span_name] / cycles
    for name in _COUNT_METRICS:
        m[name] = count.get(name, 0)

    first = untraced[0]
    m["cycle.attempted"] = len(first)
    for reason in REASONS:
        m[f"cycle.refusals.{reason}"] = sum(1 for r in first if r.reason == reason)
    timed = [r for results in untraced for r in results]
    m["cycle.refused_time_share"] = (
        sum(r.ms for r in timed if r.reason) / sum(r.ms for r in timed)
    )
    m.update(quality(first))
    m["trace.overhead_ms"] = float(
        np.median([r.ms for _, results in traced for r in results])
        - np.median([r.ms for r in timed])
    )
    return m, all(c == counts[0] for c in counts)


# --------------------------------------------------------------------- run


def run(workload, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """One benchmark run; returns the result object to print."""
    # refusals log warnings by design; the benchmark counts them instead
    logging.disable(logging.CRITICAL)
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        draws, setup_s, load_s = set_up(workload, seed, work / "inputs")
        runner = Runner(workload, draws, work)
        runner.warm_up()

        # closed loop; with tracing on, untraced and traced passes alternate
        untraced, traced = [], []
        if trace:
            deadline = time.perf_counter() + seconds
            for index in itertools.count():
                t0 = time.perf_counter()
                if index % 2:
                    traced.append(runner.traced_pass(index))
                else:
                    untraced.append(runner.run_pass(index))
                if traced and time.perf_counter() + (time.perf_counter() - t0) > deadline:
                    break
        else:
            untraced.append(runner.timed_passes(seconds))
        if workload.via_cli:
            runner.cli_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, counts_repeat = per_layer(traced, untraced, load_s)
        if not counts_repeat:
            runner.fail("per-layer counts differ between traced passes")
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        spans.write_spans(WORK / "spans" / f"{workload.name}-seed{seed}.jsonl",
                          [s for t, _ in traced for s in t.spans])
    else:
        metrics = end_to_end(workload, untraced[0], setup_s)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(len(r) for r in untraced) + sum(len(r) for _, r in traced)
    return {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in declared
        },
    }
