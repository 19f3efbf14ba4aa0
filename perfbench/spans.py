"""In-memory span tracer that wraps returncast's layer boundaries from outside.

Nothing under `src/` is edited. The tracer replaces, for the duration of a
traced pass, the module attributes that `run_cycle` and the CLI look up
(for example `pipeline.evaluate_zoo`), re-registers every model fitter
through `register_fitter`, counts `FittedModel.predict` calls and wraps the
two `CycleStore` methods on their classes. `uninstall` restores every original.

A span is `[cycle, parent, name, start, end, raised]`; `cycle` is the
identifier the harness sets before each planning cycle, so spans of one cycle
share it. Counters sit beside the spans at the same boundaries.
"""
from __future__ import annotations

import collections
import functools
import json
import time

from returncast import cli, cycle_store, pipeline, report
from returncast.models import base

# (module, attribute, span name); the cycle span is the root of each cycle
_MODULE_SPANS = (
    (pipeline, "run_cycle", "cycle"),
    (cli, "run_cycle", "cycle"),
    (pipeline, "genealogy_match", "analysis.genealogy_match"),
    (pipeline, "prepare_generation", "prep"),
    (pipeline, "normalize_to_current", "prep"),
    (pipeline, "build_predictors", "prep"),
    (pipeline, "coverage_greedy", "prep.coverage_greedy"),
    (pipeline, "build_correlation_table", "analysis.correlation"),
    (pipeline, "segment_lifecycle", "analysis.segment_lifecycle"),
    (pipeline, "decompose_seasonal", "analysis.decompose_seasonal"),
    (pipeline, "evaluate_zoo", "models.evaluate_zoo"),
    (pipeline, "fit_phasewise", "models.phasewise.fit"),
    # private, but it is the only boundary around the winner refit
    (pipeline, "_winner_forecast", "forecast.winner"),
    (pipeline, "adjust_forecast", "adjust"),
    (pipeline, "run_ewa", "ewa"),
    (report, "render_report", "report.render"),
    (report, "validate_report", "report.validate"),
)
# (module, attribute, counter): calls counted, time left with the caller
_MODULE_COUNTS = (
    (pipeline, "align", "core.align_calls"),
    # phase-wise is ranked through pipeline.rank_models only when it scored
    (pipeline, "rank_models", "models.phasewise.ranked"),
)
_CLASS_SPANS = (
    (cycle_store.CycleStore, "load_previous_cycle", "cycle_store.load_previous"),
    (cycle_store.CycleStore, "store_cycle", "cycle_store.store"),
)

MODEL_KINDS = ("linear", "cart", "chaid", "neural", "timeseries", "polynomial", "phasewise")


def kind_name(kind: base.ModelKind) -> str:
    return kind.name.lower()


class Tracer:
    """Records spans and counters while installed; restores everything after."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.cycle = 0
        self._stack: list[int] = []
        self._undo: list = []

    # ---------------------------------------------------------- recording

    def _wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.cycle, self._stack[-1] if self._stack else -1, name, 0.0, 0.0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = time.perf_counter()
                span[5] = True
                self._stack.pop()
                if on_return is not None:
                    on_return(args, None, True)
                raise
            span[4] = time.perf_counter()
            self._stack.pop()
            if on_return is not None:
                on_return(args, result, False)
            return result

        return traced

    def _count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------ hooks

    def _zoo_done(self, args, result, raised):
        self.counts["models.skipped"] += len(args[0]) - (0 if raised else len(result[0]))

    def _cycle_done(self, args, outcome, raised):
        if not raised:
            self.counts["models.leaderboard_rows"] += len(outcome.leaderboard)

    def _ewa_done(self, args, ewa_report, raised):
        if not raised and not ewa_report.first_cycle:
            self.counts["ewa.scored_previous"] += 1

    def _stored(self, args, path, raised):
        if not raised:
            self.counts["cycle_store.bytes_written"] += path.stat().st_size

    def _rendered(self, args, text, raised):
        if not raised:
            self.counts["report.bytes"] += len(text.encode("utf-8"))

    # ------------------------------------------------------- install/undo

    def install(self) -> None:
        hooks = {
            "models.evaluate_zoo": self._zoo_done,
            "cycle": self._cycle_done,
            "ewa": self._ewa_done,
            "cycle_store.store": self._stored,
            "report.render": self._rendered,
        }
        for module, attr, name in _MODULE_SPANS:
            # a later refactor may remove an attribute; its span then reads 0
            if attr in module.__dict__:
                self._set(module, attr, self._wrap(getattr(module, attr), name, hooks.get(name)))
        for cls, attr, name in _CLASS_SPANS:
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name, hooks.get(name)))
        for module, attr, name in _MODULE_COUNTS:
            if attr in module.__dict__:
                self._set(module, attr, self._count(getattr(module, attr), name))

        originals = dict(base._FITTERS)
        for kind, fitter in originals.items():
            base.register_fitter(kind, self._wrap(fitter, f"models.{kind_name(kind)}.fit"))
        self._undo.append((None, "fitters", originals))

        # predictions are counted, not timed: their time stays with the caller
        predict = base.FittedModel.__dict__["predict"]
        counts = self.counts

        def counted_predict(model, matrix):
            counts[f"models.{kind_name(model.spec.kind)}.predict_calls"] += 1
            return predict(model, matrix)

        self._set(base.FittedModel, "predict", counted_predict)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if owner is None:
                for kind, fitter in value.items():
                    base.register_fitter(kind, fitter)
            else:
                setattr(owner, attr, value)

    # ----------------------------------------------------------- output

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, dump: dict, cycle: int) -> None:
        """Append another process's `dump()` as the spans of one cycle."""
        offset = len(self.spans)
        for _, parent, *rest in dump["spans"]:
            self.spans.append([cycle, parent + offset if parent >= 0 else -1, *rest])
        self.counts.update(dump["counts"])


def summarize(spans: list[list], counts: dict) -> collections.Counter:
    """Self time per span name, plus call counts and derived counters.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap, since one caller runs them in turn.
    """
    out: collections.Counter = collections.Counter()
    child_time = [0.0] * len(spans)
    fits_under = collections.Counter()
    for i, (_, parent, name, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if name.endswith(".fit"):
                fits_under[parent] += 1
    for i, (_, parent, name, start, end, raised) in enumerate(spans):
        out[name + "_s"] += (end - start) - child_time[i]
        out[name + "_calls"] += 1
        parent_name = spans[parent][2] if parent >= 0 else ""
        if name.endswith(".fit") and parent_name != "models.phasewise.fit":
            out["models.fit_attempts"] += 1
        if name == "models.phasewise.fit" and parent_name != "forecast.winner":
            out["models.phasewise.scoring_fits"] += 1
        if name == "forecast.winner":
            out["forecast.fallthroughs"] += fits_under[i] - (0 if raised else 1)
    out.update(counts)
    return out


def write_spans(path, spans: list[list]) -> None:
    """One JSON line per span: cycle id, parent index, name, start, end, raised."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
