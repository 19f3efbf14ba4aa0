"""Shared domain types: month calendar, generations, feature series, alignment.

Everything here is an immutable value object; instances are safe to share
across threads. Undefined months inside a series are carried as NaN so that
business-rule exclusions can punch holes without changing series length.

A series is validated once, when it is built from outside values: the values
are copied into a read-only array and checked. Every series derived from it
(a restriction, shift, lag, channel or truncation) is a read-only view of
those arrays, so a derivation neither copies nor rescans the data.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import MissingGaError, ValidationError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")
_EPOCH_YEAR = 2000  # month 0 = January 2000


@dataclass(frozen=True, order=True)
class MonthIndex:
    """A calendar month, stored as an integer count of months since 2000-01."""

    value: int

    @classmethod
    def parse(cls, text: str) -> "MonthIndex":
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise ValidationError(f"bad month {text!r}, expected YYYY-MM")
        year, mon = int(m.group(1)), int(m.group(2))
        if not 1 <= mon <= 12:
            raise ValidationError(f"bad month {text!r}: month must be 01..12")
        return cls((year - _EPOCH_YEAR) * 12 + (mon - 1))

    @property
    def year(self) -> int:
        return _EPOCH_YEAR + self.value // 12

    @property
    def month(self) -> int:
        return self.value % 12 + 1

    @property
    def quarter(self) -> int:
        return (self.month - 1) // 3 + 1

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def __add__(self, months: int) -> "MonthIndex":
        return MonthIndex(self.value + int(months))

    def __sub__(self, other):
        """MonthIndex - MonthIndex -> int months; MonthIndex - int -> MonthIndex."""
        if isinstance(other, MonthIndex):
            return self.value - other.value
        return MonthIndex(self.value - int(other))


@dataclass(frozen=True)
class MonthInterval:
    """Half-open month range [start, end)."""

    start: MonthIndex
    end: MonthIndex

    def __post_init__(self):
        if self.end.value < self.start.value:
            object.__setattr__(self, "end", self.start)  # normalize to empty

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, month: MonthIndex) -> bool:
        return self.start <= month < self.end

    def __iter__(self) -> Iterator[MonthIndex]:
        for v in range(self.start.value, self.end.value):
            yield MonthIndex(v)

    def intersect(self, other: "MonthInterval") -> "MonthInterval":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        return MonthInterval(lo, max(lo, hi))

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


@dataclass(frozen=True)
class GenerationId:
    """A product generation: name plus its rank within the family."""

    name: str
    ordinal: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValidationError("generation name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GaEntry:
    generation: GenerationId
    family: str
    ga_month: MonthIndex


class GaCalendar:
    """General-availability months per generation, grouped by product family.

    Within a family, GA months must be strictly increasing with ordinal:
    a later generation launches later.
    """

    def __init__(self, entries: Iterable[GaEntry] = ()):
        self._by_name: dict[str, GaEntry] = {}
        self._families: dict[str, list[GaEntry]] = {}
        for e in entries:
            if e.generation.name in self._by_name:
                raise ValidationError(f"duplicate generation {e.generation.name!r} in GA calendar")
            self._by_name[e.generation.name] = e
            self._families.setdefault(e.family, []).append(e)
        for family, group in self._families.items():
            group.sort(key=lambda e: e.generation.ordinal)
            for a, b in zip(group, group[1:]):
                if b.generation.ordinal == a.generation.ordinal:
                    raise ValidationError(
                        f"duplicate ordinal {a.generation.ordinal} in family {family!r}: "
                        f"{a.generation.name}, {b.generation.name}"
                    )
                if b.ga_month <= a.ga_month:
                    raise ValidationError(
                        f"GA months out of order in family {family!r}: "
                        f"{a.generation.name} (GA {a.ga_month}) must precede "
                        f"{b.generation.name} (GA {b.ga_month})"
                    )

    def __len__(self) -> int:
        return len(self._by_name)

    def entries(self) -> list[GaEntry]:
        out: list[GaEntry] = []
        for family in sorted(self._families):
            out.extend(self._families[family])
        return out

    def _entry(self, generation: GenerationId | str) -> GaEntry:
        name = generation if isinstance(generation, str) else generation.name
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingGaError(f"no GA entry for generation {name!r}") from None

    def resolve(self, name: str) -> GenerationId:
        """Canonical GenerationId (with ordinal) for a generation name."""
        return self._entry(name).generation

    def ga_month(self, generation: GenerationId | str) -> MonthIndex:
        return self._entry(generation).ga_month

    def successor(self, generation: GenerationId | str) -> Optional[GaEntry]:
        """Entry of the next generation (ordinal + 1 step) in the same family."""
        entry = self._entry(generation)
        group = self._families[entry.family]
        idx = group.index(entry)
        return group[idx + 1] if idx + 1 < len(group) else None

    def ga_of_next(self, generation: GenerationId | str) -> MonthIndex:
        """GA month of the next generation; this event triggers returns."""
        nxt = self.successor(generation)
        if nxt is None:
            name = generation if isinstance(generation, str) else generation.name
            raise MissingGaError(f"no GA entry for the generation after {name!r}")
        return nxt.ga_month


def _as_value_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """A read-only copy of outside values.

    The copy is returned as a view, so neither it nor anything sliced from
    it can be made writeable again.
    """
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValidationError("series values must be one-dimensional")
    arr.flags.writeable = False
    return arr.view()


@dataclass(frozen=True)
class FeatureSeries:
    """Monthly real-valued series; value i belongs to month start + i.

    NaN marks a month excluded by a business rule (undefined); alignment
    skips undefined months. Infinities are rejected.
    """

    name: str
    start: MonthIndex
    values: np.ndarray

    def __post_init__(self):
        if not self.name:
            raise ValidationError("feature name must be non-empty")
        arr = _as_value_array(self.values)
        if np.isinf(arr).any():
            raise ValidationError(f"feature {self.name!r} contains infinite values")
        object.__setattr__(self, "values", arr)

    @classmethod
    def _view(cls, name: str, start: MonthIndex, values: np.ndarray) -> "FeatureSeries":
        """A series over `values`, a read-only view of validated values."""
        series = object.__new__(cls)
        series.__dict__.update(name=name, start=start, values=values)
        return series

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> MonthIndex:
        return MonthIndex(self.start.value + len(self.values))

    @property
    def interval(self) -> MonthInterval:
        return MonthInterval(self.start, self.end)

    @property
    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def value_at(self, month: MonthIndex) -> float:
        if month not in self.interval:
            return float("nan")
        return float(self.values[month - self.start])

    def restrict(self, interval: MonthInterval) -> "FeatureSeries":
        """Slice to the overlap with `interval` (may be empty).

        The slice starts at the later of the two starts, also when the
        overlap is empty.
        """
        s0, w0 = self.start.value, interval.start.value
        i0 = max(0, w0 - s0)
        i1 = min(len(self.values), interval.end.value - s0)
        start = self.start if s0 >= w0 else interval.start
        return self._view(self.name, start, self.values[i0:max(i0, i1)])

    def shift(self, months: int, name: Optional[str] = None) -> "FeatureSeries":
        """Same values, domain moved forward by `months`; renamed if `name` is given."""
        start = MonthIndex(self.start.value + int(months))
        return self._view(name or self.name, start, self.values)

    def with_values(self, values: np.ndarray | Sequence[float], **changes) -> "FeatureSeries":
        return replace(self, values=values, **changes)


CHANNELS = ("shipments", "upgrades", "new_receipts", "gross_returns")


@dataclass(frozen=True)
class GenerationSeries:
    """Four aligned monthly channels for one generation, anchored at `start`.

    Loaded data is strictly finite and non-negative; preparation rules may
    later mask individual months to NaN (undefined) without changing length.
    """

    generation: GenerationId
    start: MonthIndex
    shipments: np.ndarray
    upgrades: np.ndarray
    new_receipts: np.ndarray
    gross_returns: np.ndarray

    def __post_init__(self):
        for channel in CHANNELS:
            object.__setattr__(self, channel, self._checked(channel, getattr(self, channel)))
        self._check_lengths({len(self.channel(channel)) for channel in CHANNELS})

    def _checked(self, channel: str, values) -> np.ndarray:
        """One channel's outside values as a validated read-only array."""
        arr = _as_value_array(values)
        if len(arr) < 1:
            raise ValidationError(f"{self.generation}: channel {channel!r} is empty")
        # the least and greatest values; NaN (an undefined month) is skipped
        low, high = np.fmin.reduce(arr), np.fmax.reduce(arr)
        if math.isinf(low) or math.isinf(high):
            raise ValidationError(f"{self.generation}: channel {channel!r} has infinite values")
        if low < 0:
            raise ValidationError(f"{self.generation}: channel {channel!r} has negative values")
        return arr

    def _check_lengths(self, lengths: set[int]) -> None:
        if len(lengths) != 1:
            raise ValidationError(f"{self.generation}: channels differ in length: {sorted(lengths)}")

    @classmethod
    def _view(
        cls, generation: GenerationId, start: MonthIndex, channels: dict[str, np.ndarray]
    ) -> "GenerationSeries":
        """A series over `channels`, read-only views of validated values."""
        series = object.__new__(cls)
        series.__dict__.update(generation=generation, start=start, **channels)
        return series

    def __len__(self) -> int:
        return len(self.shipments)

    @property
    def end(self) -> MonthIndex:
        return self.start + len(self)

    @property
    def interval(self) -> MonthInterval:
        return MonthInterval(self.start, self.end)

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise ValidationError(f"unknown channel {name!r}; expected one of {CHANNELS}")
        return getattr(self, name)

    def feature(self, name: str) -> FeatureSeries:
        """Extract one channel as a raw FeatureSeries."""
        return FeatureSeries._view(name, self.start, self.channel(name))

    def replace_channel(self, name: str, values: np.ndarray) -> "GenerationSeries":
        """The same series with one channel's values replaced; only the new
        channel is validated."""
        self.channel(name)  # validates the name
        arr = self._checked(name, values)
        self._check_lengths({len(self), len(arr)})
        channels = {channel: getattr(self, channel) for channel in CHANNELS}
        channels[name] = arr
        return self._view(self.generation, self.start, channels)

    def truncate(self, before: MonthIndex) -> "GenerationSeries":
        """Keep only months strictly before `before` (the data visible to a cycle)."""
        n = min(len(self), max(0, before - self.start))
        if n < 1:
            raise ValidationError(
                f"{self.generation}: no data before {before} (series starts {self.start})"
            )
        channels = {channel: getattr(self, channel)[:n] for channel in CHANNELS}
        return self._view(self.generation, self.start, channels)


@dataclass(frozen=True)
class FeatureMatrix:
    """Target plus predictors restricted to one contiguous fully-defined range.

    Predictors are kept in name order so that construction is insensitive to
    the input ordering. A prediction-only matrix carries target=None.
    """

    start: MonthIndex
    target: Optional[FeatureSeries]
    predictors: tuple[FeatureSeries, ...]

    def __post_init__(self):
        names = [p.name for p in self.predictors]
        if sorted(names) != names:
            object.__setattr__(self, "predictors", tuple(sorted(self.predictors, key=lambda p: p.name)))
            names.sort()
        if len(set(names)) < len(names):
            dupe = min(n for n in names if names.count(n) > 1)
            raise ValidationError(f"duplicate feature name {dupe!r}")
        if self.target is not None and self.target.name in names:
            raise ValidationError(f"target name {self.target.name!r} collides with a predictor")
        n, start = self.n_rows, self.start.value
        for s in self.predictors + ((self.target,) if self.target is not None else ()):
            if len(s.values) != n or s.start.value != start:
                raise ValidationError("matrix series must share start and length")

    @property
    def n_rows(self) -> int:
        if self.target is not None:
            return len(self.target)
        return len(self.predictors[0]) if self.predictors else 0

    def __len__(self) -> int:
        return self.n_rows

    @property
    def interval(self) -> MonthInterval:
        return MonthInterval(self.start, self.start + self.n_rows)

    def months(self) -> list[MonthIndex]:
        return list(self.interval)

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predictors)

    @property
    def X(self) -> np.ndarray:
        """Predictor matrix, rows by month, columns in name order."""
        if not self.predictors:
            return np.empty((self.n_rows, 0))
        return np.column_stack([p.values for p in self.predictors])

    @property
    def y(self) -> np.ndarray:
        if self.target is None:
            raise ValidationError("prediction-only matrix has no target")
        return self.target.values

    def slice_rows(self, i0: int, i1: int) -> "FeatureMatrix":
        """Rows i0 to i1 (exclusive, clipped to the matrix) as views; a slice
        from before the first row is refused."""
        if i0 < 0:
            raise ValidationError(f"rows [{i0}, {i1}) start before the matrix")
        start = self.start + i0

        def rows(s: FeatureSeries) -> FeatureSeries:
            return FeatureSeries._view(s.name, start, s.values[i0:i1])

        target = rows(self.target) if self.target is not None else None
        return FeatureMatrix(start, target, tuple(map(rows, self.predictors)))


def true_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) offsets of each run of True, in order.

    Padded with False at both ends, the mask changes value at every run's
    start and end, alternately: starts are the even edges, ends the odd ones.
    """
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2]


def _longest_true_run(mask: np.ndarray) -> tuple[int, int]:
    """(offset, length) of the longest run of True in a bool array; ties go
    to the latest run.

    One byte per flag: the runs are the pieces between zero bytes, and the
    last place a longest run's worth of ones occurs is that run's start.
    """
    flags = mask.tobytes()
    length = max(map(len, flags.split(b"\0")))
    return (flags.rfind(b"\1" * length) if length else 0), length


def defined_on(series: FeatureSeries, window: MonthInterval) -> np.ndarray:
    """Which months of `window` the series defines: one bool per month,
    False outside the series' domain."""
    w0, s0, values = window.start.value, series.start.value, series.values
    lo, hi = max(w0, s0), min(window.end.value, s0 + len(values))
    mask = np.zeros(window.end.value - w0, dtype=bool)
    if lo < hi:
        np.isfinite(values[lo - s0 : hi - s0], out=mask[lo - w0 : hi - w0])
    return mask


def align(series: Iterable[FeatureSeries], target: FeatureSeries) -> FeatureMatrix:
    """Build the maximal contiguous fully-defined matrix of target + predictors.

    Disjoint domains yield an empty matrix, not an error. When exclusion
    holes split the overlap, the longest contiguous run wins (ties go to the
    most recent months). `FeatureMatrix` rejects duplicate feature names
    and a predictor named like the target.
    """
    predictors = sorted(series, key=lambda s: s.name)
    mask, window = target.defined_mask, target.interval
    for s in predictors:
        mask &= defined_on(s, window)
    off, length = _longest_true_run(mask)
    start = target.start + off

    def run(s: FeatureSeries) -> FeatureSeries:
        # every series defines the whole run; an empty run cuts nothing
        i0 = start.value - s.start.value
        return FeatureSeries._view(s.name, start, s.values[i0 : i0 + length])

    return FeatureMatrix(start=start, target=run(target), predictors=tuple(map(run, predictors)))
