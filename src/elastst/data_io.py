"""CSV ingestion, contiguous time splits, standardization, window sampling.

The input format is a wide CSV: header row, first column a timestamp (all
integer indices, or all ISO-8601 and either all naive or all offset-aware),
one column per variate after that. ``load_csv`` reads the file in one
pass and checks each row in full before it reads the next: its cell count,
each cell through ``float()``, then, unless a non-finite value drops (and
counts) the row, its timestamp. So the first defective row in file order is
the one reported, and beyond the returned values and timestamps the loader
holds one row at a time. ``Dataset.timestamps`` holds each kept row's
``timestamp_key``, the value it was ordered by, not the file's text.

Multivariate series are consumed channel-independently: a window is a
(variate, start) pair, samplers emit them as two index arrays, and
``window_values`` turns them into context and target arrays. All variates
share the model weights downstream.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import FormatError, IngestionError, ParameterError, SizingError


@dataclass(frozen=True)
class Dataset:
    """A loaded CSV: one row of ``values`` per kept data row, and that row's
    ``timestamp_key`` (an int or a datetime) in ``timestamps``."""

    name: str
    timestamps: tuple[int | datetime, ...]
    values: np.ndarray  # (V, K)
    columns: tuple[str, ...]
    dropped_rows: int = 0

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


def timestamp_key(text: str):
    """The value a timestamp is ordered and matched by: an int for an integer
    index, a datetime for ISO-8601 (``2016-07-02``, ``2016-07-02T00:00`` and
    ``2016-07-02 00:00:00`` are one value), None for anything else."""
    text = text.strip()
    if text.lstrip("+-").replace("_", "").isdecimal():  # int() accepts no other text
        try:
            return int(text)
        except ValueError:  # "+-5", "1__0"
            pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def load_csv(path) -> Dataset:
    """Load a wide CSV into a Dataset, dropping non-finite rows."""
    path = Path(path)
    values = array("d")  # the kept rows' floats, row after row
    timestamps = []
    dropped = 0
    previous = None
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = csv.reader(f)
            header = next(rows, None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            if len(header) < 2:
                raise FormatError(f"{path}: need a timestamp column plus at least one variate")
            columns = tuple(c.strip() for c in header[1:])
            for i, cells in enumerate(rows, start=2):
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise FormatError(f"{path}: row {i} has {len(cells)} cells, expected {len(header)}")
                row = []
                try:
                    for cell in cells[1:]:
                        row.append(float(cell))
                except ValueError:
                    k = len(row)  # the cells before the bad one parsed
                    raise IngestionError(
                        f"{path}: row {i}, column {columns[k]!r}: cannot parse {cells[k + 1]!r} as a number"
                    ) from None
                if not all(map(math.isfinite, row)):
                    dropped += 1
                    continue
                key = timestamp_key(cells[0])
                if key is None:
                    raise IngestionError(
                        f"{path}: row {i}: timestamp {cells[0]!r} is neither an integer index nor ISO-8601"
                    )
                try:
                    increases = previous is None or key > previous
                except TypeError:  # an integer and an ISO time, or a naive and an offset-aware one
                    raise IngestionError(
                        f"{path}: row {i}: timestamp {cells[0]!r} is not of the same kind as the rows above"
                    ) from None
                if not increases:
                    raise IngestionError(f"{path}: row {i}: timestamp {cells[0]!r} does not increase strictly")
                previous = key
                values.extend(row)
                timestamps.append(key)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not timestamps:
        raise IngestionError(f"{path}: no usable data rows")
    return Dataset(
        name=path.stem,
        timestamps=tuple(timestamps),
        values=np.frombuffer(values).reshape(len(timestamps), len(columns)),
        columns=columns,
        dropped_rows=dropped,
    )


class Scaler:
    """Per-variate standardization fitted on the training split only."""

    # A column whose std is at most this share of |mean| is constant and is
    # divided by 1: rounding in a constant column's mean leaves a std of
    # order 1e-16·|mean|, and a zero std is caught whatever the mean.
    CONSTANT_RTOL = 1e-12
    # Below this max |x| a column's squared deviations go subnormal and lose
    # digits in ``np.std``; such a column is fitted scaled by a power of two.
    TINY = 2.0**-500

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        self.std = np.where(std <= self.CONSTANT_RTOL * np.abs(self.mean), 1.0, std)

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        mean, std = values.mean(axis=0), values.std(axis=0)
        amax = np.max(np.abs(values), axis=0, initial=0.0)
        tiny = np.flatnonzero((0.0 < amax) & (amax < cls.TINY))
        if tiny.size:  # both scalings are exact: x·2^-e and the results' ·2^e
            exp = np.frexp(amax[tiny])[1]
            scaled = np.ldexp(values[:, tiny], -exp)
            mean[tiny] = np.ldexp(scaled.mean(axis=0), exp)
            std[tiny] = np.ldexp(scaled.std(axis=0), exp)
        return cls(mean, std)

    # ``k`` picks the variates by index: all of them, one (an int) or an array that broadcasts
    def transform(self, values: np.ndarray, k=slice(None)) -> np.ndarray:
        return (values - self.mean[k]) / self.std[k]

    def inverse(self, values: np.ndarray, k=slice(None)) -> np.ndarray:
        return values * self.std[k] + self.mean[k]


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train/val/test fractions applied along time, in order."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        fractions = (self.train, self.val, self.test)
        if not all(0 < f < np.inf for f in fractions):
            raise ParameterError(f"split fractions must be positive and finite, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ParameterError(f"split fractions must sum to 1, got {sum(fractions)}")


def split_and_scale(
    ds: Dataset,
    spec: SplitSpec = SplitSpec(),
    min_len: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Scaler]:
    """Split along time, fit the scaler on train only, transform all three.

    The fractions are taken to 12 decimal places and the bounds computed
    in integers, so a bound that is a whole number of steps, like 0.8 of
    10000, is exact (0.7 + 0.1 is 0.7999999999999999 in floating point).
    A column whose train-split mean or std is not finite (its std overflows
    once values stray about 1.3e154 from the mean) raises ``IngestionError``.
    """
    v = ds.n_steps
    unit = 10**12
    train, val = round(spec.train * unit), round(spec.val * unit)
    end_train = v * train // unit
    end_val = v * (train + val) // unit
    bounds = {
        "train": (0, end_train),
        "val": (end_train, end_val),
        "test": (end_val, v),
    }
    if min_len is not None:
        for name, (lo, hi) in bounds.items():
            if hi - lo < min_len:
                raise SizingError(
                    f"{name} split has {hi - lo} steps, needs {min_len} "
                    f"(short by {min_len - (hi - lo)})"
                )
    train = ds.values[: bounds["train"][1]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        scaler = Scaler.fit(train)
    bad = np.flatnonzero(~(np.isfinite(scaler.mean) & np.isfinite(scaler.std)))
    if bad.size:
        raise IngestionError(
            f"column {ds.columns[bad[0]]!r}: the train split's mean or std is not finite; "
            "its values are too large to standardize"
        )
    return (
        scaler.transform(train),
        scaler.transform(ds.values[bounds["val"][0] : bounds["val"][1]]),
        scaler.transform(ds.values[bounds["test"][0] :]),
        scaler,
    )


def check_split(values: np.ndarray, lookback: int, horizon: int, what: str = "split") -> None:
    """The one sizing rule: a window of ``values``, a (V, K) split named
    ``what`` in the message, needs ``lookback + horizon`` steps."""
    if values.ndim != 2:
        raise ParameterError(f"split values must be (V, K), got shape {values.shape}")
    if lookback < 1 or horizon < 1:
        raise ParameterError(f"lookback and horizon must be >= 1, got {lookback} and {horizon}")
    needed = lookback + horizon
    if values.shape[0] < needed:
        raise SizingError(
            f"{what} has {values.shape[0]} steps, needs lookback + horizon = {needed} "
            f"(short by {needed - values.shape[0]})"
        )


def sample_windows(
    values: np.ndarray,
    lookback: int,
    horizon: int,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(variates, starts) of ``count`` windows drawn uniformly with replacement."""
    check_split(values, lookback, horizon)
    variates = rng.integers(0, values.shape[1], size=count)
    starts = rng.integers(0, values.shape[0] - lookback - horizon + 1, size=count)
    return variates, starts


def stride_windows(
    values: np.ndarray,
    lookback: int,
    horizon: int,
    stride: int | None = None,
    what: str = "split",
) -> tuple[np.ndarray, np.ndarray]:
    """(variates, starts) covering the split left to right, one variate after
    another; ``what`` names the split in a sizing error."""
    check_split(values, lookback, horizon, what)
    if stride is None:
        stride = horizon
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    starts = np.arange(0, values.shape[0] - lookback - horizon + 1, stride)
    variates = np.arange(values.shape[1])
    return np.repeat(variates, len(starts)), np.tile(starts, len(variates))


def window_values(
    values: np.ndarray, variates: np.ndarray, starts: np.ndarray, lookback: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """(B, lookback) contexts and (B, horizon) targets in one gather: the i-th
    window is variate ``variates[i]`` of the (V, K) split ``values``, its
    context from step ``starts[i]`` and its target right after. A window
    outside the split raises ``SizingError``, a non-finite context
    ``ParameterError``."""
    check_split(values, lookback, horizon)
    last_start = values.shape[0] - lookback - horizon
    if np.any((starts < 0) | (starts > last_start) | (variates < 0) | (variates >= values.shape[1])):
        raise SizingError(f"window starts must lie in [0, {last_start}] and variates in [0, {values.shape[1]})")
    rows = values[starts[:, None] + np.arange(lookback + horizon), variates[:, None]]
    contexts, targets = rows[:, :lookback], rows[:, lookback:]
    if not np.all(np.isfinite(contexts)):
        raise ParameterError("window context contains non-finite values")
    return contexts, targets
