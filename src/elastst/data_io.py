"""CSV ingestion, contiguous time splits, standardization, window sampling.

The input format is a wide CSV: header row, first column a timestamp (all
integer indices, or all ISO-8601 and either all naive or all offset-aware),
one column per variate after that. ``load_csv`` reads the whole table,
converts its numbers a block of rows at a time, and checks one kind of
defect at a time, reporting the first row of the first kind that fails:
cell counts, unparsable cells, then the timestamps of the rows kept after
dropping (and counting) those with a non-finite value.

Multivariate series are consumed channel-independently: a window is a
(variate, start) pair, samplers emit them as two index arrays, and
``window_values`` turns them into context and target arrays. All variates
share the model weights downstream.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import FormatError, IngestionError, ParameterError, SizingError


@dataclass(frozen=True)
class Dataset:
    name: str
    timestamps: tuple[str, ...]
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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


# rows per numeric conversion: the cells become floats a block at a time,
# so the conversion holds one block's arrays beyond the table and the result
CSV_BLOCK_ROWS = 256


def _data_rows(table: list[list[str]]):
    """(1-based file row, cells) of every non-empty row below the header."""
    return ((i, cells) for i, cells in enumerate(itertools.islice(table, 1, None), start=2) if cells)


def load_csv(path) -> Dataset:
    """Load a wide CSV into a Dataset, dropping non-finite rows."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            table = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not table:
        raise FormatError(f"{path}: empty file")
    header = table[0]
    if len(header) < 2:
        raise FormatError(f"{path}: need a timestamp column plus at least one variate")
    columns = tuple(c.strip() for c in header[1:])

    n_rows = 0
    for i, cells in _data_rows(table):
        if len(cells) != len(header):
            raise FormatError(f"{path}: row {i} has {len(cells)} cells, expected {len(header)}")
        n_rows += 1
    values = np.empty((n_rows, len(columns)))
    finite = np.empty(n_rows, dtype=bool)
    rows = _data_rows(table)
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = list(itertools.islice(rows, CSV_BLOCK_ROWS))
        try:
            chunk = np.array([cells[1:] for _, cells in block], dtype=np.float64)
        except ValueError:  # numpy parses strings as float() does; name the first bad cell
            for i, cells in block:
                for name, cell in zip(columns, cells[1:]):
                    try:
                        float(cell)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: row {i}, column {name!r}: cannot parse {cell!r} as a number"
                        ) from None
            raise
        values[start : start + len(block)] = chunk
        finite[start : start + len(block)] = np.isfinite(chunk).all(axis=1)
    n_kept = int(np.count_nonzero(finite))
    if not n_kept:
        raise IngestionError(f"{path}: no usable data rows")

    def kept_timestamps():  # checked and collected in one walk; no list is held beside the tuple
        previous = None
        for (i, cells), keep in zip(_data_rows(table), finite):
            if not keep:
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
            yield cells[0].strip()

    timestamps = tuple(kept_timestamps())
    return Dataset(
        name=path.stem,
        timestamps=timestamps,
        values=values if n_kept == n_rows else values[finite],
        columns=columns,
        dropped_rows=n_rows - n_kept,
    )


class Scaler:
    """Per-variate standardization fitted on the training split only."""

    STD_FLOOR = 1e-8  # constant-series guard

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        self.std = np.where(std < self.STD_FLOOR, 1.0, std)

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        return cls(values.mean(axis=0), values.std(axis=0))

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
    scaler = Scaler.fit(train)
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
