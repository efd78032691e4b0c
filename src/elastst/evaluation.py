"""Normalized error metrics and the varied-horizon evaluation harness.

Metrics are computed on the original (de-standardized) scale:

* NMAE  = sum |x - xhat| / sum |x|
* NRMSE = sqrt(mean((x - xhat)^2)) / mean(|x|)

with sums/means running over every variate (or window) and horizon step.
Both are undefined when the observations are identically zero; that is an
error, never a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data_io
from .errors import DimensionError, MetricUndefinedError
from .model import ModelState, forward_batch


def _as_matrices(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise DimensionError(f"metric inputs must match, got {a.shape} vs {p.shape}")
    return a, p


def nmae(actual, predicted) -> float:
    a, p = _as_matrices(actual, predicted)
    denom = np.abs(a).sum()
    if denom == 0.0:
        raise MetricUndefinedError("NMAE undefined: observations are identically zero")
    return float(np.abs(a - p).sum() / denom)


def nrmse(actual, predicted) -> float:
    a, p = _as_matrices(actual, predicted)
    denom = np.abs(a).mean()
    if denom == 0.0:
        raise MetricUndefinedError("NRMSE undefined: observations are identically zero")
    return float(np.sqrt(np.mean((a - p) ** 2)) / denom)


@dataclass(frozen=True)
class MetricRow:
    horizon: int
    nmae: float
    nrmse: float
    windows: int


@dataclass
class MetricReport:
    rows: list[MetricRow]
    dataset: str = ""
    checkpoint_id: str = ""

    def to_csv(self) -> str:
        lines = ["horizon,nmae,nrmse,windows"]
        for r in self.rows:
            lines.append(f"{r.horizon},{r.nmae!r},{r.nrmse!r},{r.windows}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = f"{'horizon':>8} {'NMAE':>12} {'NRMSE':>12} {'windows':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.horizon:>8} {r.nmae:>12.6f} {r.nrmse:>12.6f} {r.windows:>8}")
        return "\n".join(lines)


def varied_horizon_eval(
    state: ModelState,
    values: np.ndarray,
    lookback: int,
    horizons: list[int],
    scaler: data_io.Scaler,
    stride: int | None = None,
    dataset: str = "",
    checkpoint_id: str = "",
) -> MetricReport:
    """Evaluate one trained model across several forecast horizons.

    ``values`` is a standardized split; per horizon the split is covered
    with strided windows (default stride = horizon, non-overlapping), the
    forecasts are mapped back to the original scale, and one metric row is
    produced. Read-only on the model.

    Each distinct window (variate, start) is forecast once, at the longest
    requested horizon that uses it: horizons are walked longest first, and
    shorter ones score the first columns of forecasts already made. That is
    exact: a window's forecast is bitwise independent of the horizon
    (placeholders are never attention keys) and of its batch (fixed-block
    GEMMs), so the report equals one run per horizon byte for byte.
    """
    # every horizon is sized (SizingError) before any forward pass; training
    # sizes its validation split first, so a failure here is the test split's
    plans = {h: data_io.stride_windows(values, lookback, h, stride, what="test split") for h in horizons}
    forecasts: dict[tuple[int, int], np.ndarray] = {}  # (variate, start) -> its longest forecast
    rows: dict[int, MetricRow] = {}
    for horizon in sorted(plans, reverse=True):
        variates, starts = plans[horizon]
        contexts, actual = data_io.window_values(values, variates, starts, lookback, horizon)
        keys = list(zip(variates.tolist(), starts.tolist()))
        new = [i for i, key in enumerate(keys) if key not in forecasts]
        if new:
            forecasts.update(zip([keys[i] for i in new], forward_batch(state, contexts[new], horizon).values))
        preds = np.stack([forecasts[key][:horizon] for key in keys])
        actual, preds = scaler.inverse(actual, variates[:, None]), scaler.inverse(preds, variates[:, None])
        rows[horizon] = MetricRow(horizon, nmae(actual, preds), nrmse(actual, preds), windows=len(starts))
    return MetricReport(rows=[rows[h] for h in horizons], dataset=dataset, checkpoint_id=checkpoint_id)
