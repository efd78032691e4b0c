"""Horizon-reweighted training with Adam and best-checkpoint retention.

Training always runs the forward pass at the maximum horizon; shorter
horizons are emulated through per-position loss weights, built whole by
``reweight_vector`` once per step, in one of four modes:

* ``log-approx``   - w(tau) = (ln(t_max) - ln(tau)) / t_max
* ``exact-harmonic`` - w(tau) = (sum_{T=tau}^{t_max} 1/T) / t_max, the exact
  expectation of uniformly sampling a horizon T and weighting 1/T inside it
  (computed in rational arithmetic, then rounded once to float)
* ``fixed-uniform`` - w(tau) = 1/t_max (plain MSE over the full horizon)
* ``sampled``       - draw one horizon per step and weight 1/T_s inside it

Everything is seeded: window sampling uses a per-epoch generator derived
from (seed, epoch), so resuming from a checkpoint replays the exact
trajectory.

A step (``step_gradients``) walks ``model.step_blocks`` of the horizon,
one tape per block; the ``model`` module docstring states the block rule,
the walk order and which bytes it keeps.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import data_io, evaluation
from .errors import DimensionError, FormatError, ParameterError
from .model import (
    ModelState,
    composite_loss,
    fill_leaves,
    forward_batch,
    load_model,
    lookup,
    step_blocks,
    write_checkpoint,
)
from .numerics import Graph, backward

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    t_max: int = 720
    reweight_mode: str = "log-approx"
    learning_rate: float = 0.001
    batches_per_epoch: int = 100
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    checkpoint_path: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.t_max < 1:
            raise ParameterError(f"t_max must be >= 1, got {self.t_max}")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.batches_per_epoch < 1:
            raise ParameterError(
                f"batch_size and batches_per_epoch must be >= 1, got {self.batch_size} and {self.batches_per_epoch}"
            )
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.reweight_mode not in REWEIGHT_MODES:
            raise ParameterError(f"unknown reweight mode {self.reweight_mode!r}, options: {REWEIGHT_MODES}")


# ---------------------------------------------------------------------------
# loss reweighting


@lru_cache(maxsize=None)
def _harmonic_suffix_weights(t_max: int) -> tuple[float, ...]:
    """w(tau) = (1/tau + 1/(tau+1) + ... + 1/t_max) / t_max, exactly rounded."""
    weights = [0.0] * t_max
    acc = Fraction(0)
    for t in range(t_max, 0, -1):
        acc += Fraction(1, t)
        weights[t - 1] = float(acc / t_max)
    return tuple(weights)


def _sampled(t_max: int, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        raise ParameterError("sampled mode needs a random generator")
    t_s = int(rng.integers(1, t_max + 1))
    return np.where(np.arange(t_max) < t_s, 1.0 / t_s, 0.0)


# each mode's weights w(1..t_max), given the step's generator; ``log-approx``
# takes math.log per position, whose bytes do not depend on numpy's SIMD dispatch
_WEIGHTS = {
    "log-approx": lambda t, rng: np.array([(math.log(t) - math.log(tau)) / t for tau in range(1, t + 1)]),
    "exact-harmonic": lambda t, rng: np.array(_harmonic_suffix_weights(t)),
    "fixed-uniform": lambda t, rng: np.full(t, 1.0 / t),
    "sampled": _sampled,
}
REWEIGHT_MODES = tuple(_WEIGHTS)


def reweight_vector(t_max: int, mode: str = "log-approx", rng: np.random.Generator | None = None) -> np.ndarray:
    """The loss weights of positions 1..t_max under ``mode``; ``sampled``
    draws one horizon T_s from ``rng`` and weights 1/T_s up to it."""
    if t_max < 1 or mode not in _WEIGHTS:
        raise ParameterError(f"need t_max >= 1 and a mode of {REWEIGHT_MODES}, got {t_max} and {mode!r}")
    return _WEIGHTS[mode](t_max, rng)


# ---------------------------------------------------------------------------
# optimizer


def _check_like(params: list[np.ndarray], arrays: list[np.ndarray], what: str) -> None:
    """``DimensionError`` unless ``arrays`` holds one array per parameter, of its shape."""
    if len(arrays) != len(params):
        raise DimensionError(f"{len(arrays)} {what} arrays for {len(params)} parameters")
    for p, a in zip(params, arrays):
        if a.shape != p.shape:
            raise DimensionError(f"{what} shape {a.shape} does not match parameter {p.shape}")


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    lr: float,
    step_count: int = 1,
) -> None:
    """Standard bias-corrected Adam update, in place. ``step_count`` is 1-based.
    Unless ``grads``, ``m`` and ``v`` each hold one array of each parameter's
    shape, ``DimensionError`` is raised before anything is updated."""
    for what, arrays in (("gradient", grads), ("first moment", m), ("second moment", v)):
        _check_like(params, arrays, what)
    bc1 = 1.0 - BETA1**step_count
    bc2 = 1.0 - BETA2**step_count
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= BETA1
        mi += (1.0 - BETA1) * g
        vi *= BETA2
        vi += (1.0 - BETA2) * (g * g)
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainData:
    """Standardized train/validation splits plus the scaler that made them."""

    train_values: np.ndarray  # (V_train, K)
    val_values: np.ndarray  # (V_val, K)
    scaler: data_io.Scaler
    name: str = ""


@dataclass
class Checkpoint:
    state: ModelState
    adam_m: list[np.ndarray]  # one per leaf of state.trainable()
    adam_v: list[np.ndarray]
    step_count: int
    epoch: int
    best_val_nmae: float
    log: list[dict] = field(default_factory=list)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch]))


def _snapshot(state: ModelState, m, v, step_count, epoch, best) -> Checkpoint:
    return Checkpoint(
        state=state.copy(),
        adam_m=[a.copy() for a in m],
        adam_v=[a.copy() for a in v],
        step_count=step_count,
        epoch=epoch,
        best_val_nmae=best,
    )


def step_gradients(
    state: ModelState, contexts: np.ndarray, targets: np.ndarray, weights: np.ndarray, where: str = "a step"
) -> float:
    """The composite loss of (B, L) ``contexts`` against (B, T) ``targets``
    under (T,) ``weights``, which carry all normalization, walked in step
    blocks (see the ``model`` module docstring); its gradient is added into the
    ``trainable()`` leaves' ``grad``. A running loss that is not finite
    raises ``FloatingPointError``, naming ``where``, before its block's
    backward."""
    horizon = targets.shape[1]
    forecast, loss = None, 0.0
    for lo, hi in step_blocks(horizon, state.config.patch_sizes):
        with Graph() as tape:
            forecast = forward_batch(state, contexts, horizon, forecast, (lo, hi))
            share = composite_loss(forecast, targets[:, lo:hi], weights[lo:hi])
        loss += share.item()
        if not math.isfinite(loss):
            raise FloatingPointError(f"training loss is {loss} at {where}")
        backward(share)
        tape.clear()
    return loss


def validation_nmae(state: ModelState, data: TrainData, config: TrainConfig) -> tuple[float, float]:
    """NMAE/NRMSE on the validation split at the training horizon, original scale,
    over non-overlapping windows."""
    (row,) = evaluation.varied_horizon_eval(
        state, data.val_values, state.config.lookback, [config.t_max], data.scaler, stride=config.t_max
    ).rows
    return row.nmae, row.nrmse


def save_training_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; its per-leaf moments are written as the checkpoint's
    blocks, ``opt.m.<block>`` and ``opt.v.<block>``. Moments that do not
    match the leaves raise ``DimensionError`` before the file is touched."""
    names, params = zip(*((n, t.data) for n, t in ckpt.state.trainable()))
    _check_like(params, ckpt.adam_m, "first moment")
    _check_like(params, ckpt.adam_v, "second moment")
    extra = [(f"opt.m.{n}", a) for n, a in ckpt.state.blocks(list(zip(names, ckpt.adam_m)))]
    extra += [(f"opt.v.{n}", a) for n, a in ckpt.state.blocks(list(zip(names, ckpt.adam_v)))]
    echo = {
        "epoch": str(ckpt.epoch),
        "step_count": str(ckpt.step_count),
        "best_val_nmae": repr(ckpt.best_val_nmae),
    }
    write_checkpoint(path, ckpt.state, extra_echo=echo, extra_arrays=extra)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _not_nan(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("is NaN")
    return value


def load_training_checkpoint(path) -> Checkpoint:
    """The training state in ``path``. Its ``log`` is empty: a resumed
    ``train`` reads the earlier rows back from its ``log_path``."""
    state, echo, arrays = load_model(path)

    def moments(prefix: str) -> list[np.ndarray]:
        leaves = [(name, np.empty_like(t.data)) for name, t in state.trainable()]
        fill_leaves(path, state, arrays, leaves, prefix)
        return [a for _, a in leaves]

    return Checkpoint(
        state=state,
        adam_m=moments("opt.m."),
        adam_v=moments("opt.v."),
        epoch=lookup(path, echo, "epoch", _count),  # in file order: an error names the first bad line
        step_count=lookup(path, echo, "step_count", _count),
        best_val_nmae=lookup(path, echo, "best_val_nmae", _not_nan),
    )


def train(start: ModelState | Checkpoint, data: TrainData, config: TrainConfig) -> Checkpoint:
    """Train ``start``'s model in place and return the best-validation checkpoint.

    ``start`` is a fresh model, which starts as an epoch-0 checkpoint (zero
    moments, step 0, best ``inf``, no log rows), or the ``Checkpoint`` to
    resume. Both splits are sized for ``start``'s lookback and ``t_max``
    (``SizingError``) before the log is opened or a step is run. The log
    keeps ``start``'s rows up to its epoch; with ``config.log_path`` and a
    start past epoch 0 they are read back from that log, which must hold one
    row for each epoch (``FormatError``), and the log is then rewritten whole.

    Each step samples ``batch_size`` windows at horizon ``t_max``, applies
    the reweighted composite loss and Adam-updates the ``trainable()``
    leaves. A non-finite step loss or gradient (named by its leaf) raises
    ``FloatingPointError`` before the update; a non-finite validation NMAE
    raises it after the epoch. Nothing else stops training: a run that
    diverges to huge but finite losses runs every epoch and returns. Each
    epoch that improves validation NMAE at ``t_max`` is written to
    ``config.checkpoint_path``; if none does, the start is written at the end.
    """
    if isinstance(start, ModelState):
        zeros = [np.zeros_like(t.data) for _, t in start.trainable()]
        start = Checkpoint(start, zeros, [np.zeros_like(a) for a in zeros], 0, 0, math.inf)
    state, m, v, step_count = start.state, start.adam_m, start.adam_v, start.step_count
    start_epoch, best = start.epoch, start.best_val_nmae
    lookback = state.config.lookback
    data_io.check_split(data.train_values, lookback, config.t_max, "train split")
    data_io.check_split(data.val_values, lookback, config.t_max, "validation split")

    log = [row for row in start.log if row["epoch"] <= start_epoch]
    if config.log_path and start_epoch > 0:
        log = [row for row in read_training_log(config.log_path) if row["epoch"] <= start_epoch]
        if [row["epoch"] for row in log] != list(range(1, start_epoch + 1)):
            raise FormatError(f"{config.log_path}: does not hold one row for each epoch 1..{start_epoch}")

    leaves = state.trainable()  # gradients accumulate here, and Adam updates these in place
    params = [t.data for _, t in leaves]
    best_ckpt = _snapshot(state, m, v, step_count, start_epoch, best)
    if config.log_path:  # opened before the first step, so an unwritable log fails early
        write_training_log(config.log_path, log)

    for epoch in range(start_epoch + 1, config.epochs + 1):
        rng = _epoch_rng(config.seed, epoch)
        t0 = time.monotonic()
        loss_sum = 0.0
        for _ in range(config.batches_per_epoch):
            variates, starts = data_io.sample_windows(
                data.train_values, lookback, config.t_max, config.batch_size, rng=rng
            )
            contexts, targets = data_io.window_values(
                data.train_values, variates, starts, lookback, config.t_max
            )
            w = reweight_vector(config.t_max, config.reweight_mode, rng)  # only "sampled" draws from rng

            for _, t in leaves:
                t.grad = None
            step_count += 1
            where = f"epoch {epoch}, step {step_count}"
            step_loss = step_gradients(state, contexts, targets, w / config.batch_size, where)
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for _, t in leaves]
            for (name, _), g in zip(leaves, grads):
                if not np.all(np.isfinite(g)):
                    raise FloatingPointError(f"gradient of {name} is not finite at {where}")
            adam_step(params, grads, m, v, config.learning_rate, step_count=step_count)
            loss_sum += step_loss

        val_nmae, val_nrmse = validation_nmae(state, data, config)
        if not math.isfinite(val_nmae):
            raise FloatingPointError(
                f"validation NMAE is {val_nmae} after epoch {epoch}, step {step_count}"
            )
        log.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / config.batches_per_epoch,
                "val_nmae": val_nmae,
                "val_nrmse": val_nrmse,
                "wall_seconds": time.monotonic() - t0,
            }
        )
        if config.log_path:
            write_training_log(config.log_path, log[-1:], mode="a")
        if val_nmae < best:
            best = val_nmae
            best_ckpt = _snapshot(state, m, v, step_count, epoch, best)
            if config.checkpoint_path:
                save_training_checkpoint(config.checkpoint_path, best_ckpt)

    if config.checkpoint_path and best_ckpt.epoch == start_epoch:  # no epoch improved on the start
        save_training_checkpoint(config.checkpoint_path, best_ckpt)
    best_ckpt.log = log
    return best_ckpt


LOG_COLUMNS = ("epoch", "train_loss", "val_nmae", "val_nrmse", "wall_seconds")


def read_training_log(path) -> list[dict]:
    """The rows of a log written by ``write_training_log``; floats round-trip exactly."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f)) or [[]]
    if tuple(header) != LOG_COLUMNS:
        raise FormatError(f"{path}: not a training log, its header is not {','.join(LOG_COLUMNS)}")
    try:
        return [dict(zip(LOG_COLUMNS, [int(row[0]), *map(float, row[1:])], strict=True)) for row in rows]
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed training log row: {exc}") from None


def write_training_log(path, log: list[dict], mode: str = "w") -> None:
    """Write the header and ``log``'s rows (``mode="w"``), or append the rows (``"a"``)."""
    with open(path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow(
                [row["epoch"], repr(row["train_loss"]), repr(row["val_nmae"]),
                 repr(row["val_nrmse"]), f"{row['wall_seconds']:.3f}"]
            )
