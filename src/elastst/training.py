"""Horizon-reweighted training with Adam and best-checkpoint retention.

Training always runs the forward pass at the maximum horizon; shorter
horizons are emulated through per-position loss weights. Four weighting
modes are supported:

* ``log-approx``   - w(tau) = (ln(t_max) - ln(tau)) / t_max
* ``exact-harmonic`` - w(tau) = (sum_{T=tau}^{t_max} 1/T) / t_max, the exact
  expectation of uniformly sampling a horizon T and weighting 1/T inside it
  (computed in rational arithmetic, then rounded once to float)
* ``fixed-uniform`` - w(tau) = 1/t_max (plain MSE over the full horizon)
* ``sampled``       - draw one horizon per step and weight 1/T_s inside it

Everything is seeded: window sampling uses a per-epoch generator derived
from (seed, epoch), so resuming from a checkpoint replays the exact
trajectory.
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
from .errors import DimensionError, FormatError, ParameterError, SizingError
from .model import (
    ModelState,
    composite_loss,
    forward_batch,
    load_model,
    state_from_arrays,
    write_checkpoint,
)
from .numerics import Graph, backward

REWEIGHT_MODES = ("log-approx", "exact-harmonic", "fixed-uniform", "sampled")


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


def reweight(tau: int, t_max: int, mode: str = "log-approx", t_s: int | None = None) -> float:
    """Loss weight for forecast position ``tau`` (1-based) under ``mode``.

    ``sampled`` needs the drawn horizon ``t_s`` for the current step.
    """
    if t_max < 1:
        raise ParameterError(f"t_max must be >= 1, got {t_max}")
    if not 1 <= tau <= t_max:
        raise ParameterError(f"tau must be in [1, {t_max}], got {tau}")
    if mode == "log-approx":
        return (math.log(t_max) - math.log(tau)) / t_max
    if mode == "exact-harmonic":
        return _harmonic_suffix_weights(t_max)[tau - 1]
    if mode == "fixed-uniform":
        return 1.0 / t_max
    if mode == "sampled":
        if t_s is None or not 1 <= t_s <= t_max:
            raise ParameterError(f"sampled mode needs a drawn horizon in [1, {t_max}], got {t_s}")
        return 1.0 / t_s if tau <= t_s else 0.0
    raise ParameterError(f"unknown reweight mode {mode!r}")


def reweight_vector(t_max: int, mode: str = "log-approx", rng: np.random.Generator | None = None) -> np.ndarray:
    """All t_max position weights at once; ``sampled`` draws T_s from ``rng``."""
    t_s = None
    if mode == "sampled":
        if rng is None:
            raise ParameterError("sampled mode needs a random generator")
        t_s = int(rng.integers(1, t_max + 1))
    return np.array([reweight(tau, t_max, mode, t_s=t_s) for tau in range(1, t_max + 1)])


def expected_weight_oracle(
    tau: int,
    t_max: int,
    n_samples: int,
    seed: int = 0,
    return_se: bool = False,
):
    """Monte Carlo estimate of the expected weight at position ``tau`` when a
    horizon is drawn uniformly from [1, t_max] and positions inside it get
    weight 1/T_s. Independent of the harmonic computation by construction."""
    if n_samples < 1:
        raise ParameterError(f"need at least one sample, got {n_samples}")
    if not 1 <= tau <= t_max:
        raise ParameterError(f"tau must be in [1, {t_max}], got {tau}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.integers(1, t_max + 1, size=n_samples)
    w = np.where(draws >= tau, 1.0 / draws, 0.0)
    estimate = float(w.mean())
    if not return_se:
        return estimate
    se = float(w.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return estimate, se


# ---------------------------------------------------------------------------
# optimizer


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    step_count: int = 1,
) -> None:
    """Standard bias-corrected Adam update, in place. ``step_count`` is 1-based."""
    bc1 = 1.0 - beta1**step_count
    bc2 = 1.0 - beta2**step_count
    for p, g, mi, vi in zip(params, grads, m, v):
        if p.shape != g.shape:
            raise DimensionError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * (g * g)
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)


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
    adam_m: list[np.ndarray]
    adam_v: list[np.ndarray]
    step_count: int
    epoch: int
    best_val_nmae: float
    log: list[dict] = field(default_factory=list)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch]))


def _snapshot(state: ModelState, m, v, step_count, epoch, best, log) -> Checkpoint:
    return Checkpoint(
        state=state.copy(),
        adam_m=[a.copy() for a in m],
        adam_v=[a.copy() for a in v],
        step_count=step_count,
        epoch=epoch,
        best_val_nmae=best,
        log=list(log),
    )


def validation_nmae(state: ModelState, data: TrainData, config: TrainConfig) -> tuple[float, float]:
    """NMAE/NRMSE on the validation split at the training horizon, original scale,
    over non-overlapping windows."""
    (row,) = evaluation.varied_horizon_eval(
        state, data.val_values, state.config.lookback, [config.t_max], data.scaler, stride=config.t_max
    ).rows
    return row.nmae, row.nrmse


def save_training_checkpoint(path, ckpt: Checkpoint) -> None:
    names = [n for n, _ in ckpt.state.parameters()]
    extra = [(f"opt.m.{n}", a) for n, a in zip(names, ckpt.adam_m)]
    extra += [(f"opt.v.{n}", a) for n, a in zip(names, ckpt.adam_v)]
    echo = {
        "epoch": str(ckpt.epoch),
        "step_count": str(ckpt.step_count),
        "best_val_nmae": repr(ckpt.best_val_nmae),
    }
    write_checkpoint(path, ckpt.state, extra_echo=echo, extra_arrays=extra)


def load_training_checkpoint(path) -> Checkpoint:
    """The training state in ``path``. Its ``log`` is empty: a resumed
    ``train`` reads the earlier rows back from its ``log_path``."""
    state, echo, arrays = load_model(path)

    def blocks(prefix: str) -> list[np.ndarray]:
        return [t.data for _, t in state_from_arrays(state.config, arrays, prefix).parameters()]

    return Checkpoint(
        state=state,
        adam_m=blocks("opt.m."),
        adam_v=blocks("opt.v."),
        step_count=int(echo.get("step_count", "0")),
        epoch=int(echo.get("epoch", "0")),
        best_val_nmae=float(echo.get("best_val_nmae", "inf")),
    )


def train(
    state: ModelState,
    data: TrainData,
    config: TrainConfig,
    resume: Checkpoint | None = None,
) -> Checkpoint:
    """Train in place and return the best-validation checkpoint.

    Each step samples ``batch_size`` random windows at horizon ``t_max``,
    applies the reweighted composite loss, and Adam-updates. Validation
    NMAE at ``t_max`` drives best-checkpoint retention. A non-finite step
    loss or gradient raises ``FloatingPointError`` before the Adam update,
    so the parameters keep their values; a non-finite validation NMAE
    raises it after the epoch's updates. Either way the checkpoint file
    still holds the last (finite) best.

    On ``resume``, the log keeps the rows for epochs up to the checkpoint:
    with ``config.log_path`` they are read back from that log, which must
    hold one row for each of them, and it is then rewritten whole.
    """
    lookback = state.config.lookback
    needed = lookback + config.t_max
    if data.train_values.shape[0] < needed:
        raise SizingError(
            f"training split has {data.train_values.shape[0]} steps, "
            f"needs at least lookback + t_max = {needed}"
        )

    if resume is not None:
        state = resume.state
        m = resume.adam_m
        v = resume.adam_v
        step_count = resume.step_count
        start_epoch = resume.epoch
        best = resume.best_val_nmae
        log = [row for row in resume.log if row["epoch"] <= start_epoch]
        if config.log_path:
            log = [row for row in read_training_log(config.log_path) if row["epoch"] <= start_epoch]
            if [row["epoch"] for row in log] != list(range(1, start_epoch + 1)):
                raise FormatError(
                    f"{config.log_path}: does not hold one row for each epoch 1..{start_epoch}"
                )
    else:
        m = [np.zeros_like(t.data) for _, t in state.parameters()]
        v = [np.zeros_like(t.data) for _, t in state.parameters()]
        step_count = 0
        start_epoch = 0
        best = math.inf
        log = []

    names, params = zip(*state.parameters())
    best_ckpt = _snapshot(state, m, v, step_count, start_epoch, best, log)
    fixed_weights = (
        None if config.reweight_mode == "sampled" else reweight_vector(config.t_max, config.reweight_mode)
    )
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
            w = fixed_weights if fixed_weights is not None else reweight_vector(
                config.t_max, "sampled", rng=rng
            )
            weight_matrix = np.broadcast_to(w / config.batch_size, targets.shape)

            for p in params:
                p.grad = None
            graph = Graph()
            with graph:
                forecast = forward_batch(state, contexts, config.t_max)
                loss = composite_loss(forecast, targets, weight_matrix)
            step_count += 1
            step_loss = loss.item()
            if not math.isfinite(step_loss):
                raise FloatingPointError(
                    f"training loss is {step_loss} at epoch {epoch}, step {step_count}"
                )
            backward(loss)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            for name, g in zip(names, grads):
                if not np.all(np.isfinite(g)):
                    raise FloatingPointError(
                        f"gradient of {name} is not finite at epoch {epoch}, step {step_count}"
                    )
            adam_step(
                [p.data for p in params], grads, m, v, config.learning_rate, step_count=step_count
            )
            graph.clear()
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
            best_ckpt = _snapshot(state, m, v, step_count, epoch, best, log)
            if config.checkpoint_path:
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
