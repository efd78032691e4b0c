"""Multi-head self-attention encoder blocks on context and placeholder rows.

Two departures from a stock pre-norm encoder: query/key vectors are
position-rotated with the tunable periods before scoring, and only
context rows are keys. The model runs each layer's block twice, in two
passes. The context pass gives a block the context rows (B, n_c, D) at
positions 0..n_c-1: it projects and rotates this layer's keys and values
from them, and computes the context rows the next layer needs, or none
in the last layer, whose context rows nobody reads. The placeholder
stream then gives a block query rows at positions past the context with
those keys, any number of positions at a time. A placeholder has no key
or value at all; its query still attends to the context keys. Each
softmax runs over the n_c scores, a count fixed by the lookback: scores,
softmax and the value mix never reduce over an axis that grows with the
horizon, and every product runs on the fixed-block GEMM of
:mod:`numerics`, so a placeholder row's bytes depend on the context and
its own position alone, not on how many rows share its chunk.

Query rows may be a single (1, 1, D) row shared by every window and
position. The model's placeholder patches are all zeros and never keys,
so each patch size's placeholder rows are one model constant until they
first attend to the context. That row is normalized and projected once,
broadcast over positions before the rotary step and over the batch
before scoring; the residual then makes it (B, n, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import trope
from .errors import ContractError, ParameterError
from .numerics import Tensor


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    n_heads: int
    head_dim: int
    d_ff: int
    n_layers: int

    def __post_init__(self):
        if self.n_heads < 1 or self.n_layers < 1:
            raise ParameterError("n_heads and n_layers must be >= 1")
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ParameterError(f"head_dim must be even, got {self.head_dim}")
        if min(self.d_model, self.d_ff) < 1:
            raise ParameterError("d_model and d_ff must be >= 1")


def init_weight(rng: np.random.Generator, rows: int, cols: int, blocks: int = 1) -> Tensor:
    """A trainable (rows, blocks·cols) weight drawn from N(0, 1/rows): the
    ``blocks`` (rows, cols) draws side by side, in draw order."""
    draws = np.concatenate([rng.standard_normal((rows, cols)) for _ in range(blocks)], axis=1)
    return Tensor(draws / math.sqrt(rows), requires_grad=True)


class MLP:
    """``x @ w1 + b1``, GELU, then ``@ w2 + b2``, applied to the last axis.

    The backbone FFN and every per-patch-size encoder and decoder.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int):
        self.w1 = init_weight(rng, d_in, d_hidden)
        self.b1 = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w2 = init_weight(rng, d_hidden, d_out)
        self.b2 = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return nm.mlp(x, self.w1, self.b1, self.w2, self.b2)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


class LayerWeights:
    """One encoder layer: q/k/v maps, output projection, norms, FFN.

    ``wq``, ``wk`` and ``wv`` are (D, heads·hd) each, every head's map a
    block of hd columns, in head order.
    """

    def __init__(self, config: AttentionConfig, rng: np.random.Generator):
        d, h, hd = config.d_model, config.n_heads, config.head_dim
        self.config = config
        self.wq = init_weight(rng, d, hd, h)
        self.wk = init_weight(rng, d, hd, h)
        self.wv = init_weight(rng, d, hd, h)
        self.wo = init_weight(rng, h * hd, d)
        self.ln1_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d), requires_grad=True)
        self.ffn = MLP(rng, d, config.d_ff, d)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [
            ("wq", self.wq),
            ("wk", self.wk),
            ("wv", self.wv),
            ("wo", self.wo),
            ("ln1.gain", self.ln1_gain),
            ("ln1.bias", self.ln1_bias),
            ("ln2.gain", self.ln2_gain),
            ("ln2.bias", self.ln2_bias),
        ] + [(f"ffn.{n}", t) for n, t in self.ffn.trainable()]


def _heads(rows: Tensor, w: Tensor, heads: int) -> Tensor:
    """(B, n, D) rows projected by a fused (D, heads·hd) weight: (B, heads, n, hd)."""
    b, n, _ = rows.data.shape
    split = nm.reshape(nm.matmul(rows, w), (b, n, heads, w.data.shape[1] // heads))
    return nm.transpose(split, (0, 2, 1, 3))


def keys_and_values(rows: Tensor, periods: trope.TunablePeriods, weights: LayerWeights) -> tuple[Tensor, Tensor]:
    """The keys of (B, n_k, D) rows at positions 0..n_k-1, rotated and
    transposed to (B, heads, hd, n_k), and their values (B, heads, n_k, hd)."""
    if rows.data.ndim != 3 or rows.data.shape[1] < 1:
        raise ContractError(f"keys need (B, n_k, D) rows with n_k >= 1, got {rows.data.shape}")
    heads = weights.config.n_heads
    k = trope.rotate(_heads(rows, weights.wk, heads), np.arange(rows.data.shape[1]), periods)
    return nm.transpose(k, (0, 1, 3, 2)), _heads(rows, weights.wv, heads)


def attention(
    queries: Tensor,
    positions,
    keys: tuple[Tensor, Tensor],
    periods: trope.TunablePeriods,
    weights: LayerWeights,
) -> tuple[Tensor, Tensor]:
    """Multi-head attention of query rows at ``positions`` over ``keys``,
    the pair :func:`keys_and_values` returns.

    ``queries`` is (B, n, D), one row per position, or has 1 in place of
    B or n for a row shared by every window or position. Returns the
    output (B, n, D) and the attention probabilities (B, heads, n, n_k).
    """
    k_t, v = keys
    b, heads, hd, _ = k_t.data.shape
    n = len(positions)
    shape = queries.data.shape
    if len(shape) != 3 or shape[0] not in (1, b) or shape[1] not in (1, n) or n < 1:
        raise ContractError(
            f"queries {shape} do not match {n} positions and a batch of {b} (1 stands for a shared row)"
        )
    q = _heads(queries, weights.wq, heads)
    q = trope.rotate(nm.broadcast(q, (shape[0], heads, n, hd)), positions, periods)
    q = nm.broadcast(q, (b, heads, n, hd))

    scores = nm.scale(nm.matmul(q, k_t), 1.0 / math.sqrt(hd))
    probs = nm.softmax_lastdim(scores)  # (B, heads, n, n_k)
    mixed = nm.matmul(probs, v)  # (B, heads, n, hd)
    merged = nm.reshape(nm.transpose(mixed, (0, 2, 1, 3)), (b, n, heads * hd))
    return nm.matmul(merged, weights.wo), probs


def _residual(rows: Tensor, attn_out: Tensor, weights: LayerWeights) -> Tensor:
    """x + Attn(LN(x)), then x + FFN(LN(x)); a shared row ``rows`` is
    broadcast to the attention output's shape."""
    mid = nm.add(nm.broadcast(rows, attn_out.data.shape), attn_out)
    return nm.add(mid, weights.ffn(nm.layer_norm(mid, weights.ln2_gain, weights.ln2_bias)))


def transformer_block(
    rows: Tensor,
    positions,
    periods: trope.TunablePeriods,
    weights: LayerWeights,
    keys: tuple[Tensor, Tensor] | None = None,
) -> tuple[Tensor | None, tuple[Tensor, Tensor]]:
    """Pre-norm residual block; returns the rows at ``positions`` and the keys.

    With ``keys`` given (the placeholder stream), ``rows`` are query rows
    (B, n, D) at ``positions``, or one shared (1, 1, D) row, attending over
    those keys. Without ``keys`` (the context pass), ``rows`` (B, n, D) sit
    at positions 0..n-1 and are this layer's keys and values; ``positions``
    is either all of 0..n-1, whose rows the block computes and returns, or
    empty, and the block returns None and the keys only.
    """
    normed = nm.layer_norm(rows, weights.ln1_gain, weights.ln1_bias)
    positions = np.asarray(positions)
    if keys is None:
        keys = keys_and_values(normed, periods, weights)
        if not len(positions):
            return None, keys
        n = rows.data.shape[1]
        if not np.array_equal(positions, np.arange(n)):
            raise ContractError(f"context positions must be 0..{n - 1} or none, got {positions}")
    out, _ = attention(normed, positions, keys, periods, weights)
    return _residual(rows, out, weights), keys
