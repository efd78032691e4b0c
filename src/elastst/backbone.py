"""Multi-head self-attention encoder blocks over a key prefix.

Two departures from a stock pre-norm encoder: query/key vectors are
position-rotated with the tunable periods before scoring, and only the
first ``n_keys`` rows are keys. The model puts its context patches
first and its placeholder patches after them, and passes the context
patch count as ``n_keys``, so a patch consisting solely of placeholders
has no key or value at all; placeholder *queries* still attend to
context keys. Keys and values are projected and rotated for the prefix
alone, and each query's softmax runs over those n_keys scores. The
context patch count is fixed by the lookback: scores, softmax and the
value mix never reduce over an axis that grows with the horizon, and
every product runs on the fixed-block GEMM of :mod:`numerics`, so
appending placeholder patches leaves every pre-existing row's output
bit-identical.
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


def init_weight(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """A trainable (rows, cols) weight drawn from N(0, 1/rows)."""
    return Tensor(rng.standard_normal((rows, cols)) / math.sqrt(rows), requires_grad=True)


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
        hidden = nm.gelu(nm.bias_add(nm.matmul(x, self.w1), self.b1))
        return nm.bias_add(nm.matmul(hidden, self.w2), self.b2)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


class LayerWeights:
    """One encoder layer: per-head q/k/v maps, output projection, norms, FFN."""

    def __init__(self, config: AttentionConfig, rng: np.random.Generator):
        d, h, hd = config.d_model, config.n_heads, config.head_dim
        self.config = config
        self.wq = [init_weight(rng, d, hd) for _ in range(h)]
        self.wk = [init_weight(rng, d, hd) for _ in range(h)]
        self.wv = [init_weight(rng, d, hd) for _ in range(h)]
        self.wo = init_weight(rng, h * hd, d)
        self.ln1_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d), requires_grad=True)
        self.ffn = MLP(rng, d, config.d_ff, d)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, (q, k, v) in enumerate(zip(self.wq, self.wk, self.wv)):
            named += [(f"head{i}.wq", q), (f"head{i}.wk", k), (f"head{i}.wv", v)]
        named += [
            ("wo", self.wo),
            ("ln1.gain", self.ln1_gain),
            ("ln1.bias", self.ln1_bias),
            ("ln2.gain", self.ln2_gain),
            ("ln2.bias", self.ln2_bias),
        ]
        return named + [(f"ffn.{n}", t) for n, t in self.ffn.parameters()]


def attention(
    h: Tensor,
    n_keys: int,
    periods: trope.TunablePeriods,
    weights: LayerWeights,
) -> tuple[Tensor, Tensor]:
    """Multi-head attention of all N rows over the first ``n_keys`` rows.

    ``h`` is (B, N, D). Returns the output (B, N, D) and the attention
    probabilities (B, heads, N, n_keys).
    """
    if h.data.ndim != 3 or not 1 <= n_keys <= h.data.shape[1]:
        raise ContractError(
            f"attention needs (B, N, D) input and 1 <= n_keys <= N, got {h.data.shape} and {n_keys}"
        )
    b, n, _ = h.data.shape
    cfg = weights.config
    hd, heads = cfg.head_dim, cfg.n_heads
    h_keys = nm.slice_axis(h, 1, 0, n_keys)

    def project(x, mats):
        rows = x.data.shape[1]
        stacked = nm.matmul(x, nm.concat(mats, axis=1))  # (B, rows, heads*hd)
        split = nm.reshape(stacked, (b, rows, heads, hd))
        return nm.transpose(split, (0, 2, 1, 3))  # (B, heads, rows, hd)

    q = trope.rotate(project(h, weights.wq), np.arange(n), periods)
    k = trope.rotate(project(h_keys, weights.wk), np.arange(n_keys), periods)
    v = project(h_keys, weights.wv)

    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    probs = nm.softmax_lastdim(scores)  # (B, heads, N, n_keys)
    mixed = nm.matmul(probs, v)  # (B, heads, N, hd)
    merged = nm.reshape(nm.transpose(mixed, (0, 2, 1, 3)), (b, n, heads * hd))
    return nm.matmul(merged, weights.wo), probs


def transformer_block(
    h: Tensor,
    n_keys: int,
    periods: trope.TunablePeriods,
    weights: LayerWeights,
) -> Tensor:
    """Pre-norm residual block on (B, N, D): x + Attn(LN(x)), then x + FFN(LN(x))."""
    normed = nm.layer_norm(h, weights.ln1_gain, weights.ln1_bias)
    attn_out, _ = attention(normed, n_keys, periods, weights)
    mid = nm.add(h, attn_out)

    normed2 = nm.layer_norm(mid, weights.ln2_gain, weights.ln2_bias)
    return nm.add(mid, weights.ffn(normed2))
