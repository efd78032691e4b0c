"""Plain-numpy reference forward pass, independent of the ``elastst`` package.

It reads a checkpoint file by its documented layout (magic line, config
echo, blank line, named little-endian float64 blocks) and recomputes the
forecast with ordinary numpy: instance norm, patching, the per-size
encoder MLP, pre-norm attention blocks with tunable rotary positions,
the decoder, and the average over patch sizes.

The placeholder key mask is expressed here by attending over the context
keys only, rather than by an additive -inf bias, so the two codes share
no masking logic. Summation order differs from the engine's, so results
agree to a relative tolerance, not bitwise.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MAGIC = b"ELASTST-CKPT v1"
GELU_C = math.sqrt(2.0 / math.pi)
LN_EPS = 1e-5


def read_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(config echo, arrays by name) from a checkpoint file."""
    data = Path(path).read_bytes()
    lines = iter(data.split(b"\n"))
    if next(lines) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    pos = len(MAGIC) + 1
    echo: dict[str, str] = {}
    for line in lines:
        pos += len(line) + 1
        if not line:
            break
        key, value = line.decode().split("=", 1)
        echo[key] = value
    arrays: dict[str, np.ndarray] = {}
    while pos < len(data):
        nl = data.index(b"\n", pos)
        name, rows, cols = data[pos:nl].decode().rsplit(" ", 2)
        rows, cols = int(rows), int(cols)
        start = nl + 1
        pos = start + rows * cols * 8
        arrays[name] = np.frombuffer(data[start:pos], dtype="<f8").reshape(rows, cols)
    return echo, arrays


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x**3)))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _rotate(x: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Rotate pairs (2j, 2j+1) of the last axis by 2*pi*n / P_j at row n."""
    n = x.shape[-2]
    angle = 2.0 * math.pi * np.arange(n)[:, None] / periods[None, :]
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * c - x[..., 1::2] * s
    out[..., 1::2] = x[..., 0::2] * s + x[..., 1::2] * c
    return out


class ReferenceModel:
    """A checkpoint's parameters and shape, with a numpy forward pass."""

    def __init__(self, echo: dict[str, str], arrays: dict[str, np.ndarray]):
        self.a = arrays
        self.patch_sizes = sorted(int(p) for p in echo["patch_sizes"].split(","))
        self.n_heads = int(echo["n_heads"])
        self.head_dim = int(echo["head_dim"])
        self.n_layers = int(echo["n_layers"])
        self.instance_norm = echo.get("instance_norm", "true") == "true"
        self.eps = float(echo.get("instance_norm_eps", "1e-05"))
        self.periods = np.exp(arrays["trope.log_periods"].reshape(-1))

    @classmethod
    def load(cls, path) -> "ReferenceModel":
        return cls(*read_checkpoint(path))

    def _vec(self, name: str) -> np.ndarray:
        return self.a[name].reshape(-1)

    def _block(self, h: np.ndarray, i: int, n_context: int) -> np.ndarray:
        pre = f"backbone.{i}."
        b, n, _ = h.shape
        x = _layer_norm(h, self._vec(pre + "ln1.gain"), self._vec(pre + "ln1.bias"))
        heads = []
        for j in range(self.n_heads):
            q = _rotate(x @ self.a[f"{pre}head{j}.wq"], self.periods)
            k = _rotate(x @ self.a[f"{pre}head{j}.wk"], self.periods)[:, :n_context]
            v = (x @ self.a[f"{pre}head{j}.wv"])[:, :n_context]
            scores = q @ k.transpose(0, 2, 1) / math.sqrt(self.head_dim)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append((e / e.sum(axis=-1, keepdims=True)) @ v)
        h = h + np.concatenate(heads, axis=-1) @ self.a[pre + "wo"]
        x = _layer_norm(h, self._vec(pre + "ln2.gain"), self._vec(pre + "ln2.bias"))
        hidden = _gelu(x @ self.a[pre + "ffn.w1"] + self._vec(pre + "ffn.b1"))
        return h + hidden @ self.a[pre + "ffn.w2"] + self._vec(pre + "ffn.b2")

    def forecast(self, contexts: np.ndarray, horizon: int) -> np.ndarray:
        """(B, L) contexts to (B, horizon) forecasts on the input scale."""
        contexts = np.asarray(contexts, dtype=np.float64)
        b, length = contexts.shape
        if self.instance_norm:
            offset = contexts.mean(axis=1, keepdims=True)
            scale = contexts.std(axis=1, keepdims=True) + self.eps
        else:
            offset, scale = np.zeros((b, 1)), np.ones((b, 1))
        normed = (contexts - offset) / scale
        total = np.zeros((b, horizon))
        for p in self.patch_sizes:
            n_c = -(-length // p)
            n_h = -(-horizon // p)
            padded = np.zeros((b, (n_c + n_h) * p))
            padded[:, n_c * p - length : n_c * p] = normed
            patches = padded.reshape(b, n_c + n_h, p)
            pre = f"size{p}."
            hidden = _gelu(patches @ self.a[pre + "enc.w1"] + self._vec(pre + "enc.b1"))
            h = hidden @ self.a[pre + "enc.w2"] + self._vec(pre + "enc.b2")
            for i in range(self.n_layers):
                h = self._block(h, i, n_c)
            hidden = _gelu(h[:, n_c:] @ self.a[pre + "dec.w1"] + self._vec(pre + "dec.b1"))
            dec = hidden @ self.a[pre + "dec.w2"] + self._vec(pre + "dec.b2")
            total += dec.reshape(b, n_h * p)[:, :horizon]
        return total / len(self.patch_sizes) * scale + offset


def nmae(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.sum(np.abs(actual - predicted)) / np.sum(np.abs(actual)))


def nrmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.sqrt(np.mean((actual - predicted) ** 2)) / np.mean(np.abs(actual)))


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want|."""
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))
