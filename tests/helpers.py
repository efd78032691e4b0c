"""Test-only ops and oracles: code that only tests call.

* ``mean``, a tape op that reduces a tensor to the scalar head of a
  gradient check;
* ``finite_diff_check``, the worst relative error of
  ``numerics.finite_diff_report`` over all parameters;
* ``relative_score``, criterion 3's inner product of two rotated vectors;
* ``expected_weight_oracle``, criterion 6's Monte Carlo estimate of the
  expected loss weight, independent of the harmonic computation;
* ``timestamp_key_oracle``, a timestamp's key as ``int()`` and then
  ``datetime.fromisoformat()`` read it, with no test before ``int()``;
* ``softmax_oracle``, ``rotate_oracle`` and ``inverse_axes_oracle``, the
  earlier formulas of the softmax, rotary and transpose kernels, which the
  kernels must match byte for byte;
* ``reweight_oracle``, the earlier per-position loss weight, which
  ``training.reweight_vector`` must match byte for byte.
"""

import math
from datetime import datetime

import numpy as np

from elastst.errors import DimensionError, ParameterError
from elastst.numerics import Graph, Tensor, _accum, backward, finite_diff_report, record_op
from elastst.training import _harmonic_suffix_weights
from elastst.trope import TunablePeriods, rotate


def mean(x: Tensor) -> Tensor:
    """Mean of all entries."""
    n = x.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    out = Tensor(np.sum(x.data) / n)
    xn, shape = x.node, x.data.shape

    def backward_fn(g: np.ndarray) -> None:
        _accum(xn, np.full(shape, float(g) / n))

    return record_op(out, (x,), backward_fn)


def finite_diff_check(f, params) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` evaluates the scalar loss tensor from the current contents of
    ``params``; the analytic side is one recorded ``f()`` and its backward.
    Relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """

    def step():
        with Graph():
            loss = f()
        if loss.graph is not None:  # a loss independent of every parameter records nothing
            backward(loss)

    named = [(str(i), p) for i, p in enumerate(params)]
    return max(finite_diff_report(lambda: float(f().data), named, step).values())


def relative_score(q, k, m: float, n: float, periods: TunablePeriods) -> float:
    """Inner product of q and k rotated by ``rotate`` to positions m and n; depends on m - n only."""
    qv = np.asarray(q, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    d = 2 * periods.half_dim
    if qv.shape != (d,) or kv.shape != (d,):
        raise DimensionError(f"relative_score needs ({d},) vectors, got {qv.shape} and {kv.shape}")
    qr, kr = (rotate(Tensor(v[None, :]), [t], periods).data[0] for v, t in ((qv, m), (kv, n)))
    return float(np.dot(qr, kr))


def expected_weight_oracle(tau: int, t_max: int, n_samples: int, seed: int = 0, return_se: bool = False):
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


def timestamp_key_oracle(text: str):
    """An int, a datetime, or None, as ``data_io.timestamp_key`` must return."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def softmax_oracle(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis with the row max from ``np.max``, and
    the input gradient for the output gradient ``g``."""
    y = x - np.max(x, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    gy = g * y
    inner = np.sum(gy, axis=-1, keepdims=True)
    dx = np.subtract(g, inner, out=gy)
    dx *= y
    return y, dx


def rotate_oracle(x: np.ndarray, positions, log_periods: np.ndarray, g: np.ndarray):
    """Rotation of (..., N, d) ``x`` by the per-pair formulas, and the
    x-gradient and log-period gradient for the output gradient ``g``."""
    half = log_periods.shape[0]
    pair_shape = x.shape[:-1] + (half, 2)
    ang = 2.0 * math.pi * (np.asarray(positions, dtype=np.float64)[:, None] / np.exp(log_periods))
    c = np.cos(ang)
    s = np.sin(ang)
    xp = x.reshape(pair_shape)
    yp = np.empty_like(xp)
    yp[..., 0] = xp[..., 0] * c - xp[..., 1] * s
    yp[..., 1] = xp[..., 0] * s + xp[..., 1] * c
    gp = g.reshape(pair_shape)
    g0, g1 = gp[..., 0], gp[..., 1]
    dx = np.empty_like(gp)
    dx[..., 0] = g0 * c + g1 * s
    dx[..., 1] = -g0 * s + g1 * c
    dphi = g1 * yp[..., 0] - g0 * yp[..., 1]
    dlogp = -(dphi * ang).reshape(-1, half).sum(axis=0)
    return yp.reshape(x.shape), dx.reshape(x.shape), dlogp


def inverse_axes_oracle(axes) -> tuple[int, ...]:
    """The permutation that undoes ``axes``."""
    return tuple(np.argsort(axes))


def reweight_oracle(tau: int, t_max: int, mode: str, t_s: int | None = None) -> float:
    """Loss weight for forecast position ``tau`` (1-based) under ``mode``;
    ``sampled`` needs the drawn horizon ``t_s`` of the step."""
    if mode == "log-approx":
        return (math.log(t_max) - math.log(tau)) / t_max
    if mode == "exact-harmonic":
        return _harmonic_suffix_weights(t_max)[tau - 1]
    if mode == "fixed-uniform":
        return 1.0 / t_max
    if mode == "sampled":
        return 1.0 / t_s if tau <= t_s else 0.0
    raise ParameterError(f"unknown reweight mode {mode!r}")
