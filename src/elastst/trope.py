"""Rotary position embedding with learnable period coefficients.

Each pair of embedding dimensions rotates by angle 2*pi*t / P_j at patch
index t. The periods P_j are initialized on an exponential grid between a
minimum and maximum period and are trained along with the rest of the
model. They are stored as natural logs so that any real-valued gradient
update keeps every period strictly positive. Rotation multiplies by
interleaved (N, d) cos and sin tables, with the bytes of the per-pair
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import DimensionError, ParameterError
from .numerics import Tensor

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PeriodSpec:
    """Initialization range for the period coefficients of one head dim."""

    p_min: float
    p_max: float
    head_dim: int

    def __post_init__(self):
        if not (0.0 < self.p_min < self.p_max < math.inf):
            raise ParameterError(f"need 0 < p_min < p_max < inf, got {self.p_min}, {self.p_max}")
        if self.head_dim < 4 or self.head_dim % 2 != 0:
            raise ParameterError(f"head_dim must be even and >= 4, got {self.head_dim}")


class TunablePeriods:
    """The d/2 learnable period coefficients, stored as natural logs."""

    def __init__(self, log_periods: Tensor):
        if log_periods.data.ndim != 1:
            raise DimensionError(f"log_periods must be 1-D, got shape {log_periods.data.shape}")
        self.log_periods = log_periods

    @property
    def half_dim(self) -> int:
        return self.log_periods.data.shape[0]

    def periods(self) -> np.ndarray:
        """Current period values P_j = exp(log P_j)."""
        return np.exp(self.log_periods.data)


def init_periods(spec: PeriodSpec) -> TunablePeriods:
    """Exponentially spaced periods: P_j = p_min * exp(2*alpha*(j-1)) with
    alpha = ln(p_max/p_min) / (d-2), i.e. log-periods linearly spaced from
    ln(p_min) to ln(p_max) inclusive (both endpoints exact in log space)."""
    logs = np.linspace(math.log(spec.p_min), math.log(spec.p_max), spec.head_dim // 2)
    return TunablePeriods(Tensor(logs, requires_grad=True))


def _swap_pairs(a: np.ndarray) -> np.ndarray:
    """``a`` with each (a_{2j-1}, a_{2j}) pair of its last axis swapped, laid out like ``a``."""
    out = np.empty_like(a)
    out[..., 0::2] = a[..., 1::2]
    out[..., 1::2] = a[..., 0::2]
    return out


def rotate(x: Tensor, positions, periods: TunablePeriods) -> Tensor:
    """Rotate each (x_{2j-1}, x_{2j}) pair by 2*pi*t / P_j.

    ``x`` is (..., N, d) with one position per row along the
    second-to-last axis. Differentiable in both ``x`` and the log-periods.
    """
    xd = x.data
    logp = periods.log_periods
    half = periods.half_dim
    if xd.shape[-1] != 2 * half:
        raise DimensionError(f"rotate needs last dim {2 * half}, got shape {xd.shape}")
    pos = np.asarray(positions, dtype=np.float64)
    if xd.ndim < 2 or pos.shape != (xd.shape[-2],):
        raise DimensionError(f"positions {pos.shape} do not match input shape {xd.shape}")
    pair_shape = xd.shape[:-1] + (half, 2)

    ang = TWO_PI * (pos[:, None] / np.exp(logp.data))  # (N, half)
    c = np.cos(ang)
    s = np.sin(ang)
    # interleaved (N, d) tables: y = x cc + swap(x) ss has the bytes of the
    # pair formulas, since x1 (-s) is -(x1 s) and a + (-b) is a - b; only a
    # NaN from non-finite input may come out with the other sign bit
    cc = c.repeat(2, axis=1)
    ss = s.repeat(2, axis=1)
    np.negative(s, out=ss[:, 0::2])
    y = np.multiply(xd, cc, out=np.empty_like(xd))  # laid out like x, as later reductions expect
    t = _swap_pairs(xd)
    t *= ss
    y += t
    out = Tensor(y)
    xn, ln = x.node, logp.node

    def backward_fn(g: np.ndarray) -> None:
        if xn.requires_grad:  # g cc - swap(g) ss
            dx = np.multiply(g, cc, out=np.empty_like(g))
            t = _swap_pairs(g)
            t *= ss
            dx -= t
            nm._accum(xn, dx)
        if ln.requires_grad:
            gp, yp = g.reshape(pair_shape), y.reshape(pair_shape)
            g0, g1 = gp[..., 0], gp[..., 1]
            dphi = g1 * yp[..., 0] - g0 * yp[..., 1]
            nm._accum(ln, -(dphi * ang).reshape(-1, half).sum(axis=0))

    return nm.record_op(out, (x, logp), backward_fn)
