"""Test-only ops and oracles: code that only tests call.

* ``mean``, a tape op that reduces a tensor to the scalar head of a
  gradient check;
* ``finite_diff_check``, the worst relative error of
  ``numerics.finite_diff_report`` over all parameters;
* ``relative_score``, criterion 3's inner product of two rotated vectors;
* ``expected_weight_oracle``, criterion 6's Monte Carlo estimate of the
  expected loss weight, independent of the harmonic computation.
"""

import math

import numpy as np

from elastst.errors import DimensionError, ParameterError
from elastst.numerics import Tensor, _accum, finite_diff_report, record_op
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

    ``f`` evaluates the scalar loss from the current contents of ``params``.
    Relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    return max(finite_diff_report(f, [(str(i), p) for i, p in enumerate(params)]).values())


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
