"""End-to-end finite-difference verification on a deliberately tiny model.

The configuration is small enough that perturbing every scalar parameter
twice stays fast, yet it exercises every parameter group: both coder
stacks, attention (queries, keys, values, output), layer norms, the FFN,
and the rotary log-periods.
"""

from __future__ import annotations

import numpy as np

from .backbone import AttentionConfig
from .model import ElasTSTConfig, ModelState, composite_loss, forward_batch
from .numerics import finite_diff_report
from .training import reweight_vector
from .trope import PeriodSpec

TINY_LOOKBACK = 16
TINY_HORIZON = 16


def tiny_config() -> ElasTSTConfig:
    return ElasTSTConfig(
        patch_sizes=(4, 8),
        period_spec=PeriodSpec(p_min=1.0, p_max=1000.0, head_dim=8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=32, n_layers=1),
        lookback=TINY_LOOKBACK,
    )


def tiny_report(seed: int = 0) -> dict[str, float]:
    """Max relative gradient error per parameter group on the tiny model."""
    state = ModelState.init(tiny_config(), seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    context = rng.uniform(-2.0, 2.0, TINY_LOOKBACK)
    target = rng.uniform(-2.0, 2.0, TINY_HORIZON)
    weights = reweight_vector(TINY_HORIZON, "log-approx")

    def loss():
        forecast = forward_batch(state, context[None, :], TINY_HORIZON)
        return composite_loss(forecast, target, weights)

    return finite_diff_report(loss, state.trainable())
