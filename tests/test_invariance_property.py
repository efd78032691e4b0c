"""Property test: the forecast at horizon H0 is, bit for bit, the first H0
steps of the forecast at any longer horizon H, for random small models."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastst.backbone import AttentionConfig
from elastst.model import ElasTSTConfig, ModelState, forward_batch
from elastst.trope import PeriodSpec

PATCH_SIZES = (1, 2, 3, 5, 8, 16, 32)


@st.composite
def cases(draw):
    sizes = tuple(draw(st.lists(st.sampled_from(PATCH_SIZES), min_size=1, max_size=3, unique=True)))
    largest = max(sizes)
    if largest == 1:
        lookback = draw(st.integers(1, 40))
    else:  # never a multiple of the largest patch size
        lookback = draw(st.integers(0, 2)) * largest + draw(st.integers(1, largest - 1))
    short = draw(st.integers(1, 64))
    long = draw(st.integers(short + 1, 2048))
    return {
        "sizes": sizes,
        "lookback": lookback,
        "batch": draw(st.integers(1, 4)),
        "short": short,
        "long": long,
        "n_layers": draw(st.integers(1, 2)),
        "n_heads": draw(st.integers(1, 2)),
        "instance_norm": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def run_case(case):
    config = ElasTSTConfig(
        patch_sizes=case["sizes"],
        period_spec=PeriodSpec(1.0, 200.0, 4),
        attention=AttentionConfig(
            d_model=8, n_heads=case["n_heads"], head_dim=4, d_ff=12, n_layers=case["n_layers"]
        ),
        lookback=case["lookback"],
        instance_norm=case["instance_norm"],
    )
    state = ModelState.init(config, seed=case["seed"])
    rng = np.random.default_rng(case["seed"])
    contexts = rng.normal(1.0, 2.0, (case["batch"], case["lookback"]))
    short = forward_batch(state, contexts, case["short"]).values
    long = forward_batch(state, contexts, case["long"]).values
    assert long.shape == (case["batch"], case["long"])
    assert np.array_equal(long[:, : case["short"]], short)


BASE = dict(n_layers=2, n_heads=2, instance_norm=True, seed=0)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(cases())
@example(dict(BASE, sizes=(1, 8, 32), lookback=13, batch=1, short=1, long=2048))
@example(dict(BASE, sizes=(3, 5), lookback=7, batch=1, short=1, long=2))
def test_forecast_prefix_is_horizon_invariant(case):
    run_case(case)
