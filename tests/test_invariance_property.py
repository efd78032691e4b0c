"""Property tests: the forecast at horizon H0 is, bit for bit, the first H0
steps of the forecast at any longer horizon H, for random small models; the
forecast equals, bit for bit, that of the every-row reference forward,
however many placeholder rows each chunk of the stream holds; a horizon
forecast range by range, each range continuing from the previous range's
forecast, gives the one-call forecast bit for bit; and a block fed one
shared placeholder row gives, bit for bit, what it gives for that row
repeated in every window and position."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastst import model
from elastst.backbone import AttentionConfig, LayerWeights, transformer_block
from elastst.errors import ParameterError
from elastst.model import ElasTSTConfig, ModelState, composite_loss, forward_batch
from elastst.numerics import Graph, Tensor
from elastst.trope import PeriodSpec, init_periods
from every_row import every_row_forward

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


@st.composite
def oracle_cases(draw):
    return {
        "sizes": tuple(draw(st.lists(st.sampled_from(PATCH_SIZES), min_size=1, max_size=3, unique=True))),
        "lookback": draw(st.integers(1, 70)),
        "batch": draw(st.integers(1, 3)),
        "horizon": draw(st.integers(1, 100)),
        "n_layers": draw(st.integers(1, 3)),
        "n_heads": draw(st.integers(1, 2)),
        "instance_norm": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


ORACLE = dict(n_heads=2, instance_norm=True, seed=1)


def oracle_state(case):
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
    contexts = np.random.default_rng(case["seed"]).normal(1.0, 2.0, (case["batch"], case["lookback"]))
    return state, contexts


@settings(deadline=None, max_examples=150, derandomize=True)
@given(oracle_cases())
@example(dict(ORACLE, sizes=(8, 32), lookback=13, batch=1, horizon=5, n_layers=1))
@example(dict(ORACLE, sizes=(3, 16), lookback=20, batch=3, horizon=2, n_layers=2))
@example(dict(ORACLE, sizes=(5,), lookback=7, batch=1, horizon=40, n_layers=3))
def test_forecast_equals_the_every_row_forward(case):
    state, contexts = oracle_state(case)
    args = (state, contexts, case["horizon"])
    assert np.array_equal(forward_batch(*args).values, every_row_forward(*args).values)


CHUNK_ROWS = (1, 2, 3, 7, 16, 1024, 10**9)


def values_and_loss(state, contexts, horizon):
    """Forecast values and the composite loss's bytes, computed on a tape."""
    targets = np.random.default_rng(7).standard_normal((contexts.shape[0], horizon))
    with Graph():
        forecast = forward_batch(state, contexts, horizon)
        loss = composite_loss(forecast, targets, np.full(targets.shape, 1.0 / targets.size))
    return forecast.values, loss.data.tobytes()


@settings(deadline=None, max_examples=40, derandomize=True)
@given(oracle_cases())
@example(dict(ORACLE, sizes=(1, 8), lookback=13, batch=3, horizon=100, n_layers=2))
@example(dict(ORACLE, sizes=(5,), lookback=7, batch=1, horizon=1, n_layers=3))
def test_any_chunk_size_gives_the_same_bytes(case):
    """The placeholder stream holds ``max(1, ROWS // B)`` positions per
    chunk; every chunking, one position at a time included, gives the
    values and loss of the one-chunk run and the every-row forward."""
    state, contexts = oracle_state(case)
    args = (state, contexts, case["horizon"])
    expected = every_row_forward(*args).values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "ROWS", 10**9)
        one_chunk, one_chunk_loss = values_and_loss(*args)
        assert np.array_equal(one_chunk, expected)
        for rows in CHUNK_ROWS:
            patch.setattr(model, "ROWS", rows)
            values, loss = values_and_loss(*args)
            assert np.array_equal(values, one_chunk), rows
            assert loss == one_chunk_loss, rows


@st.composite
def continued_cases(draw):
    """An ``oracle_cases`` model and a horizon split into ranges that start at
    multiples of lcm(patch sizes), the first at 0 and the last ending at H."""
    case = draw(oracle_cases())
    lcm = math.lcm(*case["sizes"])
    blocks = draw(st.integers(0, 4))  # whole multiples of lcm before the last, partial one
    horizon = blocks * lcm + draw(st.integers(1, lcm))
    starts = [0] + [c * lcm for c in range(1, blocks + 1) if draw(st.booleans())]
    return dict(case, horizon=horizon, ranges=list(zip(starts, starts[1:] + [horizon])))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(continued_cases())
@example(dict(ORACLE, sizes=(2, 3), lookback=9, batch=2, horizon=25, n_layers=2, ranges=[(0, 6), (6, 18), (18, 25)]))
@example(dict(ORACLE, sizes=(8,), lookback=5, batch=1, horizon=8, n_layers=1, ranges=[(0, 8)]))
def test_continuing_from_the_previous_forecast_gives_the_same_bytes(case):
    """Without a tape, each range's call reuses the ``encoded`` contexts of
    the call before it; every forecast but the last carries them."""
    state, contexts = oracle_state(case)
    horizon = case["horizon"]
    forecast, parts = None, []
    for lo, hi in case["ranges"]:
        forecast = forward_batch(state, contexts, horizon, forecast, (lo, hi))
        assert (forecast.encoded is None) == (hi == horizon)
        parts.append(forecast.values)
    joined, whole = np.concatenate(parts, axis=1), forward_batch(state, contexts, horizon).values
    assert joined.shape == whole.shape and joined.tobytes() == whole.tobytes()
    with pytest.raises(ParameterError, match="no encoded contexts"):
        forward_batch(state, contexts, horizon, forecast)


@st.composite
def block_cases(draw):
    return {
        "batch": draw(st.integers(1, 4)),
        "n_c": draw(st.integers(1, 20)),
        "start": draw(st.integers(0, 40)),
        "n_h": draw(st.integers(1, 40)),
        "context_rows": draw(st.booleans()),
        "n_heads": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(deadline=None, max_examples=200, derandomize=True)
@given(block_cases())
def test_shared_placeholder_row_gives_the_rows_of_its_copies(case):
    """A chunk of ``n_h`` placeholder positions from ``start`` on, fed one
    shared row or its copies, against the keys of a context pass."""
    config = AttentionConfig(d_model=8, n_heads=case["n_heads"], head_dim=4, d_ff=12, n_layers=1)
    rng = np.random.default_rng(case["seed"])
    weights = LayerWeights(config, rng)
    periods = init_periods(PeriodSpec(1.0, 200.0, 4))
    b, n_c, n_h = case["batch"], case["n_c"], case["n_h"]
    ctx = Tensor(rng.standard_normal((b, n_c, 8)))
    out_ctx, keys = transformer_block(ctx, np.arange(0 if case["context_rows"] else n_c, n_c), periods, weights)
    assert (out_ctx is None) != case["context_rows"]
    row = rng.standard_normal((1, 1, 8))
    positions = np.arange(n_c + case["start"], n_c + case["start"] + n_h)
    shared, _ = transformer_block(Tensor(row), positions, periods, weights, keys)
    copies, _ = transformer_block(Tensor(np.tile(row, (b, n_h, 1))), positions, periods, weights, keys)
    assert shared.data.shape == (b, n_h, 8)
    assert np.array_equal(shared.data, copies.data)
