"""Training walks the horizon in aligned step blocks, one tape per block.

Against the same step run as one block (``STEP_BLOCK`` at least the
horizon, which is the whole tape): a step that fits in one block gives its
loss and every gradient byte for byte, and one over several blocks moves
them by rounding only. The finite-difference check holds over two
blocks, and a step's memory does not grow with the horizon past one block.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastst import gradcheck, model, training
from elastst.backbone import AttentionConfig
from elastst.errors import ParameterError
from elastst.model import ElasTSTConfig, ModelState, step_blocks
from elastst.training import REWEIGHT_MODES, reweight_vector, step_gradients
from elastst.trope import PeriodSpec

PATCH_SIZES = (1, 2, 3, 4, 8)


@st.composite
def cases(draw):
    sizes = tuple(draw(st.lists(st.sampled_from(PATCH_SIZES), min_size=1, max_size=3, unique=True)))
    block = math.lcm(*sizes) * draw(st.integers(1, 2))
    n_blocks = draw(st.integers(1, 4))
    edge = block * n_blocks  # one above it starts one more block, unless that makes five
    near_edge = st.sampled_from((edge - 1, edge) if n_blocks == 4 else (edge - 1, edge, edge + 1))
    return {
        "sizes": sizes,
        "block": block,
        "t_max": max(1, draw(st.one_of(near_edge, st.integers(edge - block + 1, edge)))),
        "batch": draw(st.integers(1, 4)),
        "lookback": draw(st.integers(1, 20)),
        "n_layers": draw(st.integers(1, 2)),
        "mode": draw(st.sampled_from(REWEIGHT_MODES)),
        "instance_norm": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def loss_and_gradients(case, block):
    """One ``step_gradients`` call on ``case`` with ``STEP_BLOCK = block``:
    the loss and each leaf's gradient (zeros where none reached it)."""
    config = ElasTSTConfig(
        patch_sizes=case["sizes"],
        period_spec=PeriodSpec(1.0, 200.0, 4),
        attention=AttentionConfig(d_model=8, n_heads=2, head_dim=4, d_ff=12, n_layers=case["n_layers"]),
        lookback=case["lookback"],
        instance_norm=case["instance_norm"],
    )
    state = ModelState.init(config, seed=case["seed"])
    rng = np.random.default_rng(case["seed"])
    contexts = rng.normal(1.0, 2.0, (case["batch"], case["lookback"]))
    targets = rng.normal(1.0, 2.0, (case["batch"], case["t_max"]))
    weights = reweight_vector(case["t_max"], case["mode"], rng) / case["batch"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "STEP_BLOCK", block)
        loss = step_gradients(state, contexts, targets, weights)
    return loss, [np.zeros_like(t.data) if t.grad is None else t.grad for _, t in state.trainable()]


BASE = dict(batch=2, lookback=11, n_layers=2, instance_norm=True, seed=3)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(cases())
@example(dict(BASE, sizes=(3, 8), block=24, t_max=24, mode="log-approx"))
@example(dict(BASE, sizes=(3, 8), block=24, t_max=25, mode="exact-harmonic"))
@example(dict(BASE, sizes=(1,), block=1, t_max=4, mode="sampled"))
def test_blocks_move_the_gradients_by_rounding_only(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "STEP_BLOCK", case["block"])
        blocks = step_blocks(case["t_max"], case["sizes"])
    assert 1 <= len(blocks) <= 4 and blocks[0][0] == 0 and blocks[-1][1] == case["t_max"]
    assert all(hi == lo2 and lo % math.lcm(*case["sizes"]) == 0 for (lo, hi), (lo2, _) in zip(blocks, blocks[1:]))
    loss, grads = loss_and_gradients(case, case["block"])
    whole_loss, whole_grads = loss_and_gradients(case, 10**9)  # one block, the whole tape
    if len(blocks) == 1:
        assert loss == whole_loss
        assert all(g.tobytes() == w.tobytes() for g, w in zip(grads, whole_grads))
    else:
        assert abs(loss - whole_loss) <= 1e-15 * abs(whole_loss)
        for g, w in zip(grads, whole_grads):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_step_blocks_align_to_every_patch_size():
    assert step_blocks(720, (8, 16, 32)) == [(0, 256), (256, 512), (512, 720)]
    assert step_blocks(96, (8, 16, 32)) == [(0, 96)]
    assert step_blocks(600, (3, 8)) == [(0, 240), (240, 480), (480, 600)]
    assert step_blocks(700, (7, 9, 5)) == [(0, 315), (315, 630), (630, 700)]  # the lcm is above STEP_BLOCK


def test_forward_batch_refuses_steps_that_split_a_patch():
    config = ElasTSTConfig((4, 8), PeriodSpec(1.0, 100.0, 8), AttentionConfig(16, 2, 8, 24, 1), 16)
    state = ModelState.init(config)
    contexts = np.zeros((2, 16))
    for steps in ((4, 16), (0, 17), (8, 8), (-8, 8)):
        with pytest.raises(ParameterError, match="multiple of every patch size"):
            model.forward_batch(state, contexts, 16, steps=steps)
    whole = model.forward_batch(state, contexts, 16).values
    assert np.array_equal(model.forward_batch(state, contexts, 16, steps=(8, 16)).values, whole[:, 8:])


def test_gradcheck_over_two_blocks(monkeypatch):
    """``elastst gradcheck``'s tiny model, its horizon of 16 in two blocks of 8."""
    monkeypatch.setattr(model, "STEP_BLOCK", 8)
    calls = []
    real_backward = training.backward
    monkeypatch.setattr(training, "backward", lambda loss: calls.append(1) or real_backward(loss))
    report = gradcheck.tiny_report(seed=0)
    assert len(calls) == 2
    assert max(report.values()) < 1e-4, report


def step_peak_mib(state, t_max: int) -> float:
    """The tracemalloc peak of one B=32 ``step_gradients`` call at ``t_max``."""
    rng = np.random.default_rng(t_max)
    contexts, targets = rng.standard_normal((32, 96)), rng.standard_normal((32, t_max))
    weights = reweight_vector(t_max) / 32
    for _, t in state.trainable():
        t.grad = None
    tracemalloc.start()
    try:
        step_gradients(state, contexts, targets, weights)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_step_memory_does_not_grow_with_the_horizon():
    """On the acceptance-shaped model a step held the whole horizon's tape:
    63.6 MiB at ``t_max`` 720 and 226.7 MiB at 2880. In blocks of 256 steps
    it peaks at about 29 MiB at both."""
    config = ElasTSTConfig(
        patch_sizes=(8, 16, 32),
        period_spec=PeriodSpec(1.0, 1000.0, 16),
        attention=AttentionConfig(d_model=64, n_heads=4, head_dim=16, d_ff=128, n_layers=2),
        lookback=96,
    )
    state = ModelState.init(config, seed=3)
    at_720, at_2880 = step_peak_mib(state, 720), step_peak_mib(state, 2880)
    assert abs(at_2880 - at_720) <= 2.0, (at_720, at_2880)
    assert at_2880 <= 36.0, at_2880
