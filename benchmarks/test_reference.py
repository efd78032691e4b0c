"""The benchmark's plain-numpy reference agrees with ``forward_batch``."""

import os

# Pin math-library thread pools before numpy loads, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import reference
from elastst.backbone import AttentionConfig
from elastst.model import ElasTSTConfig, ModelState, forward_batch, write_checkpoint
from elastst.trope import PeriodSpec

REL_TOL = 1e-11


def tiny_state(instance_norm=True, seed=3):
    config = ElasTSTConfig(
        patch_sizes=(2, 5),
        period_spec=PeriodSpec(p_min=1.0, p_max=50.0, head_dim=4),
        attention=AttentionConfig(d_model=8, n_heads=2, head_dim=4, d_ff=12, n_layers=2),
        lookback=11,
        instance_norm=instance_norm,
    )
    state = ModelState.init(config, seed=seed)
    # move the periods off their initial grid so the checkpoint's values matter
    state.periods.log_periods.data += np.array([0.3, -0.2])
    return state


@pytest.mark.parametrize("instance_norm", [True, False])
@pytest.mark.parametrize("horizon", [1, 4, 13])
def test_reference_matches_forward_batch(tmp_path, instance_norm, horizon):
    state = tiny_state(instance_norm)
    path = tmp_path / "tiny.ckpt"
    write_checkpoint(path, state)
    contexts = np.random.default_rng(horizon).normal(2.0, 3.0, (5, 11))
    want = forward_batch(state, contexts, horizon).values
    got = reference.ReferenceModel.load(path).forecast(contexts, horizon)
    assert got.shape == want.shape
    assert reference.relative_error(got, want) <= REL_TOL


def test_reference_reads_every_block(tmp_path):
    state = tiny_state()
    path = tmp_path / "tiny.ckpt"
    write_checkpoint(path, state, extra_echo={"epoch": "3"}, extra_arrays=[("opt.m.x", np.ones(2))])
    echo, arrays = reference.read_checkpoint(path)
    assert echo["epoch"] == "3"
    for name, tensor in state.parameters():
        np.testing.assert_array_equal(arrays[name].reshape(tensor.data.shape), tensor.data)
    np.testing.assert_array_equal(arrays["opt.m.x"], np.ones((1, 2)))
