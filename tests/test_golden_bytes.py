"""Golden bytes: sha256 digests of what the engine computes.

A change that is meant to keep every byte (a refactor, a new code path
for the same products) must leave these digests as they are. They cover
the forward values at short and long horizons with both key modes, the
H=96 composite loss and every parameter gradient, the checkpoint and
training log of a short CLI run, and a varied-horizon evaluation report.

``GRADIENTS`` was re-recorded when the last encoder layer stopped
computing its context rows (they are keys and values there, never
queries). Every forward value, the loss and the other digests kept their
bytes. Seven gradient blocks moved by at most 9.7e-16 relative: the last
layer's ``wq`` (each head), ``wo``, ``ffn.w1`` and ``ffn.w2``. Their
X^T·G products now sum over the placeholder rows alone; the dropped
context rows added exact zeros, but the BLAS splits the shorter sum
differently. ``test_gradient_change_is_confined_to_the_last_layer``
pins that scope.

The digests were taken with numpy 2.4 on OpenBLAS 0.3.31, one BLAS
thread. Another BLAS, or another version of this one, may give other
bytes for the same GEMM calls; on such a machine these digests do not
hold, and a failure there says nothing about the code.
"""

import hashlib

import numpy as np
import pytest

import elastst.backbone as backbone
import elastst.model as model
import elastst.numerics as nm
from conftest import make_sinusoid_values, write_csv
from elastst.backbone import AttentionConfig
from elastst.cli import main
from elastst.data_io import Scaler
from elastst.evaluation import varied_horizon_eval
from elastst.model import ElasTSTConfig, ModelState, composite_loss, forward_batch
from elastst.numerics import Graph, backward
from elastst.training import reweight_vector
from elastst.trope import PeriodSpec

FORWARD = {
    (1, True): "16a91c6fde99507d0471a7b125500382ded54cca46e80e2bd835c62552d78009",
    (1, False): "072116cc99576052f64cc0af2bbccd43c70dd968c06e2bd6a746c0b35a78ae5e",
    (7, True): "77e787870c03f17e641ca21b6ce4c9db82f4dcdf0872a7c902fec8ebb17ba72e",
    (7, False): "394f7990272f8a463ee0db4b4fcba32a4d48ed8b8579728ae02e5bbcf7621fc1",
    (96, True): "885cbfc452cd510a54165ccac68a1f8328e68af9fcb64a994409d557086f410a",
    (96, False): "cb9efe0c77ca9acf7658c5f36545da2710d2595e1cc2edb6fac2325c3e25bb20",
    (720, True): "e3b5d2d826c7c5cb6d0940d48ee12ddbef656746b7eaa395218b50f6ebdad3e6",
    (720, False): "fdb4c54f7bab98bc782034151e132356bf35f249462a9b6f28f81581f21e4709",
    (1024, True): "4712ba259b4ed9ee0f1768ae42132ba7f311e77f4e79a97cac8cfce623842ee7",
    (1024, False): "ff822e0b6b8bfcfdd994bbb9bca64a3ff8649edee4efb29dba8d28c0f1f71dce",
}
LOSS = "427ebaf9dfe80a312656da9e4a3e5a51ffd1183d41f1af3f3c95aab160426bc0"
GRADIENTS = "f5145b4323ddeccb0be85e5f4a2fd739c3bbba45da775cd15698c4e4a174381f"
CLI_CHECKPOINT = "463d9fe003b1fceb6ee3cb321b5b832d16c859476294fb0e44e092c6367fd0a8"
CLI_LOG = "05a8029f564491e2699efe01395348135ef4be714cace7b97c6cbf52d25a76f8"
EVALUATION = "dd74cd92a09c1bd0bc5e72f498868398f22107798a331e42e976dc27aebab917"


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def state():
    config = ElasTSTConfig(
        patch_sizes=(8, 16, 32),
        period_spec=PeriodSpec(p_min=1.0, p_max=1000.0, head_dim=16),
        attention=AttentionConfig(d_model=64, n_heads=4, head_dim=16, d_ff=128, n_layers=2),
        lookback=96,
    )
    return ModelState.init(config, seed=3)


@pytest.fixture(scope="module")
def contexts():
    return np.random.default_rng(np.random.SeedSequence(0)).standard_normal((32, 96))


@pytest.mark.parametrize("horizon, use_key_mask", list(FORWARD))
def test_forward_values(state, contexts, horizon, use_key_mask):
    values = forward_batch(state, contexts, horizon, use_key_mask=use_key_mask).values
    assert sha256(values) == FORWARD[horizon, use_key_mask]


def forward_loss_and_gradients(state, contexts):
    """H=96 forward values, composite loss and every gradient by name."""
    targets = np.random.default_rng(np.random.SeedSequence(1)).standard_normal((32, 96))
    weights = np.broadcast_to(reweight_vector(96) / 32, targets.shape)
    for _, p in state.parameters():
        p.grad = None
    with Graph():
        forecast = forward_batch(state, contexts, 96)
        loss = composite_loss(forecast, targets, weights)
    backward(loss)
    grads = {name: p.grad for name, p in state.parameters()}
    for _, p in state.parameters():
        p.grad = None
    return forecast.values, loss.data, grads


def test_loss_and_every_gradient(state, contexts):
    _, loss, grads = forward_loss_and_gradients(state, contexts)
    assert sha256(loss) == LOSS
    assert sha256(*[chunk for name, g in grads.items() for chunk in (name.encode(), g)]) == GRADIENTS


def test_gradient_change_is_confined_to_the_last_layer(state, contexts, monkeypatch):
    """Against a last layer that computes every row and then slices (the
    arithmetic before queries started at the first placeholder row), only
    the last layer's query-side weight gradients may move, and only by
    rounding."""
    values, loss, grads = forward_loss_and_gradients(state, contexts)

    def every_row_then_slice(h, n_keys, periods, weights, first_query=0):
        out = backbone.transformer_block(h, n_keys, periods, weights)
        return nm.slice_axis(out, 1, first_query, h.data.shape[1])

    monkeypatch.setattr(model, "transformer_block", every_row_then_slice)
    old_values, old_loss, old_grads = forward_loss_and_gradients(state, contexts)
    assert sha256(values) == sha256(old_values)
    assert sha256(loss) == sha256(old_loss)

    last = len(state.layers) - 1
    heads = state.config.attention.n_heads
    moved = {f"backbone.{last}.{n}" for n in ["wo", "ffn.w1", "ffn.w2"] + [f"head{i}.wq" for i in range(heads)]}
    for name, g in grads.items():
        if name in moved:
            assert np.max(np.abs(g - old_grads[name])) <= 1e-14 * np.max(np.abs(old_grads[name])), name
        else:
            assert sha256(g) == sha256(old_grads[name]), name


def test_cli_training_run(tmp_path):
    csv_path = write_csv(tmp_path / "series.csv", make_sinusoid_values(n_steps=400, n_variates=2, seed=9))
    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"data.path={csv_path}",
                "data.split=0.7,0.15,0.15",
                "model.patch_sizes=4,8",
                "model.d_model=16",
                "model.n_heads=2",
                "model.head_dim=8",
                "model.d_ff=24",
                "model.n_layers=1",
                "model.lookback=16",
                "train.t_max=16",
                "train.epochs=3",
                "train.batches_per_epoch=4",
                "train.batch_size=4",
                "train.seed=0",
                f"out.checkpoint={tmp_path / 'model.ckpt'}",
                f"out.log={tmp_path / 'train_log.csv'}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["train", "--config", str(config)]) == 0
    log = (tmp_path / "train_log.csv").read_text(encoding="utf-8").splitlines()
    without_wall = "\n".join(line.rsplit(",", 1)[0] for line in log)
    assert sha256((tmp_path / "model.ckpt").read_bytes()) == CLI_CHECKPOINT
    assert sha256(without_wall.encode()) == CLI_LOG


def test_varied_horizon_report(state):
    raw = make_sinusoid_values(n_steps=1600, n_variates=2, seed=5)
    scaler = Scaler.fit(raw)
    report = varied_horizon_eval(state, scaler.transform(raw), 96, [96, 192, 336, 720, 1024], scaler, stride=48)
    assert sha256(report.to_csv().encode()) == EVALUATION
