"""Golden bytes: sha256 digests of what the engine computes.

A change that is meant to keep every byte (a refactor, a new code path
for the same products) must leave these digests as they are. They cover
the forward values at short and long horizons with both key modes, the
H=96 composite loss and every parameter gradient, the checkpoint and
training log of a short CLI run, and a varied-horizon evaluation report.
The masked values come from ``forward_batch``. The unmasked ones, every
placeholder a key too, come from ``every_row_forward(...,
use_key_mask=False)`` in ``every_row.py``, the only unmasked forward; its
digests are the bytes ``forward_batch`` gave when it had that switch.

``GRADIENTS`` was re-recorded when the last encoder layer stopped
computing its context rows (they are keys and values there, never
queries): seven last-layer blocks moved by at most 9.7e-16 relative.

``GRADIENTS``, ``CLI_CHECKPOINT`` and ``CLI_LOG`` were re-recorded once
more when context and placeholder rows started to take separate paths
through the stack, the placeholders entering as one encoded zero patch
per size. Every forward value, the loss and the evaluation report kept
their bytes. Gradients moved by rounding only, at most 1.5e-15 relative,
where weight gradients now sum over context rows and placeholder rows in
separate products: the encoders, every layer but the last, the last
layer's ``ln1`` and the rotary periods.
``test_gradients_move_by_rounding_only`` pins that scope against the
every-row reference forward in ``every_row.py``. The CLI run's log moved
in the last digit of two values (epoch 1 ``val_nmae`` and epoch 3
``train_loss``).

``GRADIENTS`` was re-recorded once more when the forward pass split into
a context pass through every layer and a chunked placeholder stream after
it. Forward values, the loss, the evaluation report and the CLI run kept
their bytes. A weight that both passes use now receives the placeholder
rows' contribution before the context rows' for each patch size, so its
six contributions sum in another order: layer 0's ``wo``, ``ln2`` and FFN
moved by at most 2.2e-16 relative (on a 3-layer model also layer 1's
``wq``, ``wo``, ``ln2`` and FFN and the rotary periods). The decoders and the last layer's blocks
but ``ln1`` still keep the bytes of the every-row reference forward.

Each layer's query, key and value maps are now one fused weight each.
``forward_loss_and_gradients`` maps their gradients through
``ModelState.blocks``, the mapping the checkpoint writer uses, to the
per-head column blocks, so the names and bytes hashed are the per-head
ones and ``GRADIENTS`` did not change: every gradient element kept its
bytes.

Training walks the horizon in step blocks of ``model.STEP_BLOCK`` steps
(256 here), each on a tape of its own. Every digest pins the one-block
step, which is the whole tape byte for byte: the H=96 loss and gradients
and the CLI run at ``t_max`` 16 each fit in one block, and
``test_the_one_block_training_step_gives_these_bytes`` takes ``LOSS`` and
``GRADIENTS`` from the step training calls. A step over several blocks
adds its gradients in another order and moves them by rounding only
(``test_step_blocks.py``).

The digests were taken with numpy 2.4.6 and OpenBLAS 0.3.31, one BLAS
thread, on an AVX-512 CPU, where numpy dispatches to its X86_V4 paths
and OpenBLAS picks its SkylakeX kernel. With the same numpy and OpenBLAS
the CPU alone decides whether they hold. Emulated by setting
``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES`` in the test process:

* OpenBLAS's Haswell or Zen kernel (AVX2 with FMA): 3 of the 15 tests
  fail, ``test_loss_and_every_gradient``,
  ``test_the_one_block_training_step_gives_these_bytes`` and
  ``test_cli_training_run``, because GEMM reductions of 384 rows and more
  round differently;
* its Sandybridge or Prescott kernel (no FMA): 13 fail, every forward
  value among them;
* numpy held to X86_V3 (``X86_V4 AVX512_ICL AVX512_SPR`` disabled), as on
  an AVX2 CPU, with either kernel: 14 fail, since ``np.exp`` and
  ``np.log`` give other bytes there.

``test_invariance_property.py`` and ``test_kernel_oracles.py`` pass on
all of them: a digest failure on such a machine says nothing about the code.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_sinusoid_values, write_csv
from elastst.backbone import AttentionConfig
from elastst.cli import main
from elastst.data_io import Scaler
from elastst.evaluation import varied_horizon_eval
from elastst.model import ElasTSTConfig, ModelState, composite_loss, forward_batch
from elastst.numerics import Graph, backward
from elastst.training import reweight_vector, step_gradients
from elastst.trope import PeriodSpec
from every_row import every_row_forward

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
GRADIENTS = "62abe5abd002f9fd66f3f6c17c506133cb880e3a1807cac3184d06ab706ee060"
CLI_CHECKPOINT = "cd4ca80170478bc6ee44b6766392567274ec2da6798b59571a80f47780abd567"
CLI_LOG = "7bc2e447c283893e0a07b9fb8e5f6e2a9b4aac44c769e3fb2971c91aa1fc3048"
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
    if use_key_mask:
        values = forward_batch(state, contexts, horizon).values
    else:  # the unmasked forward is computed by the every-row reference only
        values = every_row_forward(state, contexts, horizon, use_key_mask=False).values
    assert sha256(values) == FORWARD[horizon, use_key_mask]


def forward_loss_and_gradients(state, contexts, forward=forward_batch):
    """H=96 forward values, composite loss and every gradient by checkpoint
    block name: each fused q/k/v gradient as its per-head column blocks."""
    targets = np.random.default_rng(np.random.SeedSequence(1)).standard_normal((32, 96))
    weights = np.broadcast_to(reweight_vector(96) / 32, targets.shape)
    leaves = state.trainable()
    for _, p in leaves:
        p.grad = None
    with Graph():
        forecast = forward(state, contexts, 96)
        loss = composite_loss(forecast, targets, weights)
    backward(loss)
    grads = dict(state.blocks([(name, p.grad) for name, p in leaves]))
    for _, p in leaves:
        p.grad = None
    return forecast.values, loss.data, grads


def test_loss_and_every_gradient(state, contexts):
    _, loss, grads = forward_loss_and_gradients(state, contexts)
    assert sha256(loss) == LOSS
    assert sha256(*[chunk for name, g in grads.items() for chunk in (name.encode(), g)]) == GRADIENTS


def test_the_one_block_training_step_gives_these_bytes(state, contexts):
    """Training's step walks the horizon in step blocks; H=96 is one block,
    whose loss and gradients are the whole tape's, ``LOSS`` and ``GRADIENTS``."""
    targets = np.random.default_rng(np.random.SeedSequence(1)).standard_normal((32, 96))
    leaves = state.trainable()
    for _, p in leaves:
        p.grad = None
    loss = step_gradients(state, contexts, targets, reweight_vector(96) / 32)
    grads = dict(state.blocks([(name, p.grad) for name, p in leaves]))
    for _, p in leaves:
        p.grad = None
    assert sha256(np.float64(loss)) == LOSS
    assert sha256(*[chunk for name, g in grads.items() for chunk in (name.encode(), g)]) == GRADIENTS


def test_gradients_move_by_rounding_only(state, contexts):
    """Against the every-row reference forward (all B·N patches through the
    encoder, context and placeholder rows in one tensor), forward values and
    loss are bitwise equal. Gradients move by rounding only, and only where
    a weight gradient sums over both kinds of row: the decoders and the last
    layer's blocks but ``ln1`` keep their bytes."""
    values, loss, grads = forward_loss_and_gradients(state, contexts)
    old_values, old_loss, old_grads = forward_loss_and_gradients(state, contexts, every_row_forward)
    assert sha256(values) == sha256(old_values)
    assert sha256(loss) == sha256(old_loss)

    last = f"backbone.{len(state.layers) - 1}."
    for name, g in grads.items():
        if ".dec." in name or (name.startswith(last) and ".ln1." not in name):
            assert sha256(g) == sha256(old_grads[name]), name
        else:
            assert np.max(np.abs(g - old_grads[name])) <= 1e-14 * np.max(np.abs(old_grads[name])), name


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
