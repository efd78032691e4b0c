"""Property: retraining is byte-identical over many small shapes. Two runs
of the same two training steps write equal checkpoint bytes and equal log
bytes apart from ``wall_seconds``, whether the second run is in the same
process, after the first one's gradient buffers were adopted and freed,
or in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler
from elastst.model import ElasTSTConfig, ModelState
from elastst.training import REWEIGHT_MODES, TrainConfig, TrainData, train
from elastst.trope import PeriodSpec

ROOT = Path(__file__).resolve().parents[1]


@st.composite
def cases(draw):
    return {
        "patch_sizes": draw(st.lists(st.sampled_from((1, 2, 3, 4, 8)), min_size=1, max_size=3, unique=True)),
        "d_model": draw(st.integers(2, 12)),
        "n_heads": draw(st.integers(1, 3)),
        "n_layers": draw(st.integers(1, 2)),
        "lookback": draw(st.integers(1, 20)),
        "t_max": draw(st.integers(1, 24)),
        "batch_size": draw(st.integers(1, 5)),
        "reweight_mode": draw(st.sampled_from(REWEIGHT_MODES)),
        "instance_norm": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def two_steps(case: dict, out: Path) -> tuple[bytes, list[str]]:
    """Train ``case`` for two steps (two epochs of one) into ``out``; the
    best checkpoint's bytes and the log's lines without ``wall_seconds``."""
    config = ElasTSTConfig(
        patch_sizes=tuple(case["patch_sizes"]),
        period_spec=PeriodSpec(1.0, 100.0, 4),
        attention=AttentionConfig(
            d_model=case["d_model"], n_heads=case["n_heads"], head_dim=4, d_ff=8, n_layers=case["n_layers"]
        ),
        lookback=case["lookback"],
        instance_norm=case["instance_norm"],
    )
    span = case["lookback"] + case["t_max"]
    values = make_sinusoid_values(n_steps=2 * span + 24, n_variates=2, seed=case["seed"])
    scaler = Scaler.fit(values[: span + 16])
    data = TrainData(
        train_values=scaler.transform(values[: span + 16]),
        val_values=scaler.transform(values[span + 16 :]),
        scaler=scaler,
        name="property",
    )
    checkpoint, log = out / "best.ckpt", out / "log.csv"
    train_config = TrainConfig(
        t_max=case["t_max"],
        reweight_mode=case["reweight_mode"],
        learning_rate=0.01,
        batches_per_epoch=1,
        batch_size=case["batch_size"],
        epochs=2,
        seed=case["seed"],
        checkpoint_path=str(checkpoint),
        log_path=str(log),
    )
    train(ModelState.init(config, seed=case["seed"]), data, train_config)
    return checkpoint.read_bytes(), [line.rsplit(",", 1)[0] for line in log.read_text().splitlines()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
@example({"patch_sizes": [8, 1], "d_model": 5, "n_heads": 3, "n_layers": 2, "lookback": 11, "t_max": 24,
          "batch_size": 5, "reweight_mode": "sampled", "instance_norm": False, "seed": 7})
def test_two_runs_write_the_same_bytes(tmp_path_factory, case):
    first, second = (two_steps(case, tmp_path_factory.mktemp("run")) for _ in range(2))
    assert len(first[1]) == 3  # the header and one row per step
    assert first == second


def test_a_fresh_interpreter_writes_the_same_bytes(tmp_path):
    """Nothing an earlier run leaves in the process (imports, caches, the
    allocator's free lists) reaches the bytes."""
    case = {"patch_sizes": [2, 4], "d_model": 8, "n_heads": 2, "n_layers": 2, "lookback": 12, "t_max": 16,
            "batch_size": 4, "reweight_mode": "sampled", "instance_norm": True, "seed": 11}
    here = two_steps(case, tmp_path)
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from test_retraining_property import two_steps\n"
        "ckpt, log = two_steps(json.loads(sys.argv[1]), Path(sys.argv[2]))\n"
        "print(json.dumps([ckpt.hex(), log]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(case), str(fresh_dir)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])),
        capture_output=True, text=True, timeout=300, check=True,
    )
    ckpt_hex, log = json.loads(result.stdout)
    assert (bytes.fromhex(ckpt_hex), log) == here
