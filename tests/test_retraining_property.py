"""Property: retraining is byte-identical over many small shapes. Two runs
of the same two training steps write equal checkpoint bytes and equal log
bytes apart from ``wall_seconds``: in one process, where the second run,
after the first one's gradient buffers were adopted and freed, stops after
its first step and resumes from its checkpoint file; and in a fresh
interpreter. A case's ``blocks``, when set, makes ``STEP_BLOCK`` that many
times lcm(patch sizes), so most of its steps walk the horizon in several
step blocks."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values
from elastst import model
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler
from elastst.model import ElasTSTConfig, ModelState
from elastst.training import REWEIGHT_MODES, TrainConfig, TrainData, load_training_checkpoint, train
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
        "blocks": draw(st.sampled_from((None, 1, 2))),
    }


def two_steps(case: dict, out: Path, stop: bool = False) -> tuple[bytes, list[str]]:
    """Train ``case`` for two steps (two epochs of one) into ``out``; the
    best checkpoint's bytes and the log's lines without ``wall_seconds``.
    With ``stop``, the run stops after epoch 1 and resumes from the checkpoint file."""
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
    state = ModelState.init(config, seed=case["seed"])
    with pytest.MonkeyPatch.context() as patch:
        if case.get("blocks"):
            patch.setattr(model, "STEP_BLOCK", case["blocks"] * math.lcm(*config.patch_sizes))
        if stop:
            train(state, data, replace(train_config, epochs=1))
            train(load_training_checkpoint(checkpoint), data, train_config)
        else:
            train(state, data, train_config)
    return checkpoint.read_bytes(), [line.rsplit(",", 1)[0] for line in log.read_text().splitlines()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
@example({"patch_sizes": [8, 1], "d_model": 5, "n_heads": 3, "n_layers": 2, "lookback": 11, "t_max": 24,
          "batch_size": 5, "reweight_mode": "sampled", "instance_norm": False, "seed": 7})
@example({"patch_sizes": [2, 3], "d_model": 6, "n_heads": 2, "n_layers": 2, "lookback": 9, "t_max": 19,
          "batch_size": 3, "reweight_mode": "log-approx", "instance_norm": True, "seed": 5, "blocks": 1})
def test_two_runs_write_the_same_bytes(tmp_path_factory, case):
    straight, resumed = (two_steps(case, tmp_path_factory.mktemp("run"), stop) for stop in (False, True))
    assert len(straight[1]) == 3  # the header and one row per step
    assert straight == resumed


def test_a_fresh_interpreter_writes_the_same_bytes(tmp_path):
    """Nothing an earlier run leaves in the process (imports, caches, the
    allocator's free lists) reaches the bytes."""
    case = {"patch_sizes": [2, 4], "d_model": 8, "n_heads": 2, "n_layers": 2, "lookback": 12, "t_max": 16,
            "batch_size": 4, "reweight_mode": "sampled", "instance_norm": True, "seed": 11}
    assert_fresh_interpreter_bytes(case, tmp_path)


def test_a_fresh_interpreter_writes_the_same_bytes_over_blocks(tmp_path):
    """The same, with each step's horizon of 22 in three blocks of 8."""
    case = {"patch_sizes": [2, 8], "d_model": 8, "n_heads": 2, "n_layers": 2, "lookback": 12, "t_max": 22,
            "batch_size": 4, "reweight_mode": "exact-harmonic", "instance_norm": True, "seed": 12, "blocks": 1}
    assert_fresh_interpreter_bytes(case, tmp_path)


def assert_fresh_interpreter_bytes(case: dict, tmp_path: Path) -> None:
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
