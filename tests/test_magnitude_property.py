"""No silent non-finite output at any CSV magnitude.

A hypothesis property scales a small two-variate series by a magnitude
drawn from 1e-300 to 1e300 and runs ``train``, ``evaluate`` and
``forecast`` on it through ``cli.main``, with ``instance_norm`` on or off.
Each command exits 0 with finite output and a quiet stderr, or exits 3 or
4 with exactly one stderr line and no traceback. ``evaluate`` and
``forecast`` read a checkpoint trained on the unscaled series. numpy
warnings are errors here, so one that reached stderr would fail the run.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values, write_csv
from elastst.cli import main

TINY = [
    "data.split=0.7,0.15,0.15",
    "model.patch_sizes=4,8",
    "model.d_model=8",
    "model.n_heads=2",
    "model.head_dim=4",
    "model.d_ff=16",
    "model.n_layers=1",
    "model.lookback=8",
    "train.t_max=8",
    "train.epochs=1",
    "train.batches_per_epoch=2",
    "train.batch_size=4",
]


def series():
    """120 steps of two variates: each split holds lookback + t_max = 16."""
    return make_sinusoid_values(n_steps=120, n_variates=2, seed=1)


def run(argv, *settings):
    """(exit code, stdout, stderr) of ``elastst argv --set s ...``."""
    for item in TINY + list(settings):
        argv = argv + ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Per ``instance_norm`` setting, a checkpoint trained on the unscaled series."""
    root = tmp_path_factory.mktemp("unscaled")
    data = f"data.path={write_csv(root / 'unit.csv', series())}"
    paths = {}
    for norm in ("true", "false"):
        paths[norm] = root / f"{norm}.ckpt"
        outputs = (f"out.checkpoint={paths[norm]}", f"out.log={root / norm}.csv")
        code, _, err = run(["train"], data, f"model.instance_norm={norm}", *outputs)
        assert code == 0, err
    return paths


def printed_numbers(command, out):
    """The numbers a successful command prints: train's best validation NMAE,
    or every field below the header of evaluate's or forecast's CSV."""
    if command == "train":
        return [float(out.split("best validation NMAE: ", 1)[1].split(" ", 1)[0])]
    return [float(field) for line in out.splitlines()[1:] for field in line.split(",")]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.floats(-300, 300), instance_norm=st.sampled_from(["true", "false"]))
@example(exponent=300.0, instance_norm="true")
@example(exponent=-300.0, instance_norm="false")
@example(exponent=160.0, instance_norm="false")  # the train split's std overflows past about 1.3e154
def test_every_magnitude_ends_in_finite_output_or_one_error_line(
    checkpoints, tmp_path_factory, exponent, instance_norm
):
    root = tmp_path_factory.mktemp("scaled")
    data = f"data.path={write_csv(root / 'scaled.csv', series() * 10.0**exponent)}"
    outputs = (f"out.checkpoint={root / 'model.ckpt'}", f"out.log={root / 'log.csv'}")
    checkpoint = ["--checkpoint", str(checkpoints[instance_norm])]
    for command, argv in (
        ("train", ["train", "--set", f"model.instance_norm={instance_norm}", "--set", outputs[0], "--set", outputs[1]]),
        ("evaluate", ["evaluate", "--horizons", "8", *checkpoint]),
        ("forecast", ["forecast", "--horizon", "8", *checkpoint]),
    ):
        code, out, err = run(argv, data)
        if code == 0:
            numbers = printed_numbers(command, out)
            assert err == "" and numbers and all(map(math.isfinite, numbers)), (command, out, err)
        else:
            assert code in (3, 4), (command, code, err)
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, (command, err)
