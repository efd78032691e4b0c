import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values, write_csv
from elastst import model, training
from elastst.backbone import AttentionConfig
from elastst.cli import build_config, build_parser, main, model_config
from elastst.errors import ConfigError, DimensionError, FormatError
from elastst.model import ElasTSTConfig, ModelState, load_model, write_checkpoint
from elastst.trope import PeriodSpec


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus a config sized for second-scale CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    values = make_sinusoid_values(n_steps=400, n_variates=2, seed=9)
    csv_path = write_csv(root / "series.csv", values)
    config_path = root / "run.cfg"
    config_path.write_text(
        "\n".join(
            [
                "# tiny end-to-end configuration",
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
                "train.epochs=1",
                "train.batches_per_epoch=3",
                "train.batch_size=4",
                "train.seed=0",
                f"out.checkpoint={root / 'model.ckpt'}",
                f"out.log={root / 'train_log.csv'}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return root, config_path


class TestConfigHandling:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config(None, ["bogus.key=1"])

    def test_overrides_win_over_file(self, workspace):
        _, config_path = workspace
        config = build_config(str(config_path), ["train.epochs=7"])
        assert config["train.epochs"] == 7

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config(None, ["train.epochs=soon"])

    def test_missing_data_path_exit_code_and_message(self, capsys):
        assert main(["train"]) == 2
        assert "data.path" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, capsys):
        assert main(["train", "--set", "no.such=1"]) == 2


class TestDefaults:
    def test_evaluate_accepts_the_standard_horizon_grid(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.horizons == "96,192,336,720,1024"


class TestHelp:
    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "gradcheck"])
    def test_subcommand_help_documents_config_keys(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for key in ("data.path", "train.t_max", "trope.p_min", "out.checkpoint"):
            assert key in text


class TestEndToEnd:
    def test_train_evaluate_forecast_inspect(self, workspace, capsys):
        root, config_path = workspace

        assert main(["train", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "best validation NMAE" in out
        assert (root / "model.ckpt").exists()
        log_lines = (root / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_loss,val_nmae,val_nrmse,wall_seconds"
        assert len(log_lines) == 2

        report_path = root / "report.csv"
        assert main(
            ["evaluate", "--config", str(config_path), "--horizons", "8,16", "--out", str(report_path)]
        ) == 0
        table = capsys.readouterr().out
        assert "NMAE" in table
        lines = report_path.read_text().splitlines()
        assert lines[0] == "horizon,nmae,nrmse,windows"
        assert len(lines) == 3

        assert main(["forecast", "--config", str(config_path), "--horizon", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "step,value" and len(rows) == 6
        float(rows[1].split(",")[1])  # parses as a number

        assert main(["inspect-periods", "--checkpoint", str(root / "model.ckpt")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "j,period" and len(rows) == 5  # head_dim 8 -> 4 periods
        assert all(float(r.split(",")[1]) > 0 for r in rows[1:])

    def test_evaluate_is_byte_reproducible(self, workspace, capsys):
        root, config_path = workspace
        if not (root / "model.ckpt").exists():
            assert main(["train", "--config", str(config_path)]) == 0
            capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["evaluate", "--config", str(config_path), "--horizons", "8"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_forecast_at_timestamp_and_variate(self, workspace, capsys):
        root, config_path = workspace
        if not (root / "model.ckpt").exists():
            assert main(["train", "--config", str(config_path)]) == 0
            capsys.readouterr()
        code = main(
            ["forecast", "--config", str(config_path), "--horizon", "4",
             "--at", "250", "--variate", "v1"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_forecast_rejects_zero_horizon(self, workspace, capsys):
        _, config_path = workspace
        assert main(["forecast", "--config", str(config_path), "--horizon", "0"]) == 2

    def test_forecast_rejects_unknown_timestamp(self, workspace, capsys):
        root, config_path = workspace
        if not (root / "model.ckpt").exists():
            assert main(["train", "--config", str(config_path)]) == 0
            capsys.readouterr()
        code = main(
            ["forecast", "--config", str(config_path), "--horizon", "4", "--at", "2999-01-01"]
        )
        assert code == 3

    def test_divergent_training_is_a_numeric_failure(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        args = ["train", "--config", str(config_path), "--set", "train.lr=1e100",
                "--set", f"out.checkpoint={tmp_path / 'model.ckpt'}",
                "--set", f"out.log={tmp_path / 'log.csv'}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would add stderr lines
            assert main(args) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "epoch 1" in err and "Traceback" not in err
        # the log is opened before the first step: the header is there, no epoch finished
        log_lines = (tmp_path / "log.csv").read_text().splitlines()
        assert log_lines == ["epoch,train_loss,val_nmae,val_nrmse,wall_seconds"]

    def test_non_finite_gradient_is_a_numeric_failure(self, workspace, tmp_path, capsys, monkeypatch):
        real_forward, real_backward = training.forward_batch, training.backward
        seen = {}

        def forward(state, *args, **kwargs):
            seen["state"] = state
            return real_forward(state, *args, **kwargs)

        def backward(loss):
            real_backward(loss)
            seen["state"].layers[0].wo.grad[0, 0] = float("nan")

        monkeypatch.setattr(training, "forward_batch", forward)
        monkeypatch.setattr(training, "backward", backward)
        _, config_path = workspace
        args = ["train", "--config", str(config_path),
                "--set", f"out.checkpoint={tmp_path / 'model.ckpt'}"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "numeric failure: gradient of backbone.0.wo is not finite at epoch 1, step 1"
        ]
        assert not (tmp_path / "model.ckpt").exists()

    def test_non_finite_validation_keeps_the_last_finite_best(self, workspace, tmp_path, capsys, monkeypatch):
        real_validation = training.validation_nmae
        finite = []

        def validation(state, data, config):  # epoch 1 scores as usual, epoch 2 is NaN
            if finite:
                return math.nan, math.nan
            finite.append(real_validation(state, data, config))
            return finite[0]

        monkeypatch.setattr(training, "validation_nmae", validation)
        _, config_path = workspace
        assert main(_train(config_path, tmp_path, "train.epochs=2")) == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "numeric failure: validation NMAE is nan after epoch 2, step 6"
        ]
        best = training.load_training_checkpoint(tmp_path / "model.ckpt")
        assert (best.epoch, best.step_count, best.best_val_nmae) == (1, 3, finite[0][0])

    def test_zero_epochs_writes_the_start_checkpoint(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(_train(config_path, tmp_path, "train.epochs=0")) == 0
        assert "(epoch 0)" in capsys.readouterr().out
        start = training.load_training_checkpoint(tmp_path / "model.ckpt")
        assert (start.epoch, start.step_count, start.best_val_nmae) == (0, 0, math.inf)
        fresh = ModelState.init(model_config(build_config(str(config_path), [])), seed=0)
        for (_, a), (_, b) in zip(start.state.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert not any(np.any(m) for m in start.adam_m + start.adam_v)
        assert (tmp_path / "log.csv").read_text().splitlines() == ["epoch,train_loss,val_nmae,val_nrmse,wall_seconds"]

    @pytest.mark.parametrize("text", ["false", "0", "no"])
    def test_instance_norm_off_spellings_are_accepted(self, text, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(_train(config_path, tmp_path, f"model.instance_norm={text}", "train.epochs=0")) == 0
        assert capsys.readouterr().err == ""
        state, echo, _ = load_model(tmp_path / "model.ckpt")
        assert state.config.instance_norm is False and echo["instance_norm"] == "false"

    def test_missing_dataset_is_a_data_error(self, workspace):
        _, config_path = workspace
        assert main(["train", "--config", str(config_path), "--set", "data.path=/no/such.csv"]) == 3

    def test_gradcheck_micro_config(self, capsys):
        # full-size gradcheck runs in the acceptance suite; here just the
        # command surface with the default tiny model
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out
        assert "trope.log_periods" in out


class TestCorruptCheckpoint:
    """Damaged checkpoints end in exit 3 with a one-line message."""

    @pytest.fixture
    def ckpt_bytes(self, tmp_path):
        config = ElasTSTConfig(
            patch_sizes=(4,),
            period_spec=PeriodSpec(1.0, 100.0, 4),
            attention=AttentionConfig(d_model=8, n_heads=1, head_dim=4, d_ff=8, n_layers=1),
            lookback=8,
        )
        path = tmp_path / "good.ckpt"
        write_checkpoint(path, ModelState.init(config, seed=0))
        return path.read_bytes()

    def inspect(self, tmp_path, data, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        code = main(["inspect-periods", "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        return code

    def test_cut_inside_header(self, tmp_path, ckpt_bytes, capsys):
        assert self.inspect(tmp_path, ckpt_bytes[:60], capsys) == 3

    def test_parameter_header_without_newline(self, tmp_path, ckpt_bytes, capsys):
        first = ckpt_bytes.index(b"\n\n") + 2
        cut = ckpt_bytes[: ckpt_bytes.index(b"\n", first)]
        assert self.inspect(tmp_path, cut, capsys) == 3

    def test_non_utf8_config_echo(self, tmp_path, ckpt_bytes, capsys):
        bad = ckpt_bytes.replace(b"d_model=", b"d_mod\xffl=", 1)
        assert self.inspect(tmp_path, bad, capsys) == 3


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """The training checkpoint of one CLI run on the workspace, and a scratch directory."""
    _, config_path = workspace
    root = tmp_path_factory.mktemp("trained")
    with redirect_stdout(io.StringIO()):
        assert main(_train(config_path, root)) == 0
    return (root / "model.ckpt").read_bytes(), root


@settings(deadline=None, max_examples=200, derandomize=True)
@given(data=st.data())
def test_damaged_training_checkpoint_loads_or_names_the_file(trained, data):
    """A training checkpoint cut at any byte, or with one byte flipped, loads
    or raises a FormatError that starts with its path; inspect-periods exits
    0 or 3 with at most one stderr line."""
    good, root = trained
    text = good.index(b"\n\n") + 2  # magic line and config echo: most of the structure
    pos = data.draw(st.one_of(st.integers(0, text), st.integers(0, len(good) - 1)), label="pos")
    if data.draw(st.booleans(), label="cut"):
        bad = good[:pos]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        bad = good[:pos] + bytes([good[pos] ^ flip]) + good[pos + 1 :]
    path = root / "bad.ckpt"
    path.write_bytes(bad)
    try:
        training.load_training_checkpoint(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["inspect-periods", "--checkpoint", str(path)])
    assert code in (0, 3)
    assert len(err.getvalue().strip().splitlines()) <= 1 and "Traceback" not in err.getvalue()


def _train(config_path, tmp_path, *settings):
    outputs = [f"out.checkpoint={tmp_path / 'model.ckpt'}", f"out.log={tmp_path / 'log.csv'}"]
    args = ["train", "--config", str(config_path)]
    for item in outputs + list(settings):
        args += ["--set", item]
    return args


def _checkpoint(config_path, tmp_path) -> str:
    """An untrained model of the config's shape, written once per scratch directory."""
    checkpoint = tmp_path / "model.ckpt"
    if not checkpoint.exists():
        write_checkpoint(checkpoint, ModelState.init(model_config(build_config(str(config_path), [])), seed=0))
    return str(checkpoint)


def _evaluate(config_path, tmp_path, *extra):
    return ["evaluate", "--config", str(config_path), "--checkpoint", _checkpoint(config_path, tmp_path), *extra]


def _forecast(config_path, tmp_path, *extra):
    return ["forecast", "--config", str(config_path), "--checkpoint", _checkpoint(config_path, tmp_path),
            "--horizon", "6", *extra]


def _file(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


NOT_UTF8_CSV = b"ts,v0\n0,1.0\xff\n"
HUGE_FIELD_CSV = b"ts,v0\n0," + b"1" * 200_000 + b"\n"  # the csv module's field limit is 131072
INTEGER_THEN_ISO_CSV = b"ts,v0\n1,1.0\n2020-01-01,2.0\n"
NAIVE_THEN_AWARE_CSV = b"ts,v0\n2020-01-01T00:00,1.0\n2020-01-01T01:00+00:00,2.0\n"

# case -> (exit code, argv built from the workspace config path and a scratch directory)
BAD_INPUTS = {
    "csv_empty": (3, lambda cfg, tmp: _train(cfg, tmp, f"data.path={_file(tmp, 'empty.csv', b'')}")),
    "config_line_without_equals": (2, lambda cfg, tmp: [
        "train", "--config", _file(tmp, "noeq.cfg", cfg.read_bytes() + b"train.epochs 3\n")]),
    "set_without_equals": (2, lambda cfg, tmp: ["train", "--config", str(cfg), "--set", "train.epochs"]),
    "split_with_two_fractions": (2, lambda cfg, tmp: _train(cfg, tmp, "data.split=0.8,0.2")),
    "instance_norm_not_a_boolean": (2, lambda cfg, tmp: _train(cfg, tmp, "model.instance_norm=maybe")),
    "zero_in_the_horizon_list": (2, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "96,0")),
    "checkpoint_block_header_without_columns": (3, lambda cfg, tmp: ["inspect-periods", "--checkpoint", _file(
        tmp, "header.ckpt", Path(_checkpoint(cfg, tmp)).read_bytes().replace(
            b"\n\nsize4.enc.w1 4 16\n", b"\n\nsize4.enc.w1 3\n"))]),
    "csv_not_utf8": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'bad.csv', NOT_UTF8_CSV)}")),
    "csv_field_too_large": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'big.csv', HUGE_FIELD_CSV)}")),
    "csv_mixed_integer_and_iso_timestamps": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'mixed.csv', INTEGER_THEN_ISO_CSV)}")),
    "csv_naive_and_aware_timestamps": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'zones.csv', NAIVE_THEN_AWARE_CSV)}")),
    "config_not_utf8": (2, lambda cfg, tmp: [
        "train", "--config", _file(tmp, "bad.cfg", cfg.read_bytes() + b"# \xff\n")]),
    "config_is_a_directory": (2, lambda cfg, tmp: ["train", "--config", str(tmp)]),
    "data_path_is_a_directory": (3, lambda cfg, tmp: _train(cfg, tmp, f"data.path={tmp}")),
    "checkpoint_setting_is_a_directory": (3, lambda cfg, tmp: _train(cfg, tmp, f"out.checkpoint={tmp}")),
    "checkpoint_flag_is_a_directory": (3, lambda cfg, tmp: [
        "evaluate", "--config", str(cfg), "--checkpoint", str(tmp), "--horizons", "8"]),
    "checkpoint_echo_claims_a_huge_model": (3, lambda cfg, tmp: ["inspect-periods", "--checkpoint", _file(
        tmp, "huge.ckpt", Path(_checkpoint(cfg, tmp)).read_bytes().replace(b"\nd_model=16\n", b"\nd_model=1600000\n"))]),
    "checkpoint_echo_with_another_instance_norm_eps": (3, lambda cfg, tmp: ["inspect-periods", "--checkpoint", _file(
        tmp, "eps.ckpt", Path(_checkpoint(cfg, tmp)).read_bytes().replace(
            b"\ninstance_norm_eps=1e-05\n", b"\ninstance_norm_eps=1e-06\n"))]),
    "horizon_not_an_integer": (2, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "96,x")),
    "zero_stride": (2, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "8", "--stride", "0")),
    "horizon_longer_than_split": (3, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "8,100000")),
    "at_matches_no_timestamp": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--at", "2999-01-01")),
    "at_beyond_the_last_row": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--at", "400")),
    "at_leaves_less_than_the_lookback": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--at", "14")),
    "variate_matches_no_column": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--variate", "v9")),
    "variate_index_out_of_range": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--variate", "-3")),
    "train_split_empty": (3, lambda cfg, tmp: _forecast(cfg, tmp, "--set", "data.split=0.001,0.5,0.499")),
    "zero_batch_size": (2, lambda cfg, tmp: _train(cfg, tmp, "train.batch_size=0")),
    "zero_batches_per_epoch": (2, lambda cfg, tmp: _train(cfg, tmp, "train.batches_per_epoch=0")),
    "negative_epochs": (2, lambda cfg, tmp: _train(cfg, tmp, "train.epochs=-3")),
    "nan_learning_rate": (2, lambda cfg, tmp: _train(cfg, tmp, "train.lr=nan")),
    "nan_split_fraction": (2, lambda cfg, tmp: _train(cfg, tmp, "data.split=0.7,0.15,nan")),
    "infinite_rotary_period": (2, lambda cfg, tmp: _train(cfg, tmp, "trope.p_max=inf")),
}


class TestBadInput:
    """Bad files and settings end in their exit code with one stderr line."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_one_line(self, case, workspace, tmp_path, capsys):
        _, config_path = workspace
        code, make_args = BAD_INPUTS[case]
        assert main(make_args(config_path, tmp_path)) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_evaluate_names_the_test_split_when_a_horizon_does_not_fit(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(_evaluate(config_path, tmp_path, "--horizons", "8,100000")) == 3
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "test split" in line

    @pytest.mark.parametrize("argv, what", [  # numpy refuses these sizes before it allocates anything
        (lambda cfg, tmp: _train(cfg, tmp, f"model.d_model={10**18}"), "model.* sizes"),
        (lambda cfg, tmp: _train(cfg, tmp, f"train.batch_size={10**18}"), "train.* sizes"),
        (lambda cfg, tmp: _forecast(cfg, tmp, "--horizon", str(10**19)), f"--horizon {10**19}"),
    ], ids=["d_model", "batch_size", "horizon"])
    def test_a_size_past_the_largest_array_is_named(self, argv, what, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(argv(config_path, tmp_path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error: ") and what in line and "does not fit in memory" in line

    def test_a_huge_layer_count_is_refused_before_a_layer_is_drawn(self, workspace, tmp_path, capsys, monkeypatch):
        def no_layer(*args, **kwargs):
            raise AssertionError("a layer was drawn")

        monkeypatch.setattr(model, "LayerWeights", no_layer)
        _, config_path = workspace
        n_layers = f"model.n_layers={10**12}"
        count = model._parameter_count(model_config(build_config(str(config_path), [n_layers])))
        began = time.perf_counter()
        assert main(_train(config_path, tmp_path, n_layers)) == 2
        assert time.perf_counter() - began < 1.0
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error: a model of these model.* sizes does not fit in memory: ")
        assert f"({count},)" in line  # numpy names the shape it refused

    @pytest.mark.parametrize("error, code", [
        (MemoryError("Unable to allocate 59.6 GiB for an array with shape (1000000000, 8) and data type float64"), 2),
        (DimensionError("a package error keeps its own exit code"), 4),
    ], ids=["MemoryError", "DimensionError"])
    def test_a_model_that_cannot_be_allocated_is_a_configuration_error(
        self, error, code, workspace, tmp_path, capsys, monkeypatch
    ):
        def init(cls, config, seed=0):
            raise error

        monkeypatch.setattr(ModelState, "init", classmethod(init))
        _, config_path = workspace
        assert main(_train(config_path, tmp_path)) == code
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert str(error) in line
        assert ("model.* sizes" in line) == (code == 2)

    def test_unwritable_log_fails_before_training(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(_train(config_path, tmp_path, f"out.log={tmp_path}")) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()


def _output(capsys, argv) -> str:
    assert main(argv) == 0, capsys.readouterr().err
    return capsys.readouterr().out


class TestHugeInputValues:
    """A finite but huge CSV value gives finite output and a quiet stderr, or
    exit 4 with one line; numpy's overflow warnings never reach stderr."""

    @staticmethod
    def run(workspace, tmp_path, capsys, instance_norm, *argv):
        """``argv`` on the workspace CSV with variate 0 at 1e300 three rows
        from the end, and an untrained checkpoint of the workspace shape."""
        _, config_path = workspace
        values = make_sinusoid_values(n_steps=400, n_variates=2, seed=9)
        values[-3, 0] = 1e300
        overrides = [f"data.path={write_csv(tmp_path / 'huge.csv', values)}", f"model.instance_norm={instance_norm}"]
        checkpoint = tmp_path / "model.ckpt"
        write_checkpoint(checkpoint, ModelState.init(model_config(build_config(str(config_path), overrides)), seed=0))
        args = [*argv, "--config", str(config_path), "--checkpoint", str(checkpoint), "--set", overrides[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would add stderr lines
            code = main(args)
        out, err = capsys.readouterr()
        return code, out, err.strip().splitlines()

    def test_forecast_past_the_huge_value_is_finite(self, workspace, tmp_path, capsys):
        code, out, err = self.run(workspace, tmp_path, capsys, "false", "forecast", "--horizon", "4")
        assert (code, err) == (0, [])
        rows = out.splitlines()
        assert len(rows) == 5 and all(math.isfinite(float(r.split(",")[1])) for r in rows[1:])

    def test_a_non_finite_forecast_names_the_variate(self, workspace, tmp_path, capsys):
        code, out, err = self.run(workspace, tmp_path, capsys, "true", "forecast", "--horizon", "4")
        assert (code, out) == (4, "")
        assert err == ["numeric failure: forecast of variate 'v0' is not finite from step 1"]

    def test_a_non_finite_metric_names_the_horizon(self, workspace, tmp_path, capsys):
        # at horizon 4 a scored window's target holds the huge value; at 8 none does
        code, out, err = self.run(workspace, tmp_path, capsys, "false", "evaluate", "--horizons", "8,4")
        assert (code, out) == (4, "")
        assert err == ["numeric failure: NRMSE at horizon 4 is not finite: inf"]


class TestEachCommandSizesWhatItReads:
    """The checkpoint decides the model; evaluate and forecast read only the
    data keys, and train sizes only its train and validation splits."""

    def test_evaluate_and_forecast_ignore_train_t_max(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        lines = config_path.read_text(encoding="utf-8").splitlines()
        unset = tmp_path / "no_t_max.cfg"  # the default t_max, 720, does not fit the 400-row file
        unset.write_text("\n".join(l for l in lines if not l.startswith("train.t_max=")) + "\n", encoding="utf-8")
        for make_args, extra in ((_evaluate, ["--horizons", "8,16"]), (_forecast, [])):
            expected = _output(capsys, make_args(config_path, tmp_path, *extra))
            assert _output(capsys, make_args(unset, tmp_path, *extra)) == expected

    def test_evaluate_takes_the_lookback_from_the_checkpoint(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        args = _evaluate(config_path, tmp_path, "--horizons", "8,16")  # a checkpoint with lookback 16
        assert _output(capsys, args + ["--set", "model.lookback=64"]) == _output(capsys, args)

    def test_train_does_not_size_the_test_split(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        # the test split gets 20 rows, fewer than lookback + t_max = 32
        assert main(_train(config_path, tmp_path, "data.split=0.7,0.25,0.05")) == 0


class TestResolve:
    """--at and --variate pick by name first (a timestamp by value), then by index."""

    @pytest.fixture
    def forecast(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        return lambda csv_path, *extra: _output(
            capsys, _forecast(config_path, tmp_path, "--set", f"data.path={csv_path}", *extra)
        )

    def test_integer_timestamps_win_over_row_indices(self, forecast, tmp_path):
        values = make_sinusoid_values(n_steps=400, n_variates=2, seed=4)
        csv_path = write_csv(tmp_path / "from_1000.csv", values, [str(1000 + i) for i in range(400)])
        for timestamp, row in (("1200", "200"), ("1015", "15"), ("1399", "-1")):
            assert forecast(csv_path, "--at", timestamp) == forecast(csv_path, "--at", row)

    def test_a_timestamp_matches_by_value_not_spelling(self, forecast, tmp_path):
        values = make_sinusoid_values(n_steps=400, n_variates=2, seed=4)
        hours = [f"{datetime(2016, 7, 1) + timedelta(hours=i):%Y-%m-%d %H:%M:%S}" for i in range(400)]
        csv_path = write_csv(tmp_path / "hourly.csv", values, hours)
        spellings = ("2016-07-02 00:00:00", "2016-07-02", "2016-07-02T00:00:00", "24")
        assert len({forecast(csv_path, "--at", at) for at in spellings}) == 1

    def test_column_names_win_over_column_indices(self, forecast, tmp_path):
        values = make_sinusoid_values(n_steps=400, n_variates=3, seed=4)
        numbered = write_csv(tmp_path / "numbered.csv", values, columns=["1", "2", "3"])
        lettered = write_csv(tmp_path / "lettered.csv", values, columns=["a", "b", "c"])
        for number, letter in (("1", "a"), ("3", "c")):
            assert forecast(numbered, "--variate", number) == forecast(lettered, "--variate", letter)
        assert forecast(lettered, "--variate", "-1") == forecast(lettered, "--variate", "c")


class TestReadme:
    def test_every_cli_example_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("elastst ")]
        assert lines
        for line in lines:
            assert callable(build_parser().parse_args(shlex.split(line)[1:]).func), line


_THREAD_PROBE = """
import importlib, json, os, re, sys

class NumpyImportProbe:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpyImportProbe())
text = open(sys.argv[1], encoding="utf-8").read()
module, attr = re.search(r'^elastst = "([\\w.]+):(\\w+)"', text, re.M).groups()
getattr(importlib.import_module(module), attr)
print(json.dumps(NumpyImportProbe.seen))
"""


class TestModuleEntryPoint:
    def test_python_m_runs_the_command(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "elastst.cli", "train"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "configuration error: missing required configuration key 'data.path'"
        ]


class TestThreadPin:
    """The console-script target pins BLAS threads before numpy loads."""

    ROOT = Path(__file__).resolve().parents[1]

    def blas_threads_at_numpy_import(self, **env_vars):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(env_vars, PYTHONPATH=str(self.ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(self.ROOT / "pyproject.toml")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seen = json.loads(result.stdout)
        assert len(seen) == 1
        return seen[0]

    def test_one_thread_by_default(self):
        assert self.blas_threads_at_numpy_import() == "1"

    def test_caller_setting_wins(self):
        assert self.blas_threads_at_numpy_import(OPENBLAS_NUM_THREADS="2") == "2"
