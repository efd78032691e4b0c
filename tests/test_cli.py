import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import make_sinusoid_values, write_csv
from elastst import training
from elastst.backbone import AttentionConfig
from elastst.cli import build_config, main, model_config
from elastst.errors import ConfigError
from elastst.model import ElasTSTConfig, ModelState, write_checkpoint
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
        from elastst.cli import build_parser

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


def _train(config_path, tmp_path, *settings):
    outputs = [f"out.checkpoint={tmp_path / 'model.ckpt'}", f"out.log={tmp_path / 'log.csv'}"]
    args = ["train", "--config", str(config_path)]
    for item in outputs + list(settings):
        args += ["--set", item]
    return args


def _evaluate(config_path, tmp_path, *extra):
    checkpoint = tmp_path / "model.ckpt"
    state = ModelState.init(model_config(build_config(str(config_path), [])), seed=0)
    write_checkpoint(checkpoint, state)
    return ["evaluate", "--config", str(config_path), "--checkpoint", str(checkpoint), *extra]


def _file(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


NOT_UTF8_CSV = b"ts,v0\n0,1.0\xff\n"
HUGE_FIELD_CSV = b"ts,v0\n0," + b"1" * 200_000 + b"\n"  # the csv module's field limit is 131072

# case -> (exit code, argv built from the workspace config path and a scratch directory)
BAD_INPUTS = {
    "csv_not_utf8": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'bad.csv', NOT_UTF8_CSV)}")),
    "csv_field_too_large": (3, lambda cfg, tmp: _train(
        cfg, tmp, f"data.path={_file(tmp, 'big.csv', HUGE_FIELD_CSV)}")),
    "config_not_utf8": (2, lambda cfg, tmp: [
        "train", "--config", _file(tmp, "bad.cfg", cfg.read_bytes() + b"# \xff\n")]),
    "config_is_a_directory": (2, lambda cfg, tmp: ["train", "--config", str(tmp)]),
    "data_path_is_a_directory": (3, lambda cfg, tmp: _train(cfg, tmp, f"data.path={tmp}")),
    "checkpoint_setting_is_a_directory": (3, lambda cfg, tmp: _train(cfg, tmp, f"out.checkpoint={tmp}")),
    "checkpoint_flag_is_a_directory": (3, lambda cfg, tmp: [
        "evaluate", "--config", str(cfg), "--checkpoint", str(tmp), "--horizons", "8"]),
    "horizon_not_an_integer": (2, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "96,x")),
    "zero_stride": (2, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "8", "--stride", "0")),
    "horizon_longer_than_split": (3, lambda cfg, tmp: _evaluate(cfg, tmp, "--horizons", "8,100000")),
    "zero_batch_size": (2, lambda cfg, tmp: _train(cfg, tmp, "train.batch_size=0")),
    "zero_batches_per_epoch": (2, lambda cfg, tmp: _train(cfg, tmp, "train.batches_per_epoch=0")),
    "negative_epochs": (2, lambda cfg, tmp: _train(cfg, tmp, "train.epochs=-3")),
    "nan_learning_rate": (2, lambda cfg, tmp: _train(cfg, tmp, "train.lr=nan")),
    "nan_split_fraction": (2, lambda cfg, tmp: _train(cfg, tmp, "data.split=0.7,0.15,nan")),
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

    def test_unwritable_log_fails_before_training(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        assert main(_train(config_path, tmp_path, f"out.log={tmp_path}")) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()


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
