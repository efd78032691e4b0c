import warnings

import pytest

from conftest import make_sinusoid_values, write_csv
from elastst.backbone import AttentionConfig
from elastst.cli import build_config, main
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

    def test_threads_must_be_positive(self, workspace, capsys):
        _, config_path = workspace
        assert main(["train", "--config", str(config_path), "--threads", "0"]) == 2


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
