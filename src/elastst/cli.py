"""Command-line interface: train, evaluate, forecast, gradcheck, inspect-periods.

Configuration is a flat key=value file (one pair per line, ``#`` comments)
merged with repeated ``--set key=value`` overrides; overrides win. Unknown
keys are rejected. ``train`` builds the model from the configuration;
``evaluate`` and ``forecast`` take it from the checkpoint and read only the
``data.*`` keys. Exit codes: 0 ok, 2 configuration error (a size too large
to allocate included), 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data_io, evaluation, gradcheck, training
from .backbone import AttentionConfig
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    ElaststError,
    IngestionError,
    MetricUndefinedError,
    ParameterError,
    SizingError,
)
from .model import ElasTSTConfig, ModelState, forward_batch, load_model
from .trope import PeriodSpec


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


# key -> (parser, default); None default means "required where used"
CONFIG_KEYS = {
    "data.path": (str, None),
    "data.split": (_parse_float_list, (0.7, 0.1, 0.2)),
    "model.patch_sizes": (_parse_int_list, (8, 16, 32)),
    "model.d_model": (int, 64),
    "model.n_heads": (int, 4),
    "model.head_dim": (int, 16),
    "model.d_ff": (int, 128),
    "model.n_layers": (int, 2),
    "model.lookback": (int, 96),
    "model.instance_norm": (_parse_bool, True),
    "trope.p_min": (float, 1.0),
    "trope.p_max": (float, 1000.0),
    "train.t_max": (int, 720),
    "train.reweight_mode": (str, "log-approx"),
    "train.lr": (float, 0.001),
    "train.epochs": (int, 50),
    "train.batches_per_epoch": (int, 100),
    "train.batch_size": (int, 32),
    "train.seed": (int, 0),
    "out.checkpoint": (str, "model.ckpt"),
    "out.log": (str, "training_log.csv"),
}


def _config_help() -> str:
    lines = ["configuration keys (file or --set key=value, overrides win):"]
    for key, (_, default) in CONFIG_KEYS.items():
        shown = "required" if default is None else default
        if isinstance(shown, tuple):
            shown = ",".join(str(v) for v in shown)
        lines.append(f"  {key:<28} default: {shown}")
    return "\n".join(lines)


def _read_config_file(path: str) -> list[tuple[str, str]]:
    pairs = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def build_config(config_file: str | None, overrides: list[str]) -> dict:
    pairs = _read_config_file(config_file) if config_file else []
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))

    config = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    for key, value in pairs:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser, _ = CONFIG_KEYS[key]
        try:
            config[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    return config


def _require(config: dict, key: str):
    if config[key] is None:
        raise ConfigError(f"missing required configuration key {key!r}")
    return config[key]


def model_config(config: dict) -> ElasTSTConfig:
    return ElasTSTConfig(
        patch_sizes=config["model.patch_sizes"],
        period_spec=PeriodSpec(
            p_min=config["trope.p_min"],
            p_max=config["trope.p_max"],
            head_dim=config["model.head_dim"],
        ),
        attention=AttentionConfig(
            d_model=config["model.d_model"],
            n_heads=config["model.n_heads"],
            head_dim=config["model.head_dim"],
            d_ff=config["model.d_ff"],
            n_layers=config["model.n_layers"],
        ),
        lookback=config["model.lookback"],
        instance_norm=config["model.instance_norm"],
    )


def train_config(config: dict) -> training.TrainConfig:
    return training.TrainConfig(
        t_max=config["train.t_max"],
        reweight_mode=config["train.reweight_mode"],
        learning_rate=config["train.lr"],
        batches_per_epoch=config["train.batches_per_epoch"],
        batch_size=config["train.batch_size"],
        epochs=config["train.epochs"],
        seed=config["train.seed"],
        checkpoint_path=config["out.checkpoint"],
        log_path=config["out.log"],
    )


def _load_splits(config: dict):
    """The dataset, its three standardized splits and the scaler fit on the
    train split. No split is sized here beyond holding a row: each command
    sizes the splits it reads, for the lookback and horizons it uses."""
    ds = data_io.load_csv(_require(config, "data.path"))
    split = config["data.split"]
    if len(split) != 3:
        raise ConfigError(f"data.split needs three fractions, got {split}")
    train_v, val_v, test_v, scaler = data_io.split_and_scale(ds, data_io.SplitSpec(*split), min_len=1)
    return ds, train_v, val_v, test_v, scaler


def _fitting(what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; numpy refusing an array ``what`` asks for is a ``ConfigError``."""
    try:
        return make(*args, **kwargs)
    except ElaststError:
        raise
    except (MemoryError, ValueError) as exc:  # ValueError: larger than numpy's largest array
        raise ConfigError(f"{what} does not fit in memory: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve(text: str, names: tuple[str, ...], what: str, key=str) -> int:
    """The position ``text`` picks in ``names``: the name equal to it (by
    ``key``), else ``text`` read as an index in [-n, n), negative counting
    from the end. Anything else is a data error."""
    keys = [key(name) for name in names]
    if key(text) in keys:
        return keys.index(key(text))
    n = len(names)
    try:
        index = int(text)
    except ValueError:
        index = n
    if not -n <= index < n:
        raise IngestionError(f"{what} {text!r} is not in the data, nor an index in [-{n}, {n})")
    return index % n


def cmd_train(args) -> int:
    config = build_config(args.config, args.set)
    ds, train_v, val_v, _, scaler = _load_splits(config)
    state = _fitting("a model of these model.* sizes", ModelState.init, model_config(config), seed=config["train.seed"])
    data = training.TrainData(train_values=train_v, val_values=val_v, scaler=scaler, name=ds.name)
    # a non-finite loss raises FloatingPointError (exit 4); numpy's warnings would add lines
    with np.errstate(over="ignore", invalid="ignore"):
        best = _fitting("training at these train.* sizes", training.train, state, data, train_config(config))
    print(f"best validation NMAE: {best.best_val_nmae!r} (epoch {best.epoch})")
    print(f"checkpoint: {config['out.checkpoint']}")
    print(f"training log: {config['out.log']}")
    return 0


def cmd_evaluate(args) -> int:
    config = build_config(args.config, args.set)
    try:
        horizons = list(_parse_int_list(args.horizons))
    except ValueError:
        raise ConfigError(f"--horizons must be comma-separated integers, got {args.horizons!r}") from None
    if any(h < 1 for h in horizons):
        raise ConfigError(f"horizons must be >= 1, got {args.horizons!r}")
    checkpoint_path = args.checkpoint or config["out.checkpoint"]
    state, _, _ = load_model(checkpoint_path)
    ds, _, _, test_v, scaler = _load_splits(config)
    report = evaluation.varied_horizon_eval(
        state,
        test_v,
        state.config.lookback,
        horizons,
        scaler,
        stride=args.stride,
        dataset=ds.name,
        checkpoint_id=str(checkpoint_path),
    )
    _emit(report.to_csv(), args.out)
    if args.out:
        print(report.format_table())
    return 0


def cmd_forecast(args) -> int:
    config = build_config(args.config, args.set)
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    checkpoint_path = args.checkpoint or config["out.checkpoint"]
    state, _, _ = load_model(checkpoint_path)
    ds, *_, scaler = _load_splits(config)
    lookback = state.config.lookback
    idx = ds.n_steps - 1
    if args.at is not None:
        idx = _resolve(args.at, ds.timestamps, "timestamp", data_io.timestamp_key)
    if idx < lookback - 1:
        raise SizingError(f"--at row {idx} leaves {idx + 1} context steps, the model's lookback is {lookback}")
    k = _resolve(args.variate, ds.columns, "column")
    context = scaler.transform(ds.values[idx - lookback + 1 : idx + 1, k], k)
    forecast = _fitting(f"--horizon {args.horizon}", forward_batch, state, context[None, :], args.horizon)
    values = scaler.inverse(forecast.values[0], k)
    lines = ["step,value"] + [f"{i + 1},{float(v)!r}" for i, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gradcheck(args) -> int:
    config = build_config(args.config, args.set)
    report = gradcheck.tiny_report(seed=config["train.seed"])
    worst = 0.0
    for name, err in report.items():
        print(f"{name:<28} {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 4


def cmd_inspect_periods(args) -> int:
    state, _, _ = load_model(args.checkpoint)
    lines = ["j,period"] + [f"{j + 1},{float(p)!r}" for j, p in enumerate(state.periods.periods())]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    layout = dict(formatter_class=argparse.RawDescriptionHelpFormatter, epilog=_config_help())
    parser = argparse.ArgumentParser(
        prog="elastst", description="Train-once, forecast-any-horizon time-series transformer.", **layout
    )
    common = argparse.ArgumentParser(add_help=False)  # the configuration, whose keys --help lists
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
    configured = dict(parents=[common], **layout)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint + log", **configured)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="varied-horizon evaluation on the test split", **configured)
    p.add_argument("--checkpoint", help="checkpoint path (default: out.checkpoint)")
    p.add_argument("--horizons", default="96,192,336,720,1024", help="comma-separated horizons")
    p.add_argument("--stride", type=int, default=None, help="window stride (default: horizon)")
    p.add_argument("--out", help="write the CSV report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("forecast", help="single-window forecast as CSV (step,value)", **configured)
    p.add_argument("--checkpoint", help="checkpoint path (default: out.checkpoint)")
    p.add_argument("--horizon", type=int, required=True, help="forecast steps (>= 1)")
    p.add_argument(
        "--at",
        help="last context point: a timestamp, matched by value (2016-07-01 matches 2016-07-01 00:00:00), "
        "else a row index, negative from the end (default: last row)",
    )
    p.add_argument(
        "--variate", default="0", help="column name, else a column index, negative from the end (default: 0)"
    )
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model", **configured)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect-periods", help="dump learned rotary periods as CSV (j,period)")
    p.add_argument("--checkpoint", required=True, help="checkpoint path")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_inspect_periods)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IngestionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (MetricUndefinedError, DimensionError, ContractError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
