"""The assembled forecaster: per-patch-size coders around a shared backbone.

Each patch size gets its own encoder (patch -> D -> D) and decoder
(D -> D -> patch), both the GELU ``MLP`` of the backbone FFN. The
transformer backbone and the rotary periods are shared across sizes;
sizes are processed sequentially and the flattened per-size forecasts
are averaged into the assembled forecast.
Instance normalization (per-window context mean/std, inverted on output)
is on by default; the loss is computed on the normalized scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .backbone import MLP, AttentionConfig, LayerWeights, transformer_block
from .errors import DimensionError, FormatError, ParameterError
from .numerics import Tensor
from .patching import grid_dims, segment_batch, unpatch
from .trope import PeriodSpec, TunablePeriods, init_periods

CHECKPOINT_MAGIC = "ELASTST-CKPT v1"


@dataclass(frozen=True)
class ElasTSTConfig:
    patch_sizes: tuple[int, ...]
    period_spec: PeriodSpec
    attention: AttentionConfig
    lookback: int
    instance_norm: bool = True
    instance_norm_eps: float = 1e-5

    def __post_init__(self):
        sizes = tuple(int(p) for p in self.patch_sizes)
        if len(sizes) < 1:
            raise ParameterError("need at least one patch size")
        if any(p < 1 for p in sizes):
            raise ParameterError(f"patch sizes must be positive, got {sizes}")
        if len(set(sizes)) != len(sizes):
            raise ParameterError(f"patch sizes must be distinct, got {sizes}")
        object.__setattr__(self, "patch_sizes", tuple(sorted(sizes)))
        if self.lookback < 1:
            raise ParameterError(f"lookback must be >= 1, got {self.lookback}")
        if self.period_spec.head_dim != self.attention.head_dim:
            raise ParameterError(
                f"period_spec.head_dim {self.period_spec.head_dim} differs from "
                f"attention.head_dim {self.attention.head_dim}"
            )


class SizeCoder:
    """Encoder (patch -> D) and decoder (D -> patch) MLPs for one patch size."""

    def __init__(self, patch_size: int, d_model: int, rng: np.random.Generator):
        self.enc = MLP(rng, patch_size, d_model, d_model)
        self.dec = MLP(rng, d_model, d_model, patch_size)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"enc.{n}", t) for n, t in self.enc.parameters()]
        return named + [(f"dec.{n}", t) for n, t in self.dec.parameters()]


class ModelState:
    """Complete parameter set: coders per size, shared backbone, periods."""

    def __init__(
        self,
        config: ElasTSTConfig,
        coders: dict[int, SizeCoder],
        layers: list[LayerWeights],
        periods: TunablePeriods,
    ):
        self.config = config
        self.coders = coders
        self.layers = layers
        self.periods = periods

    @classmethod
    def init(cls, config: ElasTSTConfig, seed: int = 0) -> "ModelState":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        coders = {p: SizeCoder(p, config.attention.d_model, rng) for p in config.patch_sizes}
        layers = [LayerWeights(config.attention, rng) for _ in range(config.attention.n_layers)]
        return cls(config, coders, layers, init_periods(config.period_spec))

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Fixed, documented order: per patch size ascending (encoder then
        decoder), backbone layers in depth order, rotary periods last."""
        named: list[tuple[str, Tensor]] = []
        for p in self.config.patch_sizes:
            named += [(f"size{p}.{n}", t) for n, t in self.coders[p].parameters()]
        for i, layer in enumerate(self.layers):
            named += [(f"backbone.{i}.{n}", t) for n, t in layer.parameters()]
        named.append(("trope.log_periods", self.periods.log_periods))
        return named

    def copy(self) -> "ModelState":
        clone = ModelState.init(self.config, seed=0)
        for (_, dst), (_, src) in zip(clone.parameters(), self.parameters()):
            dst.data = src.data.copy()
            dst.grad = None
        return clone


@dataclass
class Forecast:
    """Per-size and assembled forecasts for one batch of windows.

    ``per_size`` and ``assembled`` are graph tensors of shape (B, T) on the
    normalized scale (loss inputs). ``values`` carries the assembled
    forecast mapped back to the model-input scale.
    """

    per_size: list[Tensor]
    assembled: Tensor
    offset: np.ndarray  # (B,) instance-norm mean (zeros when normalization is off)
    denom: np.ndarray  # (B,) instance-norm scale (ones when normalization is off)
    values: np.ndarray  # (B, T)


def forward_batch(
    state: ModelState,
    contexts: np.ndarray,
    horizon: int,
    use_key_mask: bool = True,
) -> Forecast:
    """Run the model over a batch of equal-length contexts.

    ``use_key_mask=False`` makes every patch, placeholders included, an
    attention key (ablation only; it forfeits horizon invariance).
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[1] < 1:
        raise ParameterError(f"contexts must be (B, L) with L >= 1, got {contexts.shape}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    cfg = state.config
    b, length = contexts.shape

    if cfg.instance_norm:
        offset = contexts.mean(axis=1)
        denom = contexts.std(axis=1) + cfg.instance_norm_eps
        normed = (contexts - offset[:, None]) / denom[:, None]
    else:
        offset = np.zeros(b)
        denom = np.ones(b)
        normed = contexts

    per_size: list[Tensor] = []
    for p in cfg.patch_sizes:
        n_c, n_h, _, _ = grid_dims(length, horizon, p)
        patches = Tensor(segment_batch(normed, horizon, p))
        n_keys = n_c if use_key_mask else n_c + n_h

        coder = state.coders[p]
        h = coder.enc(patches)
        for layer in state.layers[:-1]:
            h = transformer_block(h, n_keys, state.periods, layer)
        # the decoder reads placeholder rows only, so the last layer computes no others
        h = transformer_block(h, n_keys, state.periods, state.layers[-1], first_query=n_c)
        per_size.append(unpatch(coder.dec(h), horizon))  # dec: (B, n_h, p)

    acc = per_size[0]
    for series in per_size[1:]:
        acc = nm.add(acc, series)
    assembled = nm.scale(acc, 1.0 / len(per_size))

    return Forecast(
        per_size=per_size,
        assembled=assembled,
        offset=offset,
        denom=denom,
        values=assembled.data * denom[:, None] + offset[:, None],
    )


def composite_loss(forecast: Forecast, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean of the per-size weighted losses and the assembled one.

    ``target`` is on the model-input scale and is normalized here with the
    forecast's instance statistics; ``weights`` carry all normalization
    (a 1-D weight vector is tiled across the batch unchanged).
    """
    shape = forecast.assembled.data.shape
    target = np.asarray(target, dtype=np.float64)
    if target.ndim == 1:
        target = target[None, :]
    if target.shape != shape:
        raise DimensionError(f"target shape {target.shape} does not match forecast {shape}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 1:
        weights = np.broadcast_to(weights, shape)
    if weights.shape != shape:
        raise DimensionError(f"weights shape {weights.shape} does not match forecast {shape}")

    normalized = (target - forecast.offset[:, None]) / forecast.denom[:, None]
    target_t = Tensor(normalized)
    weights_t = Tensor(weights)
    acc = nm.mse(forecast.per_size[0], target_t, weights_t)
    for series in forecast.per_size[1:]:
        acc = nm.add(acc, nm.mse(series, target_t, weights_t))
    acc = nm.add(acc, nm.mse(forecast.assembled, target_t, weights_t))
    return nm.scale(acc, 1.0 / (len(forecast.per_size) + 1))


# ---------------------------------------------------------------------------
# checkpoint format: text header + config echo, then named float64 blocks


def _config_echo(config: ElasTSTConfig) -> dict[str, str]:
    return {
        "patch_sizes": ",".join(str(p) for p in config.patch_sizes),
        "d_model": str(config.attention.d_model),
        "n_heads": str(config.attention.n_heads),
        "head_dim": str(config.attention.head_dim),
        "d_ff": str(config.attention.d_ff),
        "n_layers": str(config.attention.n_layers),
        "lookback": str(config.lookback),
        "instance_norm": "true" if config.instance_norm else "false",
        "instance_norm_eps": repr(config.instance_norm_eps),
        "p_min": repr(config.period_spec.p_min),
        "p_max": repr(config.period_spec.p_max),
    }


def config_from_echo(echo: dict[str, str]) -> ElasTSTConfig:
    try:
        attention = AttentionConfig(
            d_model=int(echo["d_model"]),
            n_heads=int(echo["n_heads"]),
            head_dim=int(echo["head_dim"]),
            d_ff=int(echo["d_ff"]),
            n_layers=int(echo["n_layers"]),
        )
        spec = PeriodSpec(
            p_min=float(echo["p_min"]),
            p_max=float(echo["p_max"]),
            head_dim=int(echo["head_dim"]),
        )
        return ElasTSTConfig(
            patch_sizes=tuple(int(p) for p in echo["patch_sizes"].split(",")),
            period_spec=spec,
            attention=attention,
            lookback=int(echo["lookback"]),
            instance_norm=echo.get("instance_norm", "true") == "true",
            instance_norm_eps=float(echo.get("instance_norm_eps", "1e-05")),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"checkpoint config echo is incomplete or invalid: {exc}") from exc


def write_checkpoint(
    path,
    state: ModelState,
    extra_echo: dict[str, str] | None = None,
    extra_arrays: list[tuple[str, np.ndarray]] | None = None,
) -> None:
    """Write the checkpoint file.

    Model parameters appear in the documented order; any ``extra_arrays``
    (e.g. optimizer moments) follow after the model block. The file is
    written next to ``path`` as ``<name>.tmp`` and then renamed over it, so
    a failed or interrupted write leaves an existing checkpoint whole.
    """
    echo = _config_echo(state.config)
    echo.update(extra_echo or {})
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write((CHECKPOINT_MAGIC + "\n").encode())
            for key, value in echo.items():
                f.write(f"{key}={value}\n".encode())
            f.write(b"\n")
            blocks = [(name, t.data) for name, t in state.parameters()]
            blocks += list(extra_arrays or [])
            for name, arr in blocks:
                mat = np.atleast_2d(np.asarray(arr, dtype=np.float64))
                f.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n".encode())
                f.write(mat.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_line(path, data: bytes, pos: int, what: str) -> tuple[str, int]:
    """The UTF-8 line starting at ``pos`` and the position after its newline."""
    nl = data.find(b"\n", pos)
    if nl < 0:
        raise FormatError(f"{path}: {what} has no end of line (file truncated?)")
    try:
        return data[pos:nl].decode(), nl + 1
    except UnicodeDecodeError:
        raise FormatError(f"{path}: {what} is not valid UTF-8") from None


def read_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse a checkpoint into (config echo, arrays by name in file order)."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    if end < 0:
        raise FormatError(f"{path}: not a checkpoint file")
    if data[:end].decode(errors="replace") != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic line, expected {CHECKPOINT_MAGIC!r}")
    pos = end + 1
    echo: dict[str, str] = {}
    while True:
        line, pos = _read_line(path, data, pos, "config echo line")
        if not line:
            break
        if "=" not in line:
            raise FormatError(f"{path}: malformed config echo line {line!r}")
        key, value = line.split("=", 1)
        echo[key] = value
    arrays: dict[str, np.ndarray] = {}
    while pos < len(data):
        header, pos = _read_line(path, data, pos, "parameter header")
        parts = header.rsplit(" ", 2)
        if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
            raise FormatError(f"{path}: malformed parameter header {header!r}")
        name, rows, cols = parts[0], int(parts[1]), int(parts[2])
        count = rows * cols * 8
        raw = data[pos : pos + count]
        if len(raw) != count:
            raise FormatError(f"{path}: truncated data for parameter {name!r}")
        pos += count
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
    return echo, arrays


def state_from_arrays(
    config: ElasTSTConfig, arrays: dict[str, np.ndarray], prefix: str = ""
) -> ModelState:
    """The model whose parameter ``name`` is the block ``prefix + name``."""
    state = ModelState.init(config, seed=0)
    for name, tensor in state.parameters():
        name = prefix + name
        if name not in arrays:
            raise FormatError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[name]
        if arr.size != tensor.data.size:
            raise FormatError(
                f"checkpoint parameter {name!r} has {arr.size} values, expected {tensor.data.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"checkpoint parameter {name!r} contains non-finite values")
        tensor.data = arr.reshape(tensor.data.shape).copy()
        tensor.grad = None
    return state


def load_model(path) -> tuple[ModelState, dict[str, str], dict[str, np.ndarray]]:
    """The model in a checkpoint, with its config echo and every block by name."""
    echo, arrays = read_checkpoint(path)
    return state_from_arrays(config_from_echo(echo), arrays), echo, arrays
