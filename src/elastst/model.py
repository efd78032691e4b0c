"""The assembled forecaster: per-patch-size coders around a shared backbone.

Each patch size gets its own encoder (patch -> D -> D) and decoder
(D -> D -> patch), both the GELU ``MLP`` of the backbone FFN. The
transformer backbone and the rotary periods are shared across sizes;
sizes are processed sequentially and the flattened per-size forecasts
are averaged into the assembled forecast.

Per size, ``forward_batch`` makes two passes. The context pass runs the
context patches through every layer once and keeps each layer's keys and
values; its last layer computes nothing else, since the decoder reads no
context row. The placeholder stream then runs the placeholder rows
through every layer and the decoder against those keys, ``ROWS // B``
positions at a time, and concatenates the decoded chunks. Every
placeholder patch is zeros, so the placeholders enter the stream as one
constant row, the encoding of one zero patch, shared by every window and
position; they become (B, n, D) rows when the first layer mixes in the
context. Placeholders are never keys, so a placeholder row depends only
on the context and its own position: any chunking gives the same bytes,
and inference memory is bounded by one chunk plus the outputs.
Instance normalization (per-window context mean/std, inverted on output)
is on by default; the loss is computed on the normalized scale.
"""

from __future__ import annotations

import os
from copy import deepcopy
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

# rows per chunk of the placeholder stream: max(1, ROWS // B) positions of
# B windows; any value gives the same bytes
ROWS = 512

# added to each context's std before instance normalization divides by it
INSTANCE_NORM_EPS = 1e-5


@dataclass(frozen=True)
class ElasTSTConfig:
    patch_sizes: tuple[int, ...]
    period_spec: PeriodSpec
    attention: AttentionConfig
    lookback: int
    instance_norm: bool = True

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

    def trainable(self) -> list[tuple[str, Tensor]]:
        named = [(f"enc.{n}", t) for n, t in self.enc.trainable()]
        return named + [(f"dec.{n}", t) for n, t in self.dec.trainable()]


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
        np.empty(_parameter_count(config))  # numpy refuses a model too large to hold before a layer is drawn
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        coders = {p: SizeCoder(p, config.attention.d_model, rng) for p in config.patch_sizes}
        layers = [LayerWeights(config.attention, rng) for _ in range(config.attention.n_layers)]
        return cls(config, coders, layers, init_periods(config.period_spec))

    def trainable(self) -> list[tuple[str, Tensor]]:
        """The tensors that take gradients, in a fixed, documented order: per
        patch size ascending (encoder then decoder), backbone layers in depth
        order, rotary periods last. A layer's query, key and value maps are
        one (D, heads·hd) weight each, ``wq``, ``wk`` and ``wv``."""
        named: list[tuple[str, Tensor]] = []
        for p in self.config.patch_sizes:
            named += [(f"size{p}.{n}", t) for n, t in self.coders[p].trainable()]
        for i, layer in enumerate(self.layers):
            named += [(f"backbone.{i}.{n}", t) for n, t in layer.trainable()]
        named.append(("trope.log_periods", self.periods.log_periods))
        return named

    def blocks(self, named: list[tuple[str, np.ndarray]]) -> list[tuple[str, np.ndarray]]:
        """Arrays named and ordered as ``trainable()`` (weights, gradients or
        moments) as the checkpoint's blocks, in file order. A layer's ``wq``,
        ``wk`` and ``wv`` become column views ``head{i}.wq``, ``head{i}.wk``,
        ``head{i}.wv``, head by head; every other array passes through."""
        heads, hd = self.config.attention.n_heads, self.config.attention.head_dim
        arrays = dict(named)
        out = []
        for name, arr in named:
            layer, _, leaf = name.rpartition(".")
            if leaf == "wq":
                out += [
                    (f"{layer}.head{i}.{w}", arrays[f"{layer}.{w}"][:, i * hd : (i + 1) * hd])
                    for i in range(heads)
                    for w in ("wq", "wk", "wv")
                ]
            elif leaf not in ("wk", "wv"):
                out.append((name, arr))
        return out

    def parameters(self) -> list[tuple[str, Tensor]]:
        """The parameters by checkpoint block, the unit of the file:
        ``blocks`` of the ``trainable()`` weights. Each tensor shares its
        block's memory, so in-place writes reach the model; gradients
        accumulate on, and Adam updates, ``trainable()``."""
        return [(name, Tensor(block)) for name, block in self.blocks([(n, t.data) for n, t in self.trainable()])]

    def copy(self) -> "ModelState":
        """A clone with equal arrays of its own and no gradients."""
        no_grads = {id(t.grad): None for _, t in self.trainable() if t.grad is not None}
        return deepcopy(self, no_grads)  # the memo stands None in for every gradient


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


def _placeholder_stream(state: ModelState, coder: SizeCoder, ph: Tensor, keys: list, positions, b: int) -> Tensor:
    """The decoded placeholder rows (B, n_h, p) at ``positions``, from the
    shared row ``ph`` and each layer's context ``keys``, computed
    ``max(1, ROWS // B)`` positions at a time."""
    step = max(1, ROWS // b)
    decoded = []
    for start in range(0, len(positions), step):
        rows = ph
        for layer, layer_keys in zip(state.layers, keys):
            rows, _ = transformer_block(rows, positions[start : start + step], state.periods, layer, layer_keys)
        decoded.append(coder.dec(rows))
    return nm.concat(decoded, axis=1)


def forward_batch(state: ModelState, contexts: np.ndarray, horizon: int) -> Forecast:
    """Run the model over a batch of equal-length contexts."""
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[1] < 1:
        raise ParameterError(f"contexts must be (B, L) with L >= 1, got {contexts.shape}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    cfg = state.config
    b, length = contexts.shape

    if cfg.instance_norm:
        offset = contexts.mean(axis=1)
        denom = contexts.std(axis=1) + INSTANCE_NORM_EPS
    else:  # x - 0.0 and x / 1.0 are x, bit for bit
        offset = np.zeros(b)
        denom = np.ones(b)
    normed = (contexts - offset[:, None]) / denom[:, None]

    per_size: list[Tensor] = []
    last = len(state.layers) - 1
    for p in cfg.patch_sizes:
        n_c, n_h = grid_dims(length, horizon, p)[:2]
        coder = state.coders[p]
        rows = coder.enc(Tensor(segment_batch(normed, p)))
        ph = coder.enc(Tensor(np.zeros((1, 1, p))))  # every placeholder patch, encoded once
        keys = []
        for i, layer in enumerate(state.layers):
            # the decoder reads no context row, so the last layer computes keys only
            rows, layer_keys = transformer_block(rows, np.arange(n_c if i < last else 0), state.periods, layer)
            keys.append(layer_keys)
        decoded = _placeholder_stream(state, coder, ph, keys, np.arange(n_c, n_c + n_h), b)
        per_size.append(unpatch(decoded, horizon))  # decoded: (B, n_h, p)

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
        "instance_norm_eps": repr(INSTANCE_NORM_EPS),
        "p_min": repr(config.period_spec.p_min),
        "p_max": repr(config.period_spec.p_max),
    }


def lookup(path, table: dict, key: str, parse):
    """``parse(table[key])``, the one checked lookup of checkpoint echo fields
    and blocks: a missing key, or a value that ``parse`` rejects with a
    ``ValueError``, is a ``FormatError`` that starts with ``path``."""
    if key not in table:
        raise FormatError(f"{path}: checkpoint is missing {key!r}")
    try:
        return parse(table[key])
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint {key!r} is invalid: {exc}") from None


def finite_block(shape: tuple[int, ...]):
    """The ``lookup`` parser of a block: a fresh array of ``shape``, all
    finite, stored as ``write_checkpoint`` writes it (a vector as one row)."""
    stored = shape if len(shape) == 2 else (1, *shape)

    def parse(arr: np.ndarray) -> np.ndarray:
        block = np.asarray_chkfinite(arr).reshape(shape)
        if arr.shape != stored:
            raise ValueError(f"block is stored as {arr.shape[0]} x {arr.shape[1]}, expected {stored[0]} x {stored[1]}")
        return block.copy()

    return parse


def _norm_eps(text: str) -> float:
    value = float(text)
    if value != INSTANCE_NORM_EPS:
        raise ValueError(f"must be {INSTANCE_NORM_EPS!r}, got {value!r}")
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _config_from_echo(path, echo: dict[str, str]) -> ElasTSTConfig:
    def field(key, parse=int):
        return lookup(path, echo, key, parse)

    field("instance_norm_eps", _norm_eps)  # a constant, echoed for readers of the file
    try:
        attention = AttentionConfig(*(field(key) for key in ("d_model", "n_heads", "head_dim", "d_ff", "n_layers")))
        return ElasTSTConfig(
            patch_sizes=field("patch_sizes", lambda text: tuple(int(p) for p in text.split(","))),
            period_spec=PeriodSpec(field("p_min", float), field("p_max", float), attention.head_dim),
            attention=attention,
            lookback=field("lookback"),
            instance_norm=field("instance_norm", _flag),
        )
    except ParameterError as exc:
        raise FormatError(f"{path}: checkpoint config echo is invalid: {exc}") from None


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


def _parameter_count(config: ElasTSTConfig) -> int:
    """The number of values ``ModelState.init(config)`` allocates."""
    a = config.attention
    d = a.d_model
    coders = sum(2 * p * d + 2 * d * d + 3 * d + p for p in config.patch_sizes)
    layer = 4 * d * a.n_heads * a.head_dim + 2 * d * a.d_ff + a.d_ff + 5 * d
    return coders + a.n_layers * layer + a.head_dim // 2


def load_model(path) -> tuple[ModelState, dict[str, str], dict[str, np.ndarray]]:
    """The model in a checkpoint, with its config echo and every block by name.
    The echo could name a model of any size, so its model must need no more
    values than all the blocks hold before it is allocated."""
    echo, arrays = read_checkpoint(path)
    config = _config_from_echo(path, echo)
    needed, held = _parameter_count(config), sum(arr.size for arr in arrays.values())
    if needed > held:
        raise FormatError(f"{path}: config echo describes a model of {needed} values, the blocks hold {held}")
    state = ModelState.init(config, seed=0)
    fill_leaves(path, state, arrays, [(name, t.data) for name, t in state.trainable()])
    return state, echo, arrays


def fill_leaves(path, state: ModelState, arrays: dict, leaves: list[tuple[str, np.ndarray]], prefix: str = "") -> None:
    """Fill arrays named and shaped as ``state.trainable()`` (weights or
    moments) in place from the blocks ``prefix + name`` of ``arrays``,
    through their ``blocks`` views and in file order, so an error names the
    first missing or bad block."""
    for name, block in state.blocks(leaves):
        block[...] = lookup(path, arrays, prefix + name, finite_block(block.shape))
