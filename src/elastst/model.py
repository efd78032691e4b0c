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

``forward_batch`` can forecast one range of steps at a time, each from the
previous range's ``Forecast``; a training step (``training.step_gradients``)
walks its horizon so, in aligned step blocks (``step_blocks``). A block is the
largest multiple of lcm(patch sizes) that is at most ``STEP_BLOCK``
steps, or that lcm when it is larger, so no patch spans two blocks.
Placeholders are never keys, so the loss is a sum over positions: each
block records its forecast and its share of the loss on one tape, runs
backward from that share into the weights and the context keys, and
drops the tape. While recording, each size's context pass goes on a tape
of its own, and the call whose steps end the horizon copies it onto the
active tape just before that size's stream, so the last block's backward
walks each size's context pass right after its stream, sizes in reverse
order, as one whole-horizon tape does. A horizon that fits in one block
therefore gives the whole tape's loss and gradients byte for byte; above
one block the keys gather their gradients block by block, the loss and
gradients move by rounding only, and the logged ``train_loss`` can move
in its last digit.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .backbone import MLP, AttentionConfig, LayerWeights, transformer_block
from .errors import DimensionError, FormatError, ParameterError
from .numerics import Graph, Tensor
from .patching import grid_dims, segment_batch, unpatch
from .trope import PeriodSpec, TunablePeriods, init_periods

CHECKPOINT_MAGIC = "ELASTST-CKPT v1"

# rows per chunk of the placeholder stream: max(1, ROWS // B) positions of
# B windows; any value gives the same bytes
ROWS = 512

# steps per training block, rounded down to a multiple of lcm(patch sizes)
STEP_BLOCK = 256

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

    @classmethod
    def from_settings(cls, get) -> "ElasTSTConfig":
        """The config of the ten settings named as in the checkpoint echo, ``get(name)``
        giving each parsed value. The periods come first: a bad ``head_dim`` gets their message."""
        period_spec = PeriodSpec(get("p_min"), get("p_max"), get("head_dim"))
        attention = AttentionConfig(*(get(key) for key in ("d_model", "n_heads", "head_dim", "d_ff", "n_layers")))
        return cls(get("patch_sizes"), period_spec, attention, get("lookback"), get("instance_norm"))


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
    normalized scale (loss inputs), T the steps forecast. ``values`` carries
    the assembled forecast mapped back to the model-input scale. When the
    steps end before the horizon, ``encoded`` holds each patch size's encoded
    contexts for the call that forecasts the rest: the shared placeholder row,
    each layer's keys and values, the context patch count and the tape of its
    context pass (None when nothing recorded it)."""

    per_size: list[Tensor]
    assembled: Tensor
    offset: np.ndarray  # (B,) instance-norm mean (zeros when normalization is off)
    denom: np.ndarray  # (B,) instance-norm scale (ones when normalization is off)
    values: np.ndarray  # (B, T)
    contexts: np.ndarray | None = None  # (B, L) the contexts forecast from, as given
    encoded: list[tuple[Tensor, list, int, Graph | None]] | None = None


def step_blocks(horizon: int, patch_sizes) -> list[tuple[int, int]]:
    """The aligned step blocks ``(lo, hi)`` that cover steps 0..horizon-1
    (see the module docstring); the last one ends at ``horizon``."""
    lcm = math.lcm(*patch_sizes)
    size = max(lcm, STEP_BLOCK // lcm * lcm)
    return [(lo, min(lo + size, horizon)) for lo in range(0, horizon, size)]


def _normalize(cfg: ElasTSTConfig, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The instance statistics ``offset`` and ``denom`` of each (B, L)
    context and the contexts they normalize."""
    if cfg.instance_norm:
        offset = contexts.mean(axis=1)
        denom = contexts.std(axis=1) + INSTANCE_NORM_EPS
    else:  # x - 0.0 and x / 1.0 are x, bit for bit
        offset = np.zeros(contexts.shape[0])
        denom = np.ones(contexts.shape[0])
    return offset, denom, (contexts - offset[:, None]) / denom[:, None]


def _context_pass(state: ModelState, normed: np.ndarray, p: int) -> tuple[Tensor, list, int, Graph | None]:
    """Patch size ``p``'s entry of ``Forecast.encoded`` for the normalized
    contexts, recorded on a tape of its own while a tape is active."""
    tape = Graph() if nm.recording() else None
    with tape or nullcontext():
        n_c = grid_dims(normed.shape[1], 0, p)[0]
        coder = state.coders[p]
        rows = coder.enc(Tensor(segment_batch(normed, p)))
        ph = coder.enc(Tensor(np.zeros((1, 1, p))))  # every placeholder patch, encoded once
        keys = []
        last = len(state.layers) - 1
        for i, layer in enumerate(state.layers):
            # the decoder reads no context row, so the last layer computes keys only
            rows, layer_keys = transformer_block(rows, np.arange(n_c if i < last else 0), state.periods, layer)
            keys.append(layer_keys)
    return ph, keys, n_c, tape


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


def forward_batch(
    state: ModelState,
    contexts: np.ndarray,
    horizon: int,
    previous: Forecast | None = None,
    steps: tuple[int, int] | None = None,
) -> Forecast:
    """Forecast steps ``lo..hi-1`` of ``horizon`` (``steps``; all of them
    by default) for a batch of equal-length contexts. ``lo`` must be a
    multiple of every patch size. ``previous``, an earlier forecast of the same
    contexts (equal in shape and value) that ended before the horizon, lends its instance
    statistics and ``encoded`` contexts; the module docstring says where their tapes are walked."""
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[1] < 1:
        raise ParameterError(f"contexts must be (B, L) with L >= 1, got {contexts.shape}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    cfg = state.config
    lo, hi = (0, horizon) if steps is None else steps
    if not 0 <= lo < hi <= horizon or any(lo % p for p in cfg.patch_sizes):
        raise ParameterError(
            f"steps must be lo..hi within 0..{horizon} with lo a multiple of every patch size, got {lo}..{hi}"
        )
    if previous is None:
        offset, denom, normed = _normalize(cfg, contexts)
        sizes = (_context_pass(state, normed, p) for p in cfg.patch_sizes)  # each just before its stream
    elif previous.encoded is None:
        raise ParameterError("previous forecast carries no encoded contexts: its steps ended at the horizon")
    elif not np.array_equal(contexts, previous.contexts, equal_nan=True):
        raise ParameterError("contexts differ from those the previous forecast was made from")
    else:
        offset, denom, sizes = previous.offset, previous.denom, previous.encoded

    per_size: list[Tensor] = []
    kept = []
    for p, (ph, keys, n_c, tape) in zip(cfg.patch_sizes, sizes):
        if hi < horizon:  # a later call forecasts the rest of the horizon against these
            kept.append((ph, keys, n_c, tape))
        elif tape is not None:
            nm.record_tape(tape)
        positions = np.arange(n_c + lo // p, n_c + grid_dims(0, hi, p)[1])
        decoded = _placeholder_stream(state, state.coders[p], ph, keys, positions, contexts.shape[0])
        per_size.append(unpatch(decoded, hi - lo))  # decoded: (B, n, p)

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
        contexts=contexts,
        encoded=kept if hi < horizon else None,
    )


def composite_loss(forecast: Forecast, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean of the per-size weighted losses and the assembled one.

    ``target`` is on the model-input scale and is normalized here with the
    forecast's instance statistics; ``weights`` carry all normalization (a
    1-D weight vector is tiled across the batch unchanged). Both reach ``mse``
    as plain arrays, so only the forecasts take gradients.
    """
    shape = forecast.assembled.data.shape
    target = np.asarray(target, dtype=np.float64)
    if target.shape != shape:
        raise DimensionError(f"target shape {target.shape} does not match forecast {shape}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape == shape[1:]:
        weights = np.broadcast_to(weights, shape)
    if weights.shape != shape:
        raise DimensionError(f"weights shape {weights.shape} does not match forecast {shape}")

    normalized = (target - forecast.offset[:, None]) / forecast.denom[:, None]
    acc = nm.mse(forecast.per_size[0], normalized, weights)
    for series in forecast.per_size[1:]:
        acc = nm.add(acc, nm.mse(series, normalized, weights))
    acc = nm.add(acc, nm.mse(forecast.assembled, normalized, weights))
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


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as patch sizes are written."""
    return tuple(int(p) for p in text.split(","))


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


_ECHO_PARSERS = {"patch_sizes": int_list, "instance_norm": _flag, "p_min": float, "p_max": float}  # else int


def _config_from_echo(path, echo: dict[str, str]) -> ElasTSTConfig:
    lookup(path, echo, "instance_norm_eps", _norm_eps)  # a constant, echoed for readers of the file
    try:
        return ElasTSTConfig.from_settings(lambda key: lookup(path, echo, key, _ECHO_PARSERS.get(key, int)))
    except ParameterError as exc:
        raise FormatError(f"{path}: checkpoint config echo is invalid: {exc}") from None


def temp_path(path) -> Path:
    """``<name>.tmp`` next to ``path``, the file ``write_checkpoint`` writes through."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


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
    tmp = temp_path(path)
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
    values than all the blocks hold before it is allocated. Every block must
    be the model's or the Adam moment of one (``opt.m.`` or ``opt.v.`` before
    its name), so an echo edited to drop a layer or a patch size is refused."""
    echo, arrays = read_checkpoint(path)
    config = _config_from_echo(path, echo)
    needed, held = _parameter_count(config), sum(arr.size for arr in arrays.values())
    if needed > held:
        raise FormatError(f"{path}: config echo describes a model of {needed} values, the blocks hold {held}")
    state = ModelState.init(config, seed=0)
    leaves = [(name, t.data) for name, t in state.trainable()]
    fill_leaves(path, state, arrays, leaves)
    known = {prefix + name for name, _ in state.blocks(leaves) for prefix in ("", "opt.m.", "opt.v.")}
    unread = [name for name in arrays if name not in known]
    if unread:
        raise FormatError(f"{path}: checkpoint block {unread[0]!r} is no block of the model its config echo describes")
    return state, echo, arrays


def fill_leaves(path, state: ModelState, arrays: dict, leaves: list[tuple[str, np.ndarray]], prefix: str = "") -> None:
    """Fill arrays named and shaped as ``state.trainable()`` (weights or
    moments) in place from the blocks ``prefix + name`` of ``arrays``,
    through their ``blocks`` views and in file order, so an error names the
    first missing or bad block."""
    for name, block in state.blocks(leaves):
        block[...] = lookup(path, arrays, prefix + name, finite_block(block.shape))
