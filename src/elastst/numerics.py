"""Dense float64 tensors with a reverse-mode tape.

The engine is deliberately small: just enough operations to express a
patch-transformer forward pass and train it. Two properties drive the
implementation and are worth knowing before touching anything here:

* Forward evaluation is bitwise deterministic, and *prefix-stable*: when
  rows are appended to an operand (more patches for a longer horizon),
  the results for the pre-existing rows do not change at the bit level.
  Every forward matrix product, against a 2-D weight or a batched
  attention operand, runs as one GEMM call per block of 16 rows
  (``_ROW_BLOCK``; the last block zero-padded). Each call has the same
  dimensions however many rows the operand has. Fixed dimensions are not
  enough on their own: a longer horizon shifts a window's rows to other
  places in their blocks, so this also relies on the BLAS giving a row the
  same bytes at every place in a block (tested directly). Reductions use
  plain ``np.sum``; the model only reduces over axes whose length is fixed
  by the configuration and the lookback (features, context keys), never
  over an axis that grows with the horizon.
* No operation broadcasts implicitly. ``broadcast`` is the one op that
  repeats a tensor, along its length-1 axes, as a read-only view; its
  backward sums over those axes. A row computed once and broadcast has the
  bytes of the same row computed in every place, because every forward op
  is element-wise, row-wise or a fixed-block GEMM. The model uses this to
  carry one placeholder row for every window and position.
* The backward pass has no cross-shape stability requirement (gradients
  are only compared between runs with identical shapes), so it uses plain
  vectorized numpy for speed. The tape holds gradient slots (``Node``)
  and backward closures, never tensors: a closure holds its inputs' nodes
  and only the arrays and shapes its backward reads, so an activation no
  backward reads is freed when the forward code drops its tensor. Only
  tensors point at their graph, so a dropped tape is freed at once. Only
  leaves (parameters, inputs) keep ``.grad``; an op output's gradient is
  freed once its node has used it. One ownership rule: a closure owns the
  gradient it is handed and every array it hands on, so gradients are
  adopted and worked in place without copies (see ``_accum``).
* Every GELU MLP is one op, ``mlp``, with the bytes of its five-op
  composition. It takes GELU's derivative while recording, so its node
  keeps the input, that derivative and the GELU output; the pre-activation
  and the tanh values are freed in the forward pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

# rows per GEMM call for every forward product; do not vary per call site
_ROW_BLOCK = 16


class Node:
    """A tensor's gradient slot, which the tape and backward work on; it refers to no graph."""

    __slots__ = ("requires_grad", "grad")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None


class Tensor:
    """A float64 array that may participate in the recorded graph.

    ``requires_grad`` and ``grad`` read and write ``node``, which the tape
    keeps after the tensor is dropped; ``graph`` is the tape that recorded it.
    """

    __slots__ = ("data", "node", "graph", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(bool(requires_grad))
        self.graph: "Graph | None" = None

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.node.requires_grad = bool(value)

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Graph:
    """Ordered tape of executed differentiable operations.

    Ops record onto the innermost active graph (``with Graph() as g: ...``).
    The record order equals execution order; ``backward`` walks it in
    reverse, leaving ``.grad`` on leaves only. Each entry is an op output's
    node and its backward closure. ``clear`` drops them (and with them the
    arrays the closures keep); parameters live outside the tape and are
    untouched.
    """

    def __init__(self):
        self._nodes: list[tuple[Node, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _GRAPH_STACK.pop()

    def clear(self) -> None:
        self._nodes.clear()


_GRAPH_STACK: list[Graph] = []


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def record_op(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Attach ``out``'s node to the active tape if anything requires gradients.

    ``backward_fn`` must hold no tensor, only nodes and arrays: whatever it
    holds lives as long as the tape, and a tensor would point back at it.
    """
    node = out.node
    node.requires_grad = any(t.node.requires_grad for t in inputs)
    graph = _active_graph()
    if graph is not None and node.requires_grad:
        out.graph = graph
        graph._nodes.append((node, backward_fn))
    return out


def _accum(node: Node, g: np.ndarray) -> None:
    """Adopt ``g``, which the caller owns, as the node's first gradient, or add it in place."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


def backward(loss: Tensor) -> None:
    """Add the gradient of ``loss`` into ``grad`` of every leaf it reaches.

    Leaves are the requires_grad tensors no op produced (parameters, inputs);
    repeated calls accumulate into them. An op output's grad is freed as its
    node runs, so it ends ``None`` and a step peaks at about its activations.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    graph = loss.graph
    if graph is None:
        raise ContractError("loss was not produced by recorded operations")
    loss.grad = np.ones_like(loss.data)
    for node, backward_fn in reversed(graph._nodes):
        if node.grad is not None:
            g, node.grad = node.grad, None
            backward_fn(g)


# ---------------------------------------------------------------------------
# fixed-block GEMM


def _block_rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., M, k) @ (k, n) or (..., k, n), with every GEMM call of fixed dims.

    The M rows are split into blocks of ``_ROW_BLOCK``, and one broadcast
    ``np.matmul`` makes a (``_ROW_BLOCK``, k) @ (k, n) call per block. When
    M is a multiple of the block and the rows are unit-stride, the blocks
    are a reshape of ``a``; otherwise of a zero-padded copy. The calls are
    the same either way. With fixed call dimensions each output row is a
    pure function of its own input row, its place in its block and ``b``;
    with a BLAS that ignores the place, forward results depend neither on
    how many rows follow nor on where a row lands.
    """
    *lead, m, k = a.shape
    rows = -(-m // _ROW_BLOCK) * _ROW_BLOCK
    if rows != m or a.strides[-1] != a.itemsize:
        padded = np.zeros((*lead, rows, k))
        padded[..., :m, :] = a
        a = padded
    stacked = a.reshape(*lead, rows // _ROW_BLOCK, _ROW_BLOCK, k)
    rhs = b if b.ndim == 2 else b[..., None, :, :]
    out = np.matmul(stacked, rhs)
    return out.reshape(*lead, rows, b.shape[-1])[..., :m, :]


# ---------------------------------------------------------------------------
# operations
#
# A backward closure reads its inputs' nodes (``an`` for ``a.node``) and the
# arrays and shapes it needs, never a tensor: a tensor would pin its data.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. ``b`` is either a 2-D weight (applied row-wise to the
    flattened leading axes of ``a``) or a batched operand with the same
    leading dimensions as ``a``."""
    ad, bd = a.data, b.data
    an, bn = a.node, b.node
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {ad.shape} and {bd.shape}")
    if bd.ndim == 2:
        k = ad.shape[-1]
        if k != bd.shape[0]:
            raise DimensionError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
        flat = ad.reshape(-1, k)
        a_shape = ad.shape
        out = Tensor(_block_rows_matmul(flat, bd).reshape(a_shape[:-1] + (bd.shape[1],)))

        def backward_fn(g: np.ndarray) -> None:
            gf = g.reshape(-1, bd.shape[1])
            if an.requires_grad:
                _accum(an, np.matmul(gf, bd.T).reshape(a_shape))
            if bn.requires_grad:
                _accum(bn, np.matmul(flat.T, gf))

        return record_op(out, (a, b), backward_fn)

    if ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {ad.shape} vs {bd.shape}")
    out = Tensor(_block_rows_matmul(ad, bd))

    def backward_fn(g: np.ndarray) -> None:
        if an.requires_grad:
            _accum(an, np.matmul(g, bd.swapaxes(-1, -2)))
        if bn.requires_grad:
            _accum(bn, np.matmul(ad.swapaxes(-1, -2), g))

    return record_op(out, (a, b), backward_fn)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op} needs equal shapes, got {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    an, bn = a.node, b.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(an, g)
        _accum(bn, np.copy(g) if an.requires_grad else g)  # a adopts g, so b gets its own

    return record_op(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    out = Tensor(a.data - b.data)
    an, bn = a.node, b.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(an, g)
        _accum(bn, -g)

    return record_op(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    an, bn = a.node, b.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(an, g * bd)
        _accum(bn, g * ad)

    return record_op(out, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Scalar-by-tensor product (the one permitted broadcast)."""
    c = float(c)
    out = Tensor(a.data * c)
    an = a.node

    def backward_fn(g: np.ndarray) -> None:
        g *= c
        _accum(an, g)

    return record_op(out, (a,), backward_fn)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis (explicit, not implicit broadcast)."""
    if b.data.ndim != 1 or b.data.shape[0] != x.data.shape[-1]:
        raise DimensionError(f"bias_add needs ({x.data.shape[-1]},) bias, got {b.data.shape}")
    out = Tensor(x.data + b.data)
    xn, bn = x.node, b.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(xn, g)
        if bn.requires_grad:
            _accum(bn, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return record_op(out, (x, b), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    # row-major whatever the inputs' layouts: numpy lays out a concatenation
    # with a broadcast input along the broadcast strides, and a reduction over
    # a strided last axis would then sum in another order
    out = Tensor(np.ascontiguousarray(np.concatenate([t.data for t in tensors], axis=axis)))
    parts = [(t.node, t.data.shape[axis]) for t in tensors]

    def backward_fn(g: np.ndarray) -> None:
        start = 0
        for node, s in parts:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            _accum(node, g[tuple(sl)])  # the slices are disjoint
            start += s

    return record_op(out, tuple(tensors), backward_fn)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Indices ``start:stop`` of ``axis``, as a view of ``x``'s data."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = Tensor(x.data[sl])
    xn, x_shape = x.node, x.data.shape

    def backward_fn(g: np.ndarray) -> None:
        if xn.requires_grad:
            full = np.zeros(x_shape)
            full[sl] = g
            _accum(xn, full)

    return record_op(out, (x,), backward_fn)


def broadcast(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x`` repeated along its length-1 axes to ``shape``, as a read-only
    view; the gradient sums over those axes. ``x`` itself at equal shape."""
    shape = tuple(shape)
    xs = x.data.shape
    if xs == shape:
        return x
    if len(xs) != len(shape) or any(s not in (1, t) for s, t in zip(xs, shape)):
        raise DimensionError(f"cannot broadcast {xs} to {shape}")
    axes = tuple(i for i, (s, t) in enumerate(zip(xs, shape)) if s != t)
    out = Tensor(np.broadcast_to(x.data, shape))
    xn = x.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(xn, g.sum(axis=axes, keepdims=True))

    return record_op(out, (x,), backward_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    xn, x_shape = x.node, x.data.shape

    def backward_fn(g: np.ndarray) -> None:
        _accum(xn, g.reshape(x_shape))

    return record_op(out, (x,), backward_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(np.argsort(axes))
    xn = x.node

    def backward_fn(g: np.ndarray) -> None:
        _accum(xn, np.transpose(g, inverse))

    return record_op(out, (x,), backward_fn)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu(h: np.ndarray, out: np.ndarray | None, slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU (tanh approximation) of ``h`` into ``out`` (``h`` itself, or
    None for a new array), and with ``slope`` twice its derivative,
    ``(t + 1) + h (1 - t²) C (1 + 3A h²)``; ``t`` and the slope are taken
    before ``out`` is written."""
    t = h * h  # t = tanh(C * (h + A * h² * h)), built in one buffer
    t *= _GELU_A
    t *= h
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    d = None
    if slope:
        d = h * (3.0 * _GELU_A)  # d = C * (1 + 3A * h * h)
        d *= h
        d += 1.0
        d *= _GELU_C
        term = t * t  # term = h * (1 - t²) * d
        np.subtract(1.0, term, out=term)
        term *= h
        term *= d
        d = np.add(t, 1.0, out=d)
        d += term
    y = np.multiply(h, 0.5, out=out)  # (0.5 h)(1 + t)
    t += 1.0
    y *= t
    return y, d


def _recording(*inputs: Tensor) -> bool:
    """Whether ``record_op`` puts an op of ``inputs`` on a tape."""
    return _active_graph() is not None and any(t.node.requires_grad for t in inputs)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation; the gradient is of the approximation."""
    y, slope = _gelu(x.data, None, _recording(x))
    out = Tensor(y)
    xn = x.node

    def backward_fn(g: np.ndarray) -> None:
        g *= 0.5
        g *= slope
        _accum(xn, g)

    return record_op(out, (x,), backward_fn)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``bias_add(matmul(gelu(bias_add(matmul(x, w1), b1)), w2), b2)`` as one
    tape op, with the same bytes forward and backward.

    The bias and GELU work in place on the first product. GELU's slope is
    taken only when the op is recorded and ``x``, ``w1`` or ``b1`` needs a
    gradient. The closure keeps ``x``, the slope and the GELU output, not
    the pre-activation or the tanh buffer.
    """
    xd, w1d, b1d, w2d, b2d = x.data, w1.data, b1.data, w2.data, b2.data
    if (
        xd.ndim < 2 or w1d.ndim != 2 or w2d.ndim != 2
        or xd.shape[-1] != w1d.shape[0] or w1d.shape[1] != w2d.shape[0]
        or b1d.shape != (w1d.shape[1],) or b2d.shape != (w2d.shape[1],)
    ):
        raise DimensionError(
            f"mlp shapes disagree: x {xd.shape}, w1 {w1d.shape}, b1 {b1d.shape}, w2 {w2d.shape}, b2 {b2d.shape}"
        )
    flat = xd.reshape(-1, xd.shape[-1])
    h = _block_rows_matmul(flat, w1d)
    h += b1d
    hidden, slope = _gelu(h, h, _recording(x, w1, b1))
    y = _block_rows_matmul(hidden, w2d)
    y += b2d
    out = Tensor(y.reshape(xd.shape[:-1] + (w2d.shape[1],)))
    xn, w1n, b1n, w2n, b2n, x_shape = x.node, w1.node, b1.node, w2.node, b2.node, xd.shape

    def backward_fn(g: np.ndarray) -> None:
        gf = g.reshape(-1, g.shape[-1])
        if b2n.requires_grad:
            _accum(b2n, gf.sum(axis=0))
        if w2n.requires_grad:
            _accum(w2n, np.matmul(hidden.T, gf))
        if slope is not None:  # x, w1 or b1 took part in recording
            dh = np.matmul(gf, w2d.T)
            dh *= 0.5
            dh *= slope
            if b1n.requires_grad:
                _accum(b1n, dh.sum(axis=0))
            if xn.requires_grad:
                _accum(xn, np.matmul(dh, w1d.T).reshape(x_shape))
            if w1n.requires_grad:
                _accum(w1n, np.matmul(flat.T, dh))

    return record_op(out, (x, w1, b1, w2, b2), backward_fn)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction.

    Each row needs at least one finite entry (an all -inf row gives NaN);
    -inf entries then map to exactly 0.
    """
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] < 1:
        raise DimensionError(f"softmax_lastdim needs a non-empty last axis, got {xd.shape}")
    y = xd - np.max(xd, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    out = Tensor(y)
    xn = x.node

    def backward_fn(g: np.ndarray) -> None:
        gy = g * y
        inner = np.sum(gy, axis=-1, keepdims=True)
        dx = np.subtract(g, inner, out=gy)
        dx *= y
        _accum(xn, dx)

    return record_op(out, (x,), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine must match last dim {d}, got {gain.data.shape} and {bias.data.shape}"
        )
    # The feature axis has a config-fixed length, so np.sum's reduction tree
    # is identical for every row and every horizon.
    xd = x.data
    mu = np.sum(xd, axis=-1, keepdims=True) / d
    xc = xd - mu
    sq = xc * xc
    var = np.sum(sq, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    ynorm = xc
    ynorm *= inv
    np.multiply(ynorm, gain.data, out=sq)  # the output, over the squares
    sq += bias.data
    out = Tensor(sq)
    xn, gn, bn, gd = x.node, gain.node, bias.node, gain.data

    def backward_fn(g: np.ndarray) -> None:
        lead = tuple(range(g.ndim - 1))
        if bn.requires_grad:
            _accum(bn, np.sum(g, axis=lead))
        tmp = g * ynorm
        if gn.requires_grad:
            _accum(gn, np.sum(tmp, axis=lead))
        if xn.requires_grad:
            gg = np.multiply(g, gd, out=g)
            mean_gg = np.mean(gg, axis=-1, keepdims=True)
            mean_ggy = np.mean(np.multiply(gg, ynorm, out=tmp), axis=-1, keepdims=True)
            dx = gg
            dx -= mean_gg
            dx -= np.multiply(ynorm, mean_ggy, out=tmp)
            dx *= inv
            _accum(xn, dx)

    return record_op(out, (x, gain, bias), backward_fn)


def mse(pred: Tensor, target: Tensor, weights: Tensor) -> Tensor:
    """Weighted squared error: sum of weights * (pred - target)^2.

    No hidden normalization; the weights carry all of it.
    """
    _require_same_shape("mse", pred, target)
    _require_same_shape("mse", pred, weights)
    diff = pred.data - target.data
    wd = weights.data
    out = Tensor(np.sum(wd * diff * diff))
    pn, tn, wn = pred.node, target.node, weights.node

    def backward_fn(g: np.ndarray) -> None:
        gs = float(g)
        if pn.requires_grad:
            _accum(pn, gs * 2.0 * wd * diff)
        if tn.requires_grad:
            _accum(tn, gs * -2.0 * wd * diff)
        if wn.requires_grad:
            _accum(wn, gs * diff * diff)

    return record_op(out, (pred, target, weights), backward_fn)


# ---------------------------------------------------------------------------
# verification harness


FD_STEP = 1e-5  # central-difference step of ``finite_diff_report``


def finite_diff_report(f: Callable[[], Tensor], named_params: Sequence[tuple[str, Tensor]]) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients,
    per named parameter.

    ``f`` evaluates the scalar loss from the current contents of the
    parameters. Relative error is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|).
    """
    for _, p in named_params:
        p.grad = None
    with Graph():
        loss = f()
    if loss.graph is not None:  # a loss independent of every parameter records nothing
        backward(loss)
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in named_params
    }
    report: dict[str, float] = {}
    for name, p in named_params:
        flat = p.data.reshape(-1)
        a = analytic[name].reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = float(f().data)
            flat[idx] = orig - FD_STEP
            f_minus = float(f().data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = abs(a[idx] - numeric) / max(1e-8, abs(a[idx]) + abs(numeric))
            worst = max(worst, err)
        report[name] = worst
    return report
