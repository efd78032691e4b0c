"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side only: while installed, the
tracer replaces each public ``elastst`` function at the module attribute
where its callers look it up (``elastst.model.transformer_block`` is what
``forward_batch`` calls, ``elastst.training.forward_batch`` is what the
training loop calls) and restores the originals on exit. Backward time
per op comes from wrapping the backward closure each op hands to
``numerics.record_op``.

Spans nest: a span's self time is its duration minus the time of the
spans that ran inside it. Totals are aggregated in memory per span name;
no per-call records are kept, since a training round makes ~10^5 calls.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from elastst import data_io, evaluation, model, numerics, training, trope

# span -> every (module, attribute) a caller resolves the function through
FUNCTION_SPANS = {
    "model.forward_batch": [(model, "forward_batch"), (training, "forward_batch"), (evaluation, "forward_batch")],
    "backbone.transformer_block": [(model, "transformer_block")],
    "patching.segment_batch": [(model, "segment_batch")],
    "model.composite_loss": [(training, "composite_loss")],
    "model.write_checkpoint": [(model, "write_checkpoint"), (training, "write_checkpoint")],
    "model.read_checkpoint": [(model, "read_checkpoint")],
    "training.train": [(training, "train")],
    "training.adam_step": [(training, "adam_step")],
    "training.validation_nmae": [(training, "validation_nmae")],
    "numerics.backward": [(training, "backward")],
    "data_io.load_csv": [(data_io, "load_csv")],
    "data_io.split_and_scale": [(data_io, "split_and_scale")],
    "data_io.sample_windows": [(data_io, "sample_windows")],
    "data_io.stride_windows": [(data_io, "stride_windows")],
    "evaluation.varied_horizon_eval": [(evaluation, "varied_horizon_eval")],
    "evaluation.nmae": [(evaluation, "nmae")],
    "evaluation.nrmse": [(evaluation, "nrmse")],
}
SELF_TIMED = ("model.forward_batch", "training.train", "evaluation.varied_horizon_eval")

# tape ops: forward and backward time each; numerics.matmul is split below
OP_SPANS = {
    "numerics.softmax_lastdim": [(numerics, "softmax_lastdim")],
    "numerics.gelu": [(numerics, "gelu")],
    "numerics.layer_norm": [(numerics, "layer_norm")],
    "numerics.bias_add": [(numerics, "bias_add")],
    "numerics.mse": [(numerics, "mse")],
    "numerics.glue": [
        (numerics, name)
        for name in ("add", "sub", "mul", "scale", "reshape", "transpose", "concat", "slice_axis")
    ],
    "trope.rotate": [(trope, "rotate")],
}
MATMUL_WEIGHT = "numerics.matmul_weight"  # 2-D weight operand: the block-row GEMM
MATMUL_BATCHED = "numerics.matmul_batched"  # attention scores and value mix
OPS = (MATMUL_BATCHED, MATMUL_WEIGHT, *OP_SPANS)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Totals:
    """Aggregated span durations, self times, call counts and work counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)


class Tracer:
    def __init__(self):
        self.totals = Totals()
        self._children: list[float] = []  # time covered by child spans, per open span
        self._op: str | None = None  # tape op currently running its forward

    def take(self) -> Totals:
        """Return the totals so far and start new ones."""
        done, self.totals = self.totals, Totals()
        return done

    def _timed(self, name: str, fn, counter=None):
        def wrapped(*args, **kwargs):
            if counter is not None:
                counter(self.totals.counters, args, kwargs)
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = self._children.pop()
                t = self.totals
                t.total[name] += duration
                t.self_time[name] += duration - child
                t.calls[name] += 1
                if self._children:
                    self._children[-1] += duration

        return wrapped

    def _op_span(self, name_of, fn):
        """Forward span of a tape op; ``name_of(args)`` names the op."""
        spans: dict[str, object] = {}

        def wrapped(*args, **kwargs):
            name = name_of(args)
            if name not in spans:
                spans[name] = self._timed(name, fn, _OP_COUNTERS.get(name))
            outer, self._op = self._op, name
            try:
                return spans[name](*args, **kwargs)
            finally:
                self._op = outer

        return wrapped

    def _record_op(self, real):
        def record_op(out, inputs, backward_fn):
            if self._op is not None:
                backward_fn = self._timed(self._op + ".bwd", backward_fn)
            out = real(out, inputs, backward_fn)
            if out.graph is not None:
                self.totals.counters["numerics.tape_ops"] += 1
            return out

        return record_op

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patches = []
        for span, sites in FUNCTION_SPANS.items():
            for module, attr in sites:
                real = getattr(module, attr)
                patches.append((module, attr, real, self._timed(span, real, _FUNCTION_COUNTERS.get(span))))
        for op, sites in OP_SPANS.items():
            for module, attr in sites:
                real = getattr(module, attr)
                patches.append((module, attr, real, self._op_span(lambda args, op=op: op, real)))
        real = numerics.matmul
        patches.append((numerics, "matmul", real, self._op_span(_matmul_kind, real)))
        real = numerics.record_op
        patches.append((numerics, "record_op", real, self._record_op(real)))
        try:
            for module, attr, _, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in reversed(patches):
                setattr(module, attr, original)


def _matmul_kind(args) -> str:
    return MATMUL_WEIGHT if args[1].data.ndim == 2 else MATMUL_BATCHED


def _count_batched_flop(counters, args, kwargs) -> None:
    a, b = args[0].data, args[1].data
    batch = 1
    for d in a.shape[:-2]:
        batch *= d
    m, k = a.shape[-2:]
    counters[f"{MATMUL_BATCHED}.gflop"] += 2.0 * batch * m * k * b.shape[-1] / 1e9


def _count_patch_rows(counters, args, kwargs) -> None:
    state, contexts, horizon = args[:3]
    b, length = contexts.shape
    rows = sum(_ceil_div(length, p) + _ceil_div(horizon, p) for p in state.config.patch_sizes)
    counters["model.forward_batch.patch_rows"] += b * rows


_OP_COUNTERS = {MATMUL_BATCHED: _count_batched_flop}
_FUNCTION_COUNTERS = {"model.forward_batch": _count_patch_rows}


def per_layer_metrics(setup: Totals, setup_reps: int, rounds: Totals, n_rounds: int, steps: int) -> dict[str, float]:
    """Per-layer values per setup repetition plus per measured round.

    Setup spans (CSV load, split, checkpoint read) occur only in setup and
    the rest only in rounds, so each metric reads as the cost of one
    set-up plus one round. ``numerics.tape_ops`` is per optimizer step.
    """

    def value(pick) -> float:
        return pick(setup) / setup_reps + pick(rounds) / n_rounds

    out: dict[str, float] = {}
    for op in OPS:
        out[f"{op}.fwd_ms"] = 1e3 * value(lambda t: t.total[op])
        out[f"{op}.bwd_ms"] = 1e3 * value(lambda t: t.total[op + ".bwd"])
        out[f"{op}.calls"] = value(lambda t: t.calls[op])
    for span in FUNCTION_SPANS:
        out[f"{span}.ms"] = 1e3 * value(lambda t: t.total[span])
        out[f"{span}.calls"] = value(lambda t: t.calls[span])
        if span in SELF_TIMED:
            out[f"{span}.self_ms"] = 1e3 * value(lambda t: t.self_time[span])
    for name in (f"{MATMUL_BATCHED}.gflop", "model.forward_batch.patch_rows"):
        out[name] = value(lambda t: t.counters[name])
    out["numerics.tape_ops"] = rounds.counters["numerics.tape_ops"] / steps if steps else 0.0
    return out
