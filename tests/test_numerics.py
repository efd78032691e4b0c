import contextlib
import gc
import math
import types
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastst.numerics as nm
from elastst.backbone import AttentionConfig
from elastst.errors import ContractError, DimensionError
from elastst.model import ElasTSTConfig, ModelState, composite_loss, forward_batch
from elastst.numerics import Graph, Tensor, backward
from elastst.trope import PeriodSpec
from helpers import finite_diff_check, mean


def param(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def square_mean(t):
    # generic scalar head for gradient checks
    return mean(nm.mul(t, t))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.matmul(a, b).data, b.data)

    def test_row_times_column(self):
        out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = param(rng.uniform(-2, 2, (3, 4)))
        b = param(rng.uniform(-2, 2, (4, 2)))

        def f():
            return nm.scale(mean(nm.matmul(a, b)), 6.0)  # sum of all entries

        assert finite_diff_check(f, [a, b]) < 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = param(rng.uniform(-2, 2, (2, 3, 4, 5)))
        b = param(rng.uniform(-2, 2, (2, 3, 5, 4)))
        assert finite_diff_check(lambda: square_mean(nm.matmul(a, b)), [a, b]) < 1e-5

    def test_batched_matches_plain(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (2, 2, 6, 5))
        b = rng.uniform(-1, 1, (2, 2, 5, 3))
        got = nm.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-13)

    @pytest.mark.parametrize("batched", [False, True])
    def test_rows_equal_fixed_block_gemm(self, batched):
        # reference loop: each row is the row of a (block, k) @ (k, n) GEMM on
        # its zero-padded block of rows, for both operand kinds
        block = nm._ROW_BLOCK
        rng = np.random.default_rng(9)
        lead = (2, 3) if batched else ()
        a = rng.standard_normal(lead + (300, 7))
        b = rng.standard_normal(lead + (7, 5))
        got = nm.matmul(Tensor(a), Tensor(b)).data
        for i0 in range(0, 300, block):
            rows = a[..., i0 : i0 + block, :]
            blk = np.zeros(lead + (block, 7))
            blk[..., : rows.shape[-2], :] = rows
            want = np.matmul(blk, b)[..., : rows.shape[-2], :]
            assert np.array_equal(got[..., i0 : i0 + block, :], want)

    def test_prefix_rows_stable_under_appended_rows(self):
        # appending rows must not change earlier rows' results at the bit level
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((7, 9)))
        base = rng.standard_normal((13, 7))
        extended = np.concatenate([base, rng.standard_normal((300, 7))], axis=0)
        out_small = nm.matmul(Tensor(base), w).data
        out_big = nm.matmul(Tensor(extended), w).data
        assert np.array_equal(out_big[:13], out_small)


class TestSoftmax:
    def test_symmetric_pair(self):
        out = nm.softmax_lastdim(Tensor([0.0, 0.0])).data
        assert out.tolist() == [0.5, 0.5]

    def test_masked_entry_is_exactly_zero(self):
        out = nm.softmax_lastdim(Tensor([-np.inf, 0.0])).data
        assert out.tolist() == [0.0, 1.0]

    def test_direct_evaluation(self):
        exp = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expected = [e / sum(exp) for e in exp]
        out = nm.softmax_lastdim(Tensor([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-50, 50, (40, 97))
        x[rng.uniform(size=x.shape) < 0.3] = -np.inf
        x[:, 0] = 0.0  # keep at least one finite entry per row
        sums = nm.softmax_lastdim(Tensor(x)).data.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_denominator_stable_under_extra_masked_keys(self):
        rng = np.random.default_rng(5)
        row = rng.uniform(-3, 3, 12)
        small = np.concatenate([row, np.full(4, -np.inf)])
        big = np.concatenate([row, np.full(180, -np.inf)])
        out_small = nm.softmax_lastdim(Tensor(small)).data
        out_big = nm.softmax_lastdim(Tensor(big)).data
        assert np.array_equal(out_small[:12], out_big[:12])

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = param(rng.uniform(-2, 2, (3, 7)))
        assert finite_diff_check(lambda: square_mean(nm.softmax_lastdim(x)), [x]) < 1e-5


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((2, 5), 3.7))
        out = nm.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.array_equal(out.data, np.zeros((2, 5)))

    def test_two_point_row(self):
        out = nm.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
        assert out.data.tolist() == [-1.0, 1.0]

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = param(rng.uniform(-2, 2, (4, 6)))
        gain = param(rng.uniform(0.5, 1.5, 6))
        bias = param(rng.uniform(-0.5, 0.5, 6))
        f = lambda: square_mean(nm.layer_norm(x, gain, bias))
        assert finite_diff_check(f, [x, gain, bias]) < 1e-5


class TestElementwiseOps:
    def test_mse_examples(self):
        def loss(p, t, w):
            return nm.mse(Tensor(p), np.array(t), np.array(w)).item()

        assert loss([1.0, 2.0], [1.0, 2.0], [1.0, 1.0]) == 0.0
        assert loss([0.0, 0.0], [1.0, 2.0], [1.0, 1.0]) == 5.0
        assert loss([0.0], [2.0], [0.5]) == 2.0

    def test_mse_records_the_prediction_alone(self):
        x = param([1.0, -2.0])
        graph = Graph()
        with graph:
            loss = nm.mse(x, np.array([0.5, 1.0]), np.array([2.0, 0.25]))
        assert len(graph._nodes) == 1
        backward(loss)
        assert x.grad.tolist() == [2.0, -1.5]  # 2 w (x - t)

    @pytest.mark.parametrize("target, weights", [((3,), (2,)), ((2,), (3,)), ((1, 2), (2,))])
    def test_mse_refuses_arrays_of_another_shape(self, target, weights):
        with pytest.raises(DimensionError):
            nm.mse(Tensor(np.zeros(2)), np.zeros(target), np.ones(weights))

    def test_equal_shape_contract(self):
        for op in (nm.add, nm.sub, nm.mul):
            with pytest.raises(DimensionError):
                op(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("error, call", [
        (DimensionError, lambda: nm.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))),
        (DimensionError, lambda: nm.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))),
        (DimensionError, lambda: nm.bias_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))),
        (DimensionError, lambda: nm.concat([])),
        (DimensionError, lambda: nm.softmax_lastdim(Tensor(np.zeros((2, 0))))),
        (DimensionError, lambda: nm.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(4)))),
        (ContractError, lambda: Tensor(np.zeros(2)).item()),
    ], ids=["matmul_1d", "matmul_batched_leading_axes", "bias_add", "concat_empty", "softmax_empty_axis",
            "layer_norm_affine", "item_of_a_vector"])
    def test_misshapen_operands_are_refused(self, error, call):
        with pytest.raises(error):
            call()

    def test_gradients_of_each_op(self):
        rng = np.random.default_rng(8)
        checks = []
        x = param(rng.uniform(-2, 2, (3, 4)))
        y = param(rng.uniform(-2, 2, (3, 4)))
        checks.append((lambda: square_mean(nm.add(x, y)), [x, y]))
        checks.append((lambda: square_mean(nm.sub(x, y)), [x, y]))
        checks.append((lambda: square_mean(nm.mul(x, y)), [x, y]))
        checks.append((lambda: square_mean(nm.scale(x, -1.7)), [x]))
        checks.append((lambda: square_mean(nm.gelu(x)), [x]))
        b = param(rng.uniform(-1, 1, 4))
        checks.append((lambda: square_mean(nm.bias_add(x, b)), [x, b]))
        w1, b1 = param(rng.uniform(-1, 1, (4, 5))), param(rng.uniform(-1, 1, 5))
        w2, b2 = param(rng.uniform(-1, 1, (5, 3))), param(rng.uniform(-1, 1, 3))
        checks.append((lambda: square_mean(nm.mlp(x, w1, b1, w2, b2)), [x, w1, b1, w2, b2]))
        checks.append((lambda: square_mean(nm.concat([x, y], axis=0)), [x, y]))
        checks.append((lambda: square_mean(nm.slice_axis(x, 1, 1, 3)), [x]))
        checks.append((lambda: square_mean(nm.reshape(x, (4, 3))), [x]))
        checks.append((lambda: square_mean(nm.transpose(x, (1, 0))), [x]))
        row = param(rng.uniform(-2, 2, (1, 4)))
        checks.append((lambda: square_mean(nm.mul(nm.broadcast(row, (3, 4)), x)), [row, x]))
        checks.append((lambda: mean(nm.mul(x, x)), [x]))
        w = rng.uniform(0.1, 1.0, (3, 4))
        t = rng.uniform(-2, 2, (3, 4))
        checks.append((lambda: nm.mse(x, t, w), [x]))
        for f, params in checks:
            assert finite_diff_check(f, params) < 1e-5

    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (5, 8))

        def run():
            t = Tensor(x)
            return nm.gelu(nm.softmax_lastdim(nm.matmul(t, Tensor(x.T)))).data

        assert np.array_equal(run(), run())


class TestBroadcast:
    def test_repeats_length_one_axes_without_a_copy(self):
        x = Tensor(np.arange(3.0).reshape(1, 3, 1))
        out = nm.broadcast(x, (2, 3, 4))
        assert np.array_equal(out.data, np.tile(x.data, (2, 1, 4)))
        assert np.shares_memory(out.data, x.data)

    def test_equal_shape_is_the_input_itself(self):
        x = Tensor(np.zeros((2, 3)))
        assert nm.broadcast(x, (2, 3)) is x

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3, 1)])
    def test_incompatible_shapes_rejected(self, shape):
        with pytest.raises(DimensionError):
            nm.broadcast(Tensor(np.zeros((2, 1))), shape)

    def test_concatenated_with_a_row_it_gives_a_row_major_array(self):
        # numpy would lay the result out along the broadcast strides, and a
        # layer norm over a strided feature axis sums in another order
        row = nm.broadcast(Tensor(np.ones((1, 1, 8))), (2, 2, 8))
        out = nm.concat([Tensor(np.zeros((2, 1, 8))), row], axis=1)
        assert out.data.flags.c_contiguous
        assert np.array_equal(out.data, np.concatenate([np.zeros((2, 1, 8)), np.ones((2, 2, 8))], axis=1))

    def test_gradient_sums_over_the_repeated_axes(self):
        x = param(np.ones((1, 2, 1)))
        g = np.arange(24.0).reshape(2, 3, 4)[:, :2]
        with Graph():
            out = nm.broadcast(x, (2, 2, 4))
            backward(nm.mse(out, np.zeros(out.data.shape), g))
        assert np.array_equal(x.grad, (2.0 * g).sum(axis=(0, 2), keepdims=True))


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        x = param([1.0, 2.0])
        with Graph():
            y = nm.mul(x, x)
        with pytest.raises(ContractError):
            backward(y)

    def test_unrecorded_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(param(1.0))

    def test_repeated_backward_accumulates(self):
        x = param([1.0, 2.0])
        with Graph():
            loss = nm.mse(x, np.zeros(2), np.ones(2))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_only_leaves_keep_grads(self):
        x = param([1.0, 2.0])
        y = param([3.0, -1.0])  # an input made with requires_grad=True
        with Graph():
            mid = nm.scale(x, 2.0)
            prod = nm.mul(mid, y)
            loss = mean(nm.mul(prod, mid))  # mean(4 x^2 y)
        backward(loss)
        assert x.grad.tolist() == [12.0, -8.0]  # 4 x y
        assert y.grad.tolist() == [2.0, 8.0]  # 2 x^2
        assert mid.grad is None and prod.grad is None and loss.grad is None

    def test_clear_drops_activations_but_not_parameters(self):
        x = param([1.0, 2.0, 3.0])
        graph = Graph()
        with graph:
            mid = nm.scale(x, 2.0)
            loss = mean(mid)
        backward(loss)
        ref = weakref.ref(mid)
        del mid, loss
        graph.clear()
        gc.collect()
        assert ref() is None
        assert x.data.tolist() == [1.0, 2.0, 3.0] and x.grad is not None

    def test_a_dropped_activation_is_freed_and_the_gradients_hold(self):
        def grads(drop):
            a, b = param([1.0, -2.0, 3.0]), param([0.5, 4.0, -1.0])
            with Graph():
                y = nm.add(a, b)
                z = nm.scale(y, 2.0)
                ref = weakref.ref(y.data)
                if drop:
                    del y
                    assert ref() is None  # nothing on the tape reads add's output
                loss = mean(z)
            backward(loss)
            return a.grad.tolist(), b.grad.tolist()

        assert grads(drop=True) == grads(drop=False) == ([2 / 3] * 3,) * 2

    @pytest.mark.parametrize("before_recording", [True, False])
    def test_a_frozen_leaf_takes_no_gradient(self, before_recording):
        a, b = param([1.0, 2.0]), param([3.0, 4.0])
        if before_recording:
            a.requires_grad = False
        with Graph():
            loss = mean(nm.mul(a, b))
        a.requires_grad = False
        backward(loss)
        assert a.grad is None and b.grad.tolist() == [0.5, 1.0]

    def test_a_dropped_graph_is_freed_without_clear_or_the_collector(self):
        x = param([1.0, -2.0, 3.0])
        gc.disable()
        try:
            graph = Graph()
            with graph:
                mid = nm.gelu(nm.scale(x, 2.0))
                loss = mean(nm.add(mid, mid))
            backward(loss)
            ref = weakref.ref(graph)
            del graph, mid, loss
            assert ref() is None
        finally:
            gc.enable()
        assert x.grad is not None

    def test_the_tape_holds_no_tensor(self):
        """A closure that kept a tensor would pin its data for as long as
        the tape lives, and one that reached a graph would make a cycle;
        backward needs only nodes and the arrays it reads."""
        config = ElasTSTConfig(
            patch_sizes=(4, 8),
            period_spec=PeriodSpec(1.0, 1000.0, 8),
            attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=2),
            lookback=16,
        )
        state = ModelState.init(config, seed=3)
        rng = np.random.default_rng(4)
        graph = Graph()
        with graph:
            composite_loss(forward_batch(state, rng.standard_normal((2, 16)), 12), rng.standard_normal((2, 12)), np.ones(12))

        def reachable(root):
            """What ``root`` reaches through containers, node slots and
            closure cells (not through a function's module globals)."""
            seen, stack = {}, [root]
            while stack:
                obj = stack.pop()
                if id(obj) not in seen:
                    seen[id(obj)] = obj
                    if isinstance(obj, (list, tuple, dict, nm.Node)):
                        stack += gc.get_referents(obj)
                    elif isinstance(obj, types.FunctionType):
                        stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            return seen.values()

        assert len(graph._nodes) > 100
        for entry in graph._nodes:
            node, backward_fn = entry
            assert isinstance(node, nm.Node)
            held = [type(obj).__name__ for obj in reachable(entry) if isinstance(obj, (Tensor, Graph))]
            assert not held, (backward_fn.__qualname__, held)


def copying_accum(node, g):
    """``numerics._accum`` as it was before gradients were adopted: a
    node's first gradient is always a copy."""
    if node.requires_grad:
        if node.grad is None:
            node.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            node.grad += g


def leaf_grads_after_two_backwards(build, accum):
    """Each leaf's gradient after one and after two ``backward`` calls of
    the loss that ``build(leaves)`` returns, with ``accum`` as ``_accum``."""
    rng = np.random.default_rng(0)
    leaves = [param(rng.uniform(-2, 2, (2, 3, 4))) for _ in range(2)] + [param(rng.uniform(-1, 1, 4)) for _ in range(2)]
    with patch.object(nm, "_accum", accum), Graph():
        loss = build(leaves)
        backward(loss)
        first = [None if t.grad is None else t.grad.copy() for t in leaves]
        backward(loss)
    return leaves, first, [t.grad for t in leaves]


def squared(t, seed=1):
    """A weighted squared-error head on ``t``: a gradient that is neither
    all ones nor symmetric."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, t.data.shape)
    return nm.mse(t, np.zeros(t.data.shape), w)


def build_from_choices(choices):
    """A graph drawn by ``choices``: each op takes pool tensors, so one
    tensor often feeds several ops; every tensor made feeds the loss."""

    def build(leaves):
        x1, x2, b, gain = leaves
        pool = [x1, x2]
        for c in choices:
            t = pool[c % len(pool)]
            same = [u for u in pool if u.data.shape == t.data.shape]
            u = same[(c // 7) % len(same)]
            op = (c // 3) % 8
            if op == 0:
                out = nm.add(t, u)
            elif op == 1:
                out = nm.concat([t, u], axis=(c // 5) % t.data.ndim)
            elif op == 2:
                out = nm.reshape(t, t.data.shape[::-1])
            elif op == 3:
                out = nm.transpose(t, tuple(reversed(range(t.data.ndim))))
            elif op == 4 and t.data.shape[-1] == 4:
                out = nm.bias_add(t, b)
            elif op == 5 and t.data.shape[-1] == 4:
                out = nm.layer_norm(t, gain, b)
            elif op == 6:
                out = nm.gelu(nm.scale(t, 0.7))
            else:
                out = nm.softmax_lastdim(t)
            pool.append(out)
        loss = squared(pool[-1])
        for i, t in enumerate(pool[2:-1]):
            loss = nm.add(loss, squared(t, seed=i + 2))
        return loss

    return build


def mlp_sharing_a_weight(x, y, b, c):
    w = nm.reshape(nm.slice_axis(y, 1, 0, 2), (4, 4))
    return squared(nm.mlp(x, w, b, w, c))


EXPLICIT_GRAPHS = {
    "add(x, x)": lambda v: squared(nm.add(v[0], v[0])),
    "add(x, y)": lambda v: squared(nm.add(v[0], v[1])),
    "add(x, x) feeding add(x, .)": lambda v: squared(nm.add(v[0], nm.add(v[0], v[0]))),
    "concat([x, x])": lambda v: squared(nm.concat([v[0], v[0]], axis=1)),
    "concat([x, y, x])": lambda v: squared(nm.concat([v[0], v[1], v[0]], axis=2)),
    "reshape and transpose chain": lambda v: squared(
        nm.add(nm.transpose(nm.reshape(nm.transpose(v[0], (2, 0, 1)), (4, 6)), (1, 0)), nm.reshape(v[1], (6, 4)))
    ),
    "bias_add": lambda v: nm.add(squared(nm.bias_add(v[0], v[2])), squared(nm.bias_add(nm.scale(v[0], 2.0), v[2]))),
    "mlp with one weight for both products": lambda v: mlp_sharing_a_weight(*v),
}


class TestGradientBuffers:
    """Adopted gradients: no two leaves share a gradient buffer, and every
    gradient has the bytes the copying ``_accum`` gave, after one
    ``backward`` and after a second one that adds to it."""

    def check(self, build):
        _, want_first, want_second = leaf_grads_after_two_backwards(build, copying_accum)
        leaves, first, second = leaf_grads_after_two_backwards(build, nm._accum)
        for i, (a, b) in enumerate(zip(first + second, want_first + want_second)):
            assert (a is None) == (b is None), i
            if a is not None:
                assert a.tobytes() == b.tobytes(), i
        grads = [t.grad for t in leaves if t.grad is not None]
        for i, g in enumerate(grads):
            for h in grads[i + 1 :]:
                assert not np.shares_memory(g, h)

    @pytest.mark.parametrize("name", list(EXPLICIT_GRAPHS))
    def test_explicit_graphs(self, name):
        self.check(EXPLICIT_GRAPHS[name])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
    def test_drawn_graphs(self, choices):
        self.check(build_from_choices(choices))


def composed_mlp(x, w1, b1, w2, b2):
    return nm.bias_add(nm.matmul(nm.gelu(nm.bias_add(nm.matmul(x, w1), b1)), w2), b2)


class TestMlp:
    """``mlp`` is the five-op composition as one tape node, byte for byte."""

    @staticmethod
    def run(op, arrays, grads, recorded):
        """``op``'s output bytes, each input's gradient bytes (None without
        one) and the slope flags ``_gelu`` was called with."""
        flags = []
        real = nm._gelu

        def spy(h, out, slope):
            flags.append(slope)
            return real(h, out, slope)

        tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, grads)]
        graph = Graph() if recorded else contextlib.nullcontext()
        with patch.object(nm, "_gelu", spy), graph:
            out = op(*tensors)
        if out.graph is not None:
            with graph:
                loss = squared(out)
            backward(loss)
        got = [None if t.grad is None else t.grad.tobytes() for t in tensors]
        return out.data.tobytes(), got, flags

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        lead=st.sampled_from([(1, 1), (3,), (2, 8), (17,), (2, 3, 6)]),  # (1, 1): the shared placeholder row
        dims=st.tuples(st.integers(1, 9), st.integers(1, 12), st.integers(1, 9)),
        grads=st.tuples(*[st.booleans()] * 5),
        recorded=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_composition(self, lead, dims, grads, recorded, seed):
        d_in, d_hidden, d_out = dims
        rng = np.random.default_rng(seed)
        shapes = [(*lead, d_in), (d_in, d_hidden), (d_hidden,), (d_hidden, d_out), (d_out,)]
        arrays = [rng.uniform(-3, 3, s) for s in shapes]
        out, got, flags = self.run(nm.mlp, arrays, grads, recorded)
        want_out, want, _ = self.run(composed_mlp, arrays, grads, recorded)
        assert out == want_out
        assert got == want
        assert (got != [None] * 5) == (recorded and any(grads))
        # the slope is taken only for a recorded node whose GELU input needs a gradient
        assert flags == [recorded and any(grads[:3])]

    def test_the_node_keeps_the_input_the_slope_and_the_gelu_output(self):
        rng = np.random.default_rng(5)
        x = param(rng.uniform(-3, 3, (2, 20, 6)))
        w1, b1 = param(rng.uniform(-1, 1, (6, 8))), param(rng.uniform(-1, 1, 8))
        w2, b2 = param(rng.uniform(-1, 1, (8, 5))), param(rng.uniform(-1, 1, 5))
        with Graph() as graph:
            nm.mlp(x, w1, b1, w2, b2)
        ((_, backward_fn),) = graph._nodes
        cells = [cell.cell_contents for cell in backward_fn.__closure__]
        held = [a for a in cells if isinstance(a, np.ndarray) and a is not w1.data and a is not w2.data]
        assert len(held) == 3
        pre = nm.bias_add(nm.matmul(x, w1), b1).data.reshape(-1, 8)
        t = np.tanh(nm._GELU_C * (pre + nm._GELU_A * pre**3))
        (kept_x,) = [a for a in held if np.shares_memory(a, x.data)]
        (output,) = [a for a in held if a.tobytes() == nm.gelu(Tensor(pre)).data.tobytes()]
        (slope,) = [a for a in held if a is not kept_x and a is not output]
        assert kept_x.tobytes() == x.data.tobytes()
        np.testing.assert_allclose(slope, (t + 1) + pre * (1 - t * t) * nm._GELU_C * (1 + 3 * nm._GELU_A * pre**2))

    def test_shapes_that_disagree_are_named(self):
        x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(DimensionError) as err:
            nm.mlp(x, w, b, Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
        assert "(3, 4)" in str(err.value) and "(5, 2)" in str(err.value)


class TestFiniteDiff:
    def test_quadratic_is_nearly_exact(self):
        p = param([1.0, 2.0])
        f = lambda: nm.mse(p, np.zeros(2), np.ones(2))  # sum of squares, gradient 2p
        assert finite_diff_check(f, [p]) < 1e-9

    def test_constant_function_reports_zero(self):
        p = param([1.0, 2.0])
        c = Tensor(np.ones(2))
        f = lambda: mean(nm.mul(c, c))

        # the constant loss never touches p, so analytic and numeric are both 0
        def f_with_p():
            nm.scale(p, 0.0)  # touch p so it is recorded, contributes nothing
            return mean(nm.mul(c, c))

        assert finite_diff_check(f_with_p, [p]) == 0.0


class TestPlatformAssumptions:
    def test_transcendentals_are_position_independent(self):
        # identical values must map to identical bits regardless of where
        # they sit in an array or how long the array is
        rng = np.random.default_rng(10)
        base = rng.uniform(-3, 3, 977)
        for fn in (np.exp, np.tanh, np.cos, np.sin):
            for pad in (1, 7, 64, 1001):
                ext = np.concatenate([base, rng.uniform(-3, 3, pad)])
                assert np.array_equal(fn(ext)[:977], fn(base)), fn.__name__

    def test_gemm_row_bytes_do_not_depend_on_block_position(self):
        # a longer horizon shifts a window's rows within their GEMM blocks
        # (the weight product flattens (B, N) rows), so invariance needs the
        # BLAS to give a row the same bytes at every position in a block
        block = nm._ROW_BLOCK
        rng = np.random.default_rng(14)
        for k in (1, 8, 64, 128):
            for n in (1, 16, 128):
                b = rng.standard_normal((k, n))
                row = rng.standard_normal(k)
                want = nm._block_rows_matmul(row[None, :], b)[0]
                for pos in range(block):
                    a = rng.standard_normal((block, k))
                    a[pos] = row
                    got = nm._block_rows_matmul(a, b)[pos]
                    assert np.array_equal(got, want), (k, n, pos)
