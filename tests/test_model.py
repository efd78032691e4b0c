import errno
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastst import model
from elastst.backbone import AttentionConfig
from elastst.errors import DimensionError, FormatError, ParameterError
from elastst.model import (
    CHECKPOINT_MAGIC,
    ElasTSTConfig,
    Forecast,
    ModelState,
    composite_loss,
    forward_batch,
    load_model,
    read_checkpoint,
    write_checkpoint,
)
from elastst.numerics import Graph, Tensor, backward
from elastst.trope import PeriodSpec
from every_row import every_row_forward


def rewrite(path, echo, arrays):
    """Write ``echo`` and the 2-D ``arrays`` to ``path`` in the checkpoint layout."""
    head = "".join(f"{key}={value}\n" for key, value in echo.items())
    with open(path, "wb") as f:
        f.write(f"{CHECKPOINT_MAGIC}\n{head}\n".encode())
        for name, arr in arrays.items():
            f.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n".encode() + arr.astype("<f8").tobytes())


def small_config(sizes=(4, 8), instance_norm=True, lookback=16):
    return ElasTSTConfig(
        patch_sizes=sizes,
        period_spec=PeriodSpec(1.0, 1000.0, 8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1),
        lookback=lookback,
        instance_norm=instance_norm,
    )


class TestConfig:
    def test_period_head_dim_must_match_attention(self):
        with pytest.raises(ParameterError):
            ElasTSTConfig(
                patch_sizes=(4,),
                period_spec=PeriodSpec(1.0, 1000.0, 4),
                attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1),
                lookback=16,
            )

    def test_patch_sizes_validated(self):
        with pytest.raises(ParameterError):
            small_config(sizes=())
        with pytest.raises(ParameterError):
            small_config(sizes=(4, 4))
        with pytest.raises(ParameterError):
            small_config(sizes=(0, 4))

    def test_lookback_validated(self):
        with pytest.raises(ParameterError):
            small_config(lookback=0)

    def test_patch_sizes_sorted_ascending(self):
        assert small_config(sizes=(8, 4)).patch_sizes == (4, 8)


class TestForward:
    def test_single_size_assembled_equals_branch(self):
        state = ModelState.init(small_config(sizes=(4,)), seed=0)
        ctx = np.random.default_rng(0).standard_normal((2, 16))
        fc = forward_batch(state, ctx, 8)
        assert np.array_equal(fc.assembled.data, fc.per_size[0].data)

    def test_zero_decoders_forecast_the_context_mean(self):
        state = ModelState.init(small_config(), seed=0)
        for coder in state.coders.values():
            coder.dec.w2.data[:] = 0.0
            coder.dec.b2.data[:] = 0.0
        ctx = np.random.default_rng(1).standard_normal((3, 16))
        fc = forward_batch(state, ctx, 8)
        assert np.array_equal(fc.assembled.data, np.zeros((3, 8)))
        np.testing.assert_array_equal(fc.values, np.tile(fc.offset[:, None], (1, 8)))

    def test_forward_is_deterministic(self):
        state = ModelState.init(small_config(), seed=2)
        ctx = np.random.default_rng(3).standard_normal((4, 16))
        assert np.array_equal(forward_batch(state, ctx, 9).values, forward_batch(state, ctx, 9).values)

    def test_horizon_extension_is_bitwise_invariant(self):
        state = ModelState.init(small_config(), seed=3)
        ctx = np.random.default_rng(4).standard_normal((4, 16))
        base = forward_batch(state, ctx, 8).values
        for horizon in (16, 24, 50):
            ext = forward_batch(state, ctx, horizon).values
            assert np.array_equal(ext[:, :8], base)

    def test_disabling_key_mask_breaks_invariance(self):
        state = ModelState.init(small_config(), seed=4)
        ctx = np.random.default_rng(5).standard_normal((4, 16))
        base = every_row_forward(state, ctx, 8, use_key_mask=False).values
        ext = every_row_forward(state, ctx, 40, use_key_mask=False).values
        assert np.max(np.abs(ext[:, :8] - base)) > 1e-6

    def test_constant_context_stays_finite(self):
        state = ModelState.init(small_config(), seed=5)
        fc = forward_batch(state, np.full((1, 16), 42.0), 8)
        assert np.all(np.isfinite(fc.values))

    def test_horizon_contract(self):
        state = ModelState.init(small_config(), seed=6)
        with pytest.raises(ParameterError):
            forward_batch(state, np.zeros((1, 16)), 0)

    @pytest.mark.parametrize("shape", [(16,), (1, 0), (1, 1, 16)])
    def test_contexts_must_be_a_batch_of_series(self, shape):
        with pytest.raises(ParameterError):
            forward_batch(ModelState.init(small_config(), seed=6), np.zeros(shape), 8)

    @pytest.mark.parametrize("instance_norm", [True, False])
    @pytest.mark.parametrize("others", [3, 2])
    def test_a_continuation_from_other_contexts_is_refused(self, instance_norm, others, monkeypatch):
        """With normalization off every batch has the same statistics, so
        only the contexts themselves tell a continuation of other windows."""
        state = ModelState.init(small_config(instance_norm=instance_norm), seed=6)
        rng = np.random.default_rng(9)
        first = forward_batch(state, rng.standard_normal((2, 16)), 16, None, (0, 8))
        other = rng.standard_normal((others, 16))

        def no_stream(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(model, "_placeholder_stream", no_stream)
        with pytest.raises(ParameterError, match="contexts differ"):
            forward_batch(state, other, 16, first, (8, 16))

    def test_a_continuation_from_equal_contexts_in_another_array_is_taken(self):
        state = ModelState.init(small_config(), seed=6)
        ctx = np.random.default_rng(10).standard_normal((2, 16))
        first = forward_batch(state, ctx, 16, None, (0, 8))
        rest = forward_batch(state, ctx.copy(), 16, first, (8, 16))
        assert rest.values.tobytes() == forward_batch(state, ctx, 16).values[:, 8:].tobytes()

    def test_memory_does_not_grow_with_the_horizon(self):
        """Placeholder rows stream through the stack in chunks, so the peak
        of a forward pass, less the arrays it returns, is the same at one
        full chunk (``short``) as at eight; numpy reports to tracemalloc."""
        state = ModelState.init(small_config(), seed=7)
        ctx = np.random.default_rng(8).standard_normal((4, 16))
        short = min(state.config.patch_sizes) * (model.ROWS // 4)

        def peak_less_outputs(horizon):
            tracemalloc.start()
            try:
                fc = forward_batch(state, ctx, horizon)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = [t.data for t in fc.per_size] + [fc.assembled.data, fc.values]
            return peak - sum(a.nbytes for a in outputs)

        assert peak_less_outputs(8 * short) <= peak_less_outputs(short) + 256 * 1024


class TestCompositeLoss:
    def test_all_branches_equal_target_gives_zero(self):
        series = np.random.default_rng(6).standard_normal((2, 8))
        fc = Forecast(
            per_size=[Tensor(series.copy()), Tensor(series.copy())],
            assembled=Tensor(series.copy()),
            offset=np.zeros(2),
            denom=np.ones(2),
            values=series.copy(),
        )
        loss = composite_loss(fc, series, np.full(8, 1.0 / 8))
        assert loss.item() == 0.0

    @pytest.mark.parametrize("target_shape, weights_shape", [((3, 8), (8,)), ((2, 8), (2, 7)), ((2, 8), (7,))])
    def test_a_target_or_weights_of_another_shape_is_refused(self, target_shape, weights_shape):
        series = np.zeros((2, 8))
        fc = Forecast(per_size=[Tensor(series)], assembled=Tensor(series), offset=np.zeros(2), denom=np.ones(2),
                      values=series)
        with pytest.raises(DimensionError, match="does not match forecast"):
            composite_loss(fc, np.zeros(target_shape), np.ones(weights_shape))

    def test_a_target_without_its_batch_axis_is_refused(self):
        series = np.zeros((1, 8))
        fc = Forecast(per_size=[Tensor(series)], assembled=Tensor(series), offset=np.zeros(1), denom=np.ones(1),
                      values=series)
        with pytest.raises(DimensionError, match=r"target shape \(8,\) does not match forecast \(1, 8\)"):
            composite_loss(fc, np.zeros(8), np.ones(8))

    def test_single_size_uniform_weights_equal_plain_mse(self):
        state = ModelState.init(small_config(sizes=(4,), instance_norm=False), seed=8)
        rng = np.random.default_rng(7)
        ctx = rng.standard_normal((3, 16))
        target = rng.standard_normal((3, 8))
        fc = forward_batch(state, ctx, 8)
        loss = composite_loss(fc, target, np.full(8, 1.0 / 8)).item()
        expected = np.mean(np.sum((fc.values - target) ** 2, axis=1) / 8) * 3  # per-window MSE, summed
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_branch_average_arithmetic(self):
        # engineered branches with losses 2, 4 and assembled loss 1
        per = [Tensor(np.array([[1.0, 1.0]])), Tensor(np.array([[2.0, 0.0]]))]
        fc = Forecast(
            per_size=per,
            assembled=Tensor(np.array([[1.0, 0.0]])),
            offset=np.zeros(1),
            denom=np.ones(1),
            values=np.array([[1.0, 0.0]]),
        )
        loss = composite_loss(fc, np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert loss.item() == pytest.approx((2.0 + 4.0 + 1.0) / 3.0, rel=1e-15)

    def test_loss_is_on_the_normalized_scale(self):
        state = ModelState.init(small_config(), seed=9)
        rng = np.random.default_rng(8)
        ctx = rng.standard_normal((2, 16))
        target = rng.standard_normal((2, 8))
        fc = forward_batch(state, ctx, 8)
        loss = composite_loss(fc, target, np.full(8, 1.0)).item()
        normalized_target = (target - fc.offset[:, None]) / fc.denom[:, None]
        manual = 0.0
        for series in fc.per_size + [fc.assembled]:
            manual += np.sum((series.data - normalized_target) ** 2)
        np.testing.assert_allclose(loss, manual / (len(fc.per_size) + 1), rtol=1e-12)

    def test_gradients_flow_to_every_parameter_group(self):
        state = ModelState.init(small_config(), seed=10)
        rng = np.random.default_rng(9)
        ctx = rng.standard_normal((2, 16))
        target = rng.standard_normal((2, 8))
        for _, p in state.trainable():
            p.grad = None
        with Graph():
            fc = forward_batch(state, ctx, 8)
            loss = composite_loss(fc, target, np.full(8, 1.0 / 8))
        backward(loss)
        for name, p in state.trainable():
            assert p.grad is not None, name

    @staticmethod
    def acceptance_step_memory():
        """Bytes retained by a recorded forward and ``composite_loss`` at the
        acceptance shape (t_max 96, B=32), and the peak backward adds above
        them; numpy reports to tracemalloc."""
        config = ElasTSTConfig(
            patch_sizes=(8, 16, 32),
            period_spec=PeriodSpec(1.0, 1000.0, 16),
            attention=AttentionConfig(d_model=64, n_heads=4, head_dim=16, d_ff=128, n_layers=2),
            lookback=96,
        )
        state = ModelState.init(config, seed=21)
        rng = np.random.default_rng(22)
        ctx, target = rng.standard_normal((32, 96)), rng.standard_normal((32, 96))
        weights = np.full((32, 96), 1.0 / (32 * 96))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Graph():
                loss = composite_loss(forward_batch(state, ctx, 96), target, weights)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return after_forward - before, peak - after_forward

    def test_backward_peaks_well_below_the_forward_activations(self):
        """Backward frees each op output's gradient once its node has used
        it, so a training step holds little beyond its activations."""
        activations, backward_extra = self.acceptance_step_memory()
        assert backward_extra < 0.25 * activations

    def test_the_forward_keeps_only_what_backward_reads(self):
        """The tape holds nodes and the arrays each backward reads, so an
        activation no backward reads (a residual sum, the raw scores, an
        MLP's pre-activation and tanh buffer) is freed during the forward
        pass. 13.42 MiB measured."""
        activations, _ = self.acceptance_step_memory()
        assert activations < 14 * 2**20


class TestCheckpoint:
    def test_head_blocks_are_column_slices_of_the_fused_weights(self, tmp_path):
        config = small_config()
        state = ModelState.init(config, seed=23)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, state)
        _, arrays = read_checkpoint(path)
        hd = config.attention.head_dim
        for w in ("wq", "wk", "wv"):
            fused = getattr(state.layers[0], w).data
            for head in range(config.attention.n_heads):
                block = arrays[f"backbone.0.head{head}.{w}"]
                assert block.tobytes() == fused[:, head * hd : (head + 1) * hd].tobytes()
        names = [n for n in arrays if n.startswith("backbone.0.")][:7]
        assert names == [f"backbone.0.head{h}.{w}" for h in range(2) for w in ("wq", "wk", "wv")] + ["backbone.0.wo"]

    def test_write_read_write_gives_the_same_bytes(self, tmp_path):
        state = ModelState.init(small_config(), seed=24)
        for _, t in state.trainable():
            t.data += np.random.default_rng(25).uniform(-0.1, 0.1, t.data.shape)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        write_checkpoint(first, state)
        write_checkpoint(second, load_model(first)[0])
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_forward_is_bitwise(self, tmp_path):
        state = ModelState.init(small_config(), seed=11)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, state)
        loaded, _, _ = load_model(path)
        ctx = np.random.default_rng(10).standard_normal((3, 16))
        assert np.array_equal(
            forward_batch(state, ctx, 12).values, forward_batch(loaded, ctx, 12).values
        )

    def test_file_layout(self, tmp_path):
        state = ModelState.init(small_config(), seed=12)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, state, extra_echo={"epoch": "3"}, extra_arrays=[("opt.m.x", np.zeros(2))])
        raw = path.read_bytes()
        assert raw.startswith((CHECKPOINT_MAGIC + "\n").encode())
        echo, arrays = read_checkpoint(path)
        assert echo["epoch"] == "3"
        names = [n for n, _ in state.parameters()]
        assert list(arrays) == names + ["opt.m.x"]  # model block first, extras after
        assert list(arrays)[-2] == "trope.log_periods"  # periods close the model block
        for name, tensor in state.parameters():
            np.testing.assert_array_equal(arrays[name].reshape(tensor.data.shape), tensor.data)

    def test_vectors_serialize_as_single_rows(self, tmp_path):
        state = ModelState.init(small_config(), seed=13)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, state)
        _, arrays = read_checkpoint(path)
        assert arrays["size4.enc.b1"].shape == (1, 16)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        state = ModelState.init(small_config(), seed=14)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, state)
        echo, arrays = read_checkpoint(path)
        arrays["log_periods"] = arrays.pop("trope.log_periods")  # as many values, under another name
        rewrite(path, echo, arrays)
        with pytest.raises(FormatError, match="missing 'trope.log_periods'"):
            load_model(path)

    @pytest.mark.parametrize(
        "case, says",
        [
            ("missing block", "is missing 'backbone.0.wo'"),
            ("wrong size", "'size8.dec.b2' is invalid: cannot reshape array of size 16"),
            ("non-finite values", "'backbone.0.ffn.w1' is invalid: array must not contain infs or NaNs"),
            ("oversized echo", "describes a model of"),
            ("transposed block", "'size8.enc.w1' is invalid: block is stored as 16 x 8, expected 8 x 16"),
            ("vector as column", "'size4.dec.b2' is invalid: block is stored as 4 x 1, expected 1 x 4"),
            ("instance_norm_eps=nan", "'instance_norm_eps' is invalid: must be 1e-05, got nan"),
            ("instance_norm_eps=0.0", "'instance_norm_eps' is invalid: must be 1e-05, got 0.0"),
            ("instance_norm_eps=-1.0", "'instance_norm_eps' is invalid: must be 1e-05, got -1.0"),
            ("instance_norm_eps=1e-06", "'instance_norm_eps' is invalid: must be 1e-05, got 1e-06"),
            ("n_heads=0", "checkpoint config echo is invalid: n_heads and n_layers must be >= 1"),
            ("head_dim=5", "checkpoint config echo is invalid: head_dim must be even and >= 4, got 5"),
            ("patch_sizes=8,8", "checkpoint config echo is invalid: patch sizes must be distinct, got (8, 8)"),
            ("p_min=2.0 p_max=1.0", "checkpoint config echo is invalid: need 0 < p_min < p_max < inf, got 2.0, 1.0"),
        ],
        ids=["missing_block", "wrong_size", "non_finite_values", "oversized_echo", "transposed_block",
             "vector_as_column", "nan_eps", "zero_eps", "negative_eps", "other_eps", "no_heads", "odd_head_dim",
             "repeated_patch_size", "periods_reversed"],
    )
    def test_every_load_error_starts_with_the_path(self, tmp_path, case, says):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, ModelState.init(small_config(), seed=19))
        echo, arrays = read_checkpoint(path)
        if case == "missing block":  # as many values, under another name
            arrays["wo"] = arrays.pop("backbone.0.wo")
        elif case == "wrong size":
            arrays["size8.dec.b2"] = np.hstack([arrays["size8.dec.b2"]] * 2)
        elif case == "non-finite values":
            arrays["backbone.0.ffn.w1"][3, 4] = np.nan
        elif case == "oversized echo":
            echo["d_ff"] = "10000000"
        elif case == "transposed block":  # as many values, in another layout
            arrays["size8.enc.w1"] = arrays["size8.enc.w1"].reshape(16, 8)
        elif case == "vector as column":
            arrays["size4.dec.b2"] = arrays["size4.dec.b2"].reshape(4, 1)
        else:
            for setting in case.split():
                key, value = setting.split("=")
                echo[key] = value
        rewrite(path, echo, arrays)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")
        assert says in str(err.value)

    # each echo key with a value its parser rejects
    UNPARSABLE = {
        "patch_sizes": "4,x", "d_model": "16.0", "n_heads": "two", "head_dim": "", "d_ff": "1e3", "n_layers": "one",
        "lookback": "16,16", "instance_norm": "yes", "instance_norm_eps": "tiny", "p_min": "1,0", "p_max": "max",
    }

    @pytest.mark.parametrize("defect", ["missing", "invalid"])
    @pytest.mark.parametrize("key", list(UNPARSABLE))
    def test_every_echo_key_missing_or_invalid_is_named(self, tmp_path, key, defect):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, ModelState.init(small_config(), seed=19))
        echo, arrays = read_checkpoint(path)
        assert list(echo) == list(self.UNPARSABLE)  # every key the writer echoes
        if defect == "missing":
            del echo[key]
        else:
            echo[key] = self.UNPARSABLE[key]
        rewrite(path, echo, arrays)
        with pytest.raises(FormatError) as err:
            load_model(path)
        says = f"checkpoint is missing {key!r}" if defect == "missing" else f"checkpoint {key!r} is invalid: "
        assert str(err.value).startswith(f"{path}: {says}")

    def test_load_builds_one_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, ModelState.init(small_config(), seed=20))
        inits = []
        init = ModelState.init
        monkeypatch.setattr(ModelState, "init", lambda *a, **kw: inits.append(1) or init(*a, **kw))
        load_model(path)
        assert len(inits) == 1

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
        d_model=st.integers(1, 12),
        n_heads=st.integers(1, 3),
        half_head_dim=st.integers(2, 5),
        d_ff=st.integers(1, 12),
        n_layers=st.integers(1, 3),
    )
    @example(sizes=[4, 8], d_model=10, n_heads=3, half_head_dim=3, d_ff=7, n_layers=1)
    @example(sizes=[1, 3, 32], d_model=10, n_heads=3, half_head_dim=3, d_ff=7, n_layers=3)
    def test_parameter_count_is_what_init_allocates(self, sizes, d_model, n_heads, half_head_dim, d_ff, n_layers):
        """The count sizes the allocation probe in ``init`` and the echo check in ``load_model``."""
        config = ElasTSTConfig(
            patch_sizes=sizes,
            period_spec=PeriodSpec(1.0, 1000.0, 2 * half_head_dim),
            attention=AttentionConfig(d_model, n_heads, 2 * half_head_dim, d_ff, n_layers),
            lookback=16,
        )
        state = ModelState.init(config)
        assert model._parameter_count(config) == sum(t.data.size for _, t in state.trainable())
        assert model._parameter_count(config) == sum(t.data.size for _, t in state.parameters())

    def test_echo_larger_than_the_blocks_rejected_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, ModelState.init(small_config(), seed=18))
        echo, arrays = read_checkpoint(path)

        def no_model(*args, **kwargs):
            raise AssertionError("a model was allocated")

        monkeypatch.setattr(ModelState, "init", no_model)
        for key, value in (("d_model", "1600000"), ("n_layers", "100000000"), ("patch_sizes", "4,8,100000")):
            rewrite(path, {**echo, key: value}, arrays)
            with pytest.raises(FormatError, match="describes a model of"):
                load_model(path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, ModelState.init(small_config(), seed=16))
        before = path.read_bytes()

        class FullDisk:
            """A file whose device is full once half the old checkpoint's bytes are written."""

            def __init__(self, *args):
                self.f, self.room = open(*args), len(before) // 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.f.write(data)

        monkeypatch.setattr(model, "open", FullDisk, raising=False)
        with pytest.raises(OSError):
            write_checkpoint(path, ModelState.init(small_config(), seed=17))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_state_copy_is_independent(self, monkeypatch):
        state = ModelState.init(small_config(), seed=15)
        for _, t in state.trainable():
            t.grad = np.ones_like(t.data)

        def no_model(*args, **kwargs):
            raise AssertionError("a model was drawn")

        monkeypatch.setattr(ModelState, "init", no_model)
        clone = state.copy()
        pairs = list(zip(clone.trainable(), state.trainable()))
        assert [name for (name, _), _ in pairs] == [name for name, _ in state.trainable()]
        for (_, a), (_, b) in pairs:
            assert a.data.tobytes() == b.data.tobytes() and a.data.shape == b.data.shape
            assert a.grad is None and a.requires_grad
            assert not np.shares_memory(a.data, b.data)
        clone.periods.log_periods.data += 1.0
        assert not np.array_equal(
            clone.periods.log_periods.data, state.periods.log_periods.data
        )
