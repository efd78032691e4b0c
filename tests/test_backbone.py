import numpy as np
import pytest

import elastst.numerics as nm
from elastst.backbone import AttentionConfig, LayerWeights, attention, keys_and_values, transformer_block
from elastst.errors import ContractError, ParameterError
from elastst.numerics import Tensor
from elastst.trope import PeriodSpec, init_periods
from helpers import finite_diff_check


CFG = AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1)


def make_weights(seed=0, cfg=CFG):
    return LayerWeights(cfg, np.random.default_rng(seed))


def make_periods(cfg=CFG):
    return init_periods(PeriodSpec(1.0, 1000.0, cfg.head_dim))


def head_block(w, head, cfg=CFG):
    """Head ``head``'s (D, hd) map: its columns of a fused q/k/v weight."""
    return w.data[:, head * cfg.head_dim : (head + 1) * cfg.head_dim]


def rand_h(n, seed=1, cfg=CFG):
    """A (1, n, D) batch of one window."""
    return np.random.default_rng(seed).standard_normal((1, n, cfg.d_model))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AttentionConfig(16, 0, 8, 24, 1)
        with pytest.raises(ParameterError):
            AttentionConfig(16, 2, 7, 24, 1)
        with pytest.raises(ParameterError):
            AttentionConfig(16, 2, 8, 24, 0)
        with pytest.raises(ParameterError):
            AttentionConfig(0, 2, 8, 24, 1)


def attend(h, n_keys, periods, weights, first_query=0):
    """Attention of rows ``[first_query, N)`` of ``h`` over its first ``n_keys`` rows."""
    keys = keys_and_values(nm.slice_axis(h, 1, 0, n_keys), periods, weights)
    queries = nm.slice_axis(h, 1, first_query, h.data.shape[1])
    return attention(queries, np.arange(first_query, h.data.shape[1]), keys, periods, weights)


def two_passes(h, n_c, periods, weights, context_rows=True):
    """A block on (B, N, D) rows as ``forward_batch`` runs it: the context
    pass on the first ``n_c`` rows (keys only without ``context_rows``),
    then the placeholder rows against its keys. Returns both outputs."""
    n = h.shape[1]
    queried = np.arange(n_c) if context_rows else np.arange(n_c, n_c)
    ctx, keys = transformer_block(Tensor(h[:, :n_c]), queried, periods, weights)
    ph, _ = transformer_block(Tensor(h[:, n_c:]), np.arange(n_c, n), periods, weights, keys)
    return ctx, ph


class TestMaskedAttention:
    def test_single_unmasked_key_gets_full_weight(self):
        h = Tensor(rand_h(1))
        _, probs = attend(h, 1, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 1, 1)
        assert np.all(probs.data == 1.0)

    def test_single_patch_output_is_its_own_value_projection(self):
        weights = make_weights()
        hd = rand_h(1)
        out, _ = attend(Tensor(hd), 1, make_periods(), weights)
        v = np.concatenate([hd[0] @ head_block(weights.wv, head) for head in range(CFG.n_heads)], axis=1)
        expected = v @ weights.wo.data
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_two_patches_one_masked_gives_unit_row(self):
        h = Tensor(rand_h(2))
        _, probs = attend(h, 1, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 2, 1)
        np.testing.assert_array_equal(probs.data[0, :, :, 0], np.ones((CFG.n_heads, 2)))

    def test_probabilities_are_row_stochastic_over_unmasked(self):
        h = Tensor(rand_h(7, seed=3))
        _, probs = attend(h, 4, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 7, 4)
        assert np.max(np.abs(probs.data.sum(axis=-1) - 1.0)) <= 1e-12

    def test_all_masked_rejected(self):
        with pytest.raises(ContractError):
            keys_and_values(Tensor(np.zeros((1, 0, CFG.d_model))), make_periods(), make_weights())

    def test_queries_from_another_batch_rejected(self):
        keys = keys_and_values(Tensor(rand_h(3)), make_periods(), make_weights())
        with pytest.raises(ContractError):
            attention(Tensor(np.zeros((2, 3, CFG.d_model))), np.arange(3), keys, make_periods(), make_weights())

    @pytest.mark.parametrize("n_positions", [0, 2, 4])
    def test_query_rows_must_match_their_positions(self, n_positions):
        periods, weights = make_periods(), make_weights()
        keys = keys_and_values(Tensor(rand_h(3)), periods, weights)
        with pytest.raises(ContractError):
            attention(Tensor(rand_h(3)), np.arange(n_positions), keys, periods, weights)

    def test_later_queries_are_the_matching_rows_of_all_queries(self):
        weights = make_weights(seed=19)
        periods = make_periods()
        h = Tensor(np.concatenate([rand_h(6, seed=20), rand_h(6, seed=21)]))
        out_all, probs_all = attend(h, 4, periods, weights)
        out_late, probs_late = attend(h, 4, periods, weights, first_query=4)
        assert out_late.data.shape == (2, 2, CFG.d_model)
        assert probs_late.data.shape == (2, CFG.n_heads, 2, 4)
        assert np.array_equal(out_late.data, out_all.data[:, 4:])
        assert np.array_equal(probs_late.data, probs_all.data[:, :, 4:])

    def test_shared_query_row_equals_its_copies(self):
        weights = make_weights(seed=22)
        periods = make_periods()
        keys = keys_and_values(Tensor(np.concatenate([rand_h(4, seed=23), rand_h(4, seed=24)])), periods, weights)
        row = rand_h(1, seed=25)
        positions = np.arange(4, 9)
        shared, _ = attention(Tensor(row), positions, keys, periods, weights)
        copies, _ = attention(Tensor(np.tile(row, (2, 5, 1))), positions, keys, periods, weights)
        assert shared.data.shape == (2, 5, CFG.d_model)
        assert np.array_equal(shared.data, copies.data)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ContractError):
            keys_and_values(Tensor(rand_h(3)[0]), make_periods(), make_weights())

    def test_masked_patch_perturbation_cannot_leak(self):
        weights = make_weights(seed=5)
        periods = make_periods()
        base = rand_h(4, seed=6)
        poked = base.copy()
        poked[0, 3] += 10.0  # perturb a non-key row
        out_a, _ = attend(Tensor(base), 2, periods, weights)
        out_b, _ = attend(Tensor(poked), 2, periods, weights)
        assert np.array_equal(out_a.data[0, :3], out_b.data[0, :3])

    def test_probabilities_match_independent_construction(self):
        # rebuild the attention weights from first principles: project,
        # score via the rotation-based relative score, scale by sqrt(d),
        # mask the non-key columns, softmax - and compare with the module
        from helpers import relative_score

        weights = make_weights(seed=30)
        periods = make_periods()
        n, n_keys = 5, 3
        hd = rand_h(n, seed=31)
        _, probs = attend(Tensor(hd), n_keys, periods, weights)
        for head in range(CFG.n_heads):
            q = hd[0] @ head_block(weights.wq, head)
            k = hd[0] @ head_block(weights.wk, head)
            scores = np.empty((n, n))
            for m in range(n):
                for j in range(n):
                    scores[m, j] = relative_score(q[m], k[j], m, j, periods)
            scores /= np.sqrt(CFG.head_dim)
            scores[:, n_keys:] = -np.inf
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            expected = e / e.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(probs.data[0, head], expected[:, :n_keys], atol=1e-12)
            assert np.all(expected[:, n_keys:] == 0.0)

    def test_each_batch_window_equals_the_window_alone(self):
        weights = make_weights(seed=7)
        periods = make_periods()
        h = np.concatenate([rand_h(3, seed=8), rand_h(3, seed=9)])
        batched, _ = attend(Tensor(h), 2, periods, weights)
        for i in range(2):
            alone, _ = attend(Tensor(h[i : i + 1]), 2, periods, weights)
            assert np.array_equal(batched.data[i], alone.data[0])


class TestTransformerBlock:
    def test_zero_weights_give_residual_identity(self):
        weights = make_weights()
        for w in (weights.wq, weights.wk, weights.wv):
            w.data[:] = 0.0
        weights.wo.data[:] = 0.0
        weights.ffn.w1.data[:] = 0.0
        weights.ffn.w2.data[:] = 0.0
        h = rand_h(5, seed=9)
        ctx, ph = two_passes(h, 3, make_periods(), weights)
        assert np.array_equal(ctx.data, h[:, :3])
        assert np.array_equal(ph.data, h[:, 3:])

    @pytest.mark.parametrize("shared_row", [False, True])
    @pytest.mark.parametrize("context_rows", [True, False])
    def test_gradient_check(self, context_rows, shared_row):
        weights = make_weights(seed=10)
        periods = make_periods()
        rng = np.random.default_rng(11)
        ctx = Tensor(rng.uniform(-1, 1, (2, 2, CFG.d_model)), requires_grad=True)
        ph = Tensor(rng.uniform(-1, 1, (1, 1, CFG.d_model) if shared_row else (2, 3, CFG.d_model)), requires_grad=True)
        targets = Tensor(rng.uniform(-1, 1, (2, 5, CFG.d_model)))
        ones = Tensor(np.ones((2, 5, CFG.d_model)))

        def f():
            out_ctx, keys = transformer_block(ctx, np.arange(2 if context_rows else 0), periods, weights)
            out_ph, _ = transformer_block(ph, np.arange(2, 5), periods, weights, keys)
            loss = nm.mse(out_ph, nm.slice_axis(targets, 1, 2, 5), nm.slice_axis(ones, 1, 2, 5))
            if context_rows:
                loss = nm.add(loss, nm.mse(out_ctx, nm.slice_axis(targets, 1, 0, 2), nm.slice_axis(ones, 1, 0, 2)))
            return loss

        params = [ctx, ph, periods.log_periods, weights.wq, weights.wk, weights.wo,
                  weights.ln1_gain, weights.ffn.w1, weights.ffn.b2]
        assert finite_diff_check(f, params) < 1e-4

    def test_stacked_blocks_preserve_masked_non_influence(self):
        layers = [make_weights(seed=13), make_weights(seed=14)]
        periods = make_periods()
        base = rand_h(5, seed=15)
        poked = base.copy()
        poked[0, 4] -= 3.0

        def run(h):
            ctx, ph = Tensor(h[:, :3]), Tensor(h[:, 3:])
            for layer in layers:
                ctx, keys = transformer_block(ctx, np.arange(3), periods, layer)
                ph, _ = transformer_block(ph, np.arange(3, 5), periods, layer, keys)
            return np.concatenate([ctx.data, ph.data], axis=1)

        out_a, out_b = run(base), run(poked)
        assert np.array_equal(out_a[0, :4], out_b[0, :4])

    @pytest.mark.parametrize("every_row_a_key", [False, True])
    def test_block_is_the_residual_attention_of_its_rows_over_the_keys(self, every_row_a_key):
        # the context pass on all 5 rows makes every row a key; on the
        # first 3, then the other 2 against its keys, as the model runs it
        weights = make_weights(seed=26)
        periods = make_periods()
        h = Tensor(rand_h(5, seed=27))
        if every_row_a_key:
            out, _ = transformer_block(h, np.arange(5), periods, weights)
        else:
            out = nm.concat(list(two_passes(h.data, 3, periods, weights)), axis=1)
        normed = nm.layer_norm(h, weights.ln1_gain, weights.ln1_bias)
        attn, _ = attend(normed, 5 if every_row_a_key else 3, periods, weights)
        mid = nm.add(h, attn)
        expected = nm.add(mid, weights.ffn(nm.layer_norm(mid, weights.ln2_gain, weights.ln2_bias)))
        assert np.array_equal(out.data, expected.data)

    @pytest.mark.parametrize("first", [1, 2, 5])
    def test_context_pass_returns_every_row_or_keys_only(self, first):
        weights = make_weights(seed=28)
        periods = make_periods()
        h = Tensor(rand_h(6, seed=29))
        _, keys = transformer_block(h, np.arange(6), periods, weights)
        none, keys_only = transformer_block(h, np.arange(0), periods, weights)
        assert none is None
        assert all(np.array_equal(a.data, b.data) for a, b in zip(keys, keys_only))
        with pytest.raises(ContractError):  # a tail is neither every row nor none
            transformer_block(h, np.arange(first, 6), periods, weights)

    def test_appending_masked_rows_leaves_existing_rows_bitwise(self):
        weights = make_weights(seed=16)
        periods = make_periods()
        base = rand_h(6, seed=17)
        extra = np.random.default_rng(18).standard_normal((1, 9, CFG.d_model))
        longer = np.concatenate([base, extra], axis=1)

        small = np.concatenate([t.data for t in two_passes(base, 4, periods, weights)], axis=1)
        big = np.concatenate([t.data for t in two_passes(longer, 4, periods, weights)], axis=1)
        assert np.array_equal(big[:, :6], small)

        small_att, _ = attend(Tensor(base), 4, periods, weights)
        big_att, _ = attend(Tensor(longer), 4, periods, weights)
        assert np.array_equal(big_att.data[:, :6], small_att.data)

    def test_context_and_placeholder_shapes_checked(self):
        periods, weights = make_periods(), make_weights()
        with pytest.raises(ContractError):
            transformer_block(Tensor(np.zeros((1, 0, CFG.d_model))), np.arange(0), periods, weights)
        for positions in (np.arange(1), np.arange(1, 3), np.arange(0, 4), np.array([1, 0])):
            with pytest.raises(ContractError):
                transformer_block(Tensor(rand_h(3)), positions, periods, weights)
        _, keys = transformer_block(Tensor(rand_h(2)), np.arange(2), periods, weights)
        with pytest.raises(ContractError):
            transformer_block(Tensor(rand_h(3)), np.arange(2, 4), periods, weights, keys)
