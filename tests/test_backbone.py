import numpy as np
import pytest

import elastst.numerics as nm
from elastst.backbone import AttentionConfig, LayerWeights, attention, transformer_block
from elastst.errors import ContractError, ParameterError
from elastst.numerics import Tensor, finite_diff_check
from elastst.trope import PeriodSpec, init_periods


CFG = AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1)


def make_weights(seed=0, cfg=CFG):
    return LayerWeights(cfg, np.random.default_rng(seed))


def make_periods(cfg=CFG):
    return init_periods(PeriodSpec(1.0, 1000.0, cfg.head_dim))


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


class TestMaskedAttention:
    def test_single_unmasked_key_gets_full_weight(self):
        h = Tensor(rand_h(1))
        _, probs = attention(h, 1, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 1, 1)
        assert np.all(probs.data == 1.0)

    def test_single_patch_output_is_its_own_value_projection(self):
        weights = make_weights()
        hd = rand_h(1)
        out, _ = attention(Tensor(hd), 1, make_periods(), weights)
        v = np.concatenate([hd[0] @ w.data for w in weights.wv], axis=1)
        expected = v @ weights.wo.data
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_two_patches_one_masked_gives_unit_row(self):
        h = Tensor(rand_h(2))
        _, probs = attention(h, 1, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 2, 1)
        np.testing.assert_array_equal(probs.data[0, :, :, 0], np.ones((CFG.n_heads, 2)))

    def test_probabilities_are_row_stochastic_over_unmasked(self):
        h = Tensor(rand_h(7, seed=3))
        _, probs = attention(h, 4, make_periods(), make_weights())
        assert probs.data.shape == (1, CFG.n_heads, 7, 4)
        assert np.max(np.abs(probs.data.sum(axis=-1) - 1.0)) <= 1e-12

    def test_all_masked_rejected(self):
        h = Tensor(rand_h(3))
        with pytest.raises(ContractError):
            attention(h, 0, make_periods(), make_weights())

    def test_more_keys_than_rows_rejected(self):
        h = Tensor(rand_h(3))
        with pytest.raises(ContractError):
            attention(h, 4, make_periods(), make_weights())

    def test_unbatched_input_rejected(self):
        with pytest.raises(ContractError):
            attention(Tensor(rand_h(3)[0]), 2, make_periods(), make_weights())

    def test_masked_patch_perturbation_cannot_leak(self):
        weights = make_weights(seed=5)
        periods = make_periods()
        base = rand_h(4, seed=6)
        poked = base.copy()
        poked[0, 3] += 10.0  # perturb a non-key row
        out_a, _ = attention(Tensor(base), 2, periods, weights)
        out_b, _ = attention(Tensor(poked), 2, periods, weights)
        assert np.array_equal(out_a.data[0, :3], out_b.data[0, :3])

    def test_probabilities_match_independent_construction(self):
        # rebuild the attention weights from first principles: project,
        # score via the rotation-based relative score, scale by sqrt(d),
        # mask the non-key columns, softmax - and compare with the module
        from elastst.trope import relative_score

        weights = make_weights(seed=30)
        periods = make_periods()
        n, n_keys = 5, 3
        hd = rand_h(n, seed=31)
        _, probs = attention(Tensor(hd), n_keys, periods, weights)
        for head in range(CFG.n_heads):
            q = hd[0] @ weights.wq[head].data
            k = hd[0] @ weights.wk[head].data
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
        batched, _ = attention(Tensor(h), 2, periods, weights)
        for i in range(2):
            alone, _ = attention(Tensor(h[i : i + 1]), 2, periods, weights)
            assert np.array_equal(batched.data[i], alone.data[0])


class TestTransformerBlock:
    def test_zero_weights_give_residual_identity(self):
        cfg = CFG
        weights = make_weights()
        for w in weights.wq + weights.wk + weights.wv:
            w.data[:] = 0.0
        weights.wo.data[:] = 0.0
        weights.ffn.w1.data[:] = 0.0
        weights.ffn.w2.data[:] = 0.0
        h = rand_h(5, seed=9)
        out = transformer_block(Tensor(h), 3, make_periods(), weights)
        assert np.array_equal(out.data, h)

    def test_gradient_check(self):
        weights = make_weights(seed=10)
        periods = make_periods()
        h = Tensor(np.random.default_rng(11).uniform(-1, 1, (1, 3, CFG.d_model)), requires_grad=True)
        target = Tensor(np.random.default_rng(12).uniform(-1, 1, (1, 3, CFG.d_model)))
        ones = Tensor(np.ones((1, 3, CFG.d_model)))

        def f():
            return nm.mse(transformer_block(h, 2, periods, weights), target, ones)

        params = [h, periods.log_periods, weights.wq[0], weights.wo,
                  weights.ln1_gain, weights.ffn.w1, weights.ffn.b2]
        assert finite_diff_check(f, params, step=1e-5) < 1e-4

    def test_stacked_blocks_preserve_masked_non_influence(self):
        layers = [make_weights(seed=13), make_weights(seed=14)]
        periods = make_periods()
        base = rand_h(5, seed=15)
        poked = base.copy()
        poked[0, 4] -= 3.0

        def run(h):
            t = Tensor(h)
            for layer in layers:
                t = transformer_block(t, 3, periods, layer)
            return t.data

        out_a, out_b = run(base), run(poked)
        assert np.array_equal(out_a[0, :4], out_b[0, :4])

    def test_appending_masked_rows_leaves_existing_rows_bitwise(self):
        weights = make_weights(seed=16)
        periods = make_periods()
        base = rand_h(6, seed=17)
        extra = np.random.default_rng(18).standard_normal((1, 9, CFG.d_model))
        longer = np.concatenate([base, extra], axis=1)

        small = transformer_block(Tensor(base), 4, periods, weights).data
        big = transformer_block(Tensor(longer), 4, periods, weights).data
        assert np.array_equal(big[:, :6], small)

        small_att, _ = attention(Tensor(base), 4, periods, weights)
        big_att, _ = attention(Tensor(longer), 4, periods, weights)
        assert np.array_equal(big_att.data[:, :6], small_att.data)
