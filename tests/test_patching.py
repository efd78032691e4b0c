import numpy as np
import pytest

import elastst.numerics as nm
from elastst.errors import DimensionError, ParameterError
from elastst.numerics import Tensor
from elastst.patching import grid_dims, segment_batch, unpatch
from helpers import mean


def context(length):
    """The (1, length) context 1, 2, ..., length."""
    return np.arange(1.0, length + 1.0)[None, :]


class TestSegment:
    def test_exact_divisibility(self):
        assert grid_dims(96, 96, 8) == (12, 12, 0, 0)
        assert segment_batch(context(96), 8).shape == (1, 12, 8)

    def test_ceil_arithmetic_with_padding(self):
        n_c, n_h, left_pad, right_pad = grid_dims(90, 100, 8)
        assert (n_c, left_pad) == (12, 6)
        assert (n_h, right_pad) == (13, 4)
        assert segment_batch(context(90), 8).shape == (1, 12, 8)

    def test_single_patch_content(self):
        patches = segment_batch(context(8), 8)[0]
        assert patches.tolist() == [[1, 2, 3, 4, 5, 6, 7, 8]]

    def test_left_padding_goes_before_context(self):
        patches = segment_batch(np.array([[5.0, 6.0, 7.0]]), 4)[0]
        assert patches[0].tolist() == [0.0, 5.0, 6.0, 7.0]

    def test_invalid_patch_size(self):
        with pytest.raises(ParameterError):
            segment_batch(context(8), 0)
        with pytest.raises(ParameterError):
            grid_dims(8, 8, -1)

    def test_no_patch_mixes_context_and_placeholder(self):
        for length, horizon, p in ((90, 100, 8), (5, 3, 4), (17, 1, 16)):
            n_c, _, left_pad, _ = grid_dims(length, horizon, p)
            patches = segment_batch(context(length), p)[0]
            assert patches.shape == (n_c, p)
            assert patches.reshape(-1).tolist() == [0.0] * left_pad + context(length)[0].tolist()


class TestUnpatch:
    def test_concatenation(self):
        rows = Tensor([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        assert unpatch(rows, 6).data.tolist() == [[1, 2, 3, 4, 5, 6]]

    def test_truncation_drops_right_pad(self):
        rows = Tensor([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        assert unpatch(rows, 5).data.tolist() == [[1, 2, 3, 4, 5]]

    def test_forecast_is_a_view_of_the_rows(self):
        rows = Tensor(np.arange(12.0).reshape(1, 3, 4))
        assert np.shares_memory(unpatch(rows, 10).data, rows.data)

    def test_shape_contract(self):
        with pytest.raises(DimensionError):
            unpatch(Tensor(np.zeros((1, 3, 3))), 6)  # 6 steps need 2 patch rows
        with pytest.raises(DimensionError):
            unpatch(Tensor(np.zeros((2, 3))), 6)  # not (B, n_h, P)

    def test_round_trip_on_known_horizons(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = int(rng.integers(1, 4))
            horizon = int(rng.integers(1, 40))
            p = int(rng.integers(1, 12))
            _, n_h, _, right_pad = grid_dims(1, horizon, p)
            truth = rng.standard_normal((b, horizon))
            rows = np.concatenate([truth, np.zeros((b, right_pad))], axis=1).reshape(b, n_h, p)
            np.testing.assert_array_equal(unpatch(Tensor(rows), horizon).data, truth)

    def test_gradient_flows_to_kept_positions_only(self):
        rows = Tensor(np.random.default_rng(15).standard_normal((2, 3, 4)), requires_grad=True)
        with nm.Graph():
            nm.backward(mean(unpatch(rows, 10)))
        assert np.all(rows.grad[:, 2, 2:] == 0.0) and np.all(rows.grad[:, :2] == 1.0 / 20)


class TestHorizonExtension:
    def test_extension_only_appends_placeholder_rows(self):
        for p in (4, 8, 16):
            for t1, t2 in ((1, 7), (8, 32), (17, 100)):
                n_c, n_h1, left_pad, _ = grid_dims(50, t1, p)
                n_c2, n_h2, left_pad2, _ = grid_dims(50, t2, p)
                assert (n_c2, left_pad2) == (n_c, left_pad)
                assert n_h2 >= n_h1


class TestSegmentBatch:
    def test_matches_single_window_layout(self):
        rng = np.random.default_rng(13)
        contexts = rng.standard_normal((5, 21))
        batched = segment_batch(contexts, 4)
        for i in range(5):
            np.testing.assert_array_equal(batched[i], segment_batch(contexts[i : i + 1], 4)[0])
