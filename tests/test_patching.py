import numpy as np
import pytest

from elastst.errors import DimensionError, ParameterError
from elastst.patching import (
    Window,
    grid_dims,
    segment,
    segment_batch,
    unpatch,
)


def window(length, horizon, fill=None):
    ctx = np.arange(1.0, length + 1.0) if fill is None else np.full(length, fill)
    return Window(ctx, horizon)


class TestWindow:
    def test_rejects_zero_horizon(self):
        with pytest.raises(ParameterError):
            Window(np.ones(8), 0)

    def test_rejects_empty_context(self):
        with pytest.raises(ParameterError):
            Window(np.array([]), 4)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            Window(np.array([1.0, np.nan]), 4)


class TestSegment:
    def test_exact_divisibility(self):
        grid = segment(window(96, 96), 8)
        assert (grid.context_patches, grid.horizon_patches) == (12, 12)
        assert grid.total_patches == 24
        assert (grid.left_pad, grid.right_pad) == (0, 0)

    def test_ceil_arithmetic_with_padding(self):
        grid = segment(window(90, 100), 8)
        assert (grid.context_patches, grid.left_pad) == (12, 6)
        assert (grid.horizon_patches, grid.right_pad) == (13, 4)
        assert grid.total_patches == 25

    def test_single_patch_content(self):
        grid = segment(window(8, 8), 8)
        assert grid.patches.tolist() == [[1, 2, 3, 4, 5, 6, 7, 8], [0] * 8]

    def test_left_padding_goes_before_context(self):
        grid = segment(Window(np.array([5.0, 6.0, 7.0]), 4), 4)
        assert grid.patches[0].tolist() == [0.0, 5.0, 6.0, 7.0]

    def test_invalid_patch_size(self):
        with pytest.raises(ParameterError):
            segment(window(8, 8), 0)
        with pytest.raises(ParameterError):
            grid_dims(8, 8, -1)

    def test_no_patch_mixes_context_and_placeholder(self):
        for length, horizon, p in ((90, 100, 8), (5, 3, 4), (17, 1, 16)):
            grid = segment(window(length, horizon), p)
            ctx_rows = grid.patches[: grid.context_patches]
            hor_rows = grid.patches[grid.context_patches :]
            assert np.all(hor_rows == 0.0)
            assert ctx_rows.size == grid.context_patches * p


class TestUnpatch:
    def test_concatenation(self):
        grid = segment(window(6, 6), 3)
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert unpatch(rows, grid).tolist() == [1, 2, 3, 4, 5, 6]

    def test_truncation_drops_right_pad(self):
        grid = segment(window(6, 5), 3)
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert unpatch(rows, grid).tolist() == [1, 2, 3, 4, 5]

    def test_shape_contract(self):
        grid = segment(window(6, 6), 3)
        with pytest.raises(DimensionError):
            unpatch(np.zeros((3, 3)), grid)

    def test_round_trip_on_known_horizons(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            length = int(rng.integers(1, 40))
            horizon = int(rng.integers(1, 40))
            p = int(rng.integers(1, 12))
            grid = segment(Window(rng.standard_normal(length), horizon), p)
            truth = rng.standard_normal(horizon)
            padded = np.concatenate([truth, np.zeros(grid.right_pad)])
            rows = padded.reshape(grid.horizon_patches, p)
            np.testing.assert_array_equal(unpatch(rows, grid), truth)


class TestHorizonExtension:
    def test_extension_only_appends_placeholder_rows(self):
        rng = np.random.default_rng(12)
        ctx = rng.standard_normal(50)
        for p in (4, 8, 16):
            for t1, t2 in ((1, 7), (8, 32), (17, 100)):
                g1 = segment(Window(ctx, t1), p)
                g2 = segment(Window(ctx, t2), p)
                assert g1.context_patches == g2.context_patches
                np.testing.assert_array_equal(
                    g1.patches[: g1.context_patches], g2.patches[: g2.context_patches]
                )
                np.testing.assert_array_equal(
                    g1.patches[g1.context_patches :],
                    g2.patches[g2.context_patches : g1.total_patches],
                )


class TestSegmentBatch:
    def test_matches_single_window_layout(self):
        rng = np.random.default_rng(13)
        contexts = rng.standard_normal((5, 21))
        batched = segment_batch(contexts, 13, 4)
        for i in range(5):
            grid = segment(Window(contexts[i], 13), 4)
            np.testing.assert_array_equal(batched[i], grid.patches)
