import numpy as np
import pytest

from conftest import make_sinusoid_values, write_csv
from elastst.data_io import (
    Scaler,
    SplitSpec,
    load_csv,
    sample_windows,
    split_and_scale,
    stride_windows,
    window_values,
)
from elastst.errors import FormatError, IngestionError, ParameterError, SizingError


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("ts,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n")
        ds = load_csv(path)
        assert ds.n_steps == 3 and ds.n_variates == 2
        assert ds.columns == ("a", "b")
        assert ds.values[2].tolist() == [5.0, 6.0]

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "iso.csv"
        path.write_text("date,x\n2016-07-01 00:00:00,1\n2016-07-01 01:00:00,2\n")
        assert load_csv(path).n_steps == 2

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("ts,x\n1,1.0\n1,2.0\n")
        with pytest.raises(IngestionError):
            load_csv(path)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("ts,x\n2,1.0\n1,2.0\n")
        with pytest.raises(IngestionError):
            load_csv(path)

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,a,b\n1,1.0,2.0\n2,oops,4.0\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert "row 3" in str(err.value) and "'a'" in str(err.value)

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("ts\n1\n2\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_non_finite_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("ts,a\n1,1.0\n2,nan\n3,inf\n4,4.0\n")
        ds = load_csv(path)
        assert ds.dropped_rows == 2
        assert ds.values[:, 0].tolist() == [1.0, 4.0]


class TestScalerAndSplit:
    def test_train_split_standardized(self, tmp_path):
        rng = np.random.default_rng(30)
        values = rng.normal(5.0, 2.0, (1000, 3))
        ds = load_csv(write_csv(tmp_path / "d.csv", values))
        train, _, _, _ = split_and_scale(ds, SplitSpec())
        assert np.max(np.abs(train.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(train.std(axis=0) - 1.0)) <= 1e-12

    def test_constant_variate_guarded(self):
        values = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        scaler = Scaler.fit(values)
        out = scaler.transform(values)
        assert np.array_equal(out[:, 0], np.zeros(50))

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(31)
        values = rng.normal(3.0, 10.0, (200, 4))
        scaler = Scaler.fit(values)
        back = scaler.inverse(scaler.transform(values))
        assert np.max(np.abs(back - values) / np.maximum(np.abs(values), 1e-30)) <= 1e-12

    def test_no_leakage_from_val_or_test(self, tmp_path):
        values = make_sinusoid_values(n_steps=500, n_variates=2, seed=2)
        ds = load_csv(write_csv(tmp_path / "a.csv", values))
        _, _, _, scaler_a = split_and_scale(ds, SplitSpec())
        tweaked = values.copy()
        tweaked[400:] += 100.0  # touch only val/test territory
        ds_b = load_csv(write_csv(tmp_path / "b.csv", tweaked))
        _, _, _, scaler_b = split_and_scale(ds_b, SplitSpec())
        np.testing.assert_array_equal(scaler_a.mean, scaler_b.mean)
        np.testing.assert_array_equal(scaler_a.std, scaler_b.std)

    def test_fraction_validation(self):
        with pytest.raises(ParameterError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ParameterError):
            SplitSpec(0.9, 0.1, 0.0)

    def test_split_bounds_are_exact_for_whole_products(self, tmp_path):
        # 0.7 + 0.1 is 0.7999999999999999 in floating point; flooring
        # 10000 times that would give a 999-step validation split
        values = np.arange(10000.0)[:, None]
        ds = load_csv(write_csv(tmp_path / "long.csv", values))
        train, val, test, _ = split_and_scale(ds, SplitSpec(0.7, 0.1, 0.2))
        assert (len(train), len(val), len(test)) == (7000, 1000, 2000)

    def test_min_len_enforced(self, tmp_path):
        values = make_sinusoid_values(n_steps=100, n_variates=1, seed=3)
        ds = load_csv(write_csv(tmp_path / "c.csv", values))
        with pytest.raises(SizingError) as err:
            split_and_scale(ds, SplitSpec(), min_len=50)
        assert "short by" in str(err.value)


class TestWindows:
    def test_stride_covers_exactly_once_when_length_matches(self):
        values = np.arange(24.0).reshape(12, 2)  # 12 steps, 2 variates
        variates, starts = stride_windows(values, lookback=8, horizon=4, stride=4)
        assert len(starts) == 2  # one start per variate
        assert variates.tolist() == [0, 1]

    def test_stride_order_is_variate_major_left_to_right(self):
        values = np.zeros((20, 3))
        variates, starts = stride_windows(values, lookback=4, horizon=3, stride=5)
        assert list(zip(variates.tolist(), starts.tolist())) == [
            (k, s) for k in range(3) for s in (0, 5, 10)
        ]

    def test_alignment_of_target(self):
        values = np.arange(30.0).reshape(15, 2)
        variates, starts = stride_windows(values, lookback=4, horizon=3, stride=5)
        contexts, targets = window_values(values, variates, starts, 4, 3)
        for k, s, ctx, target in zip(variates, starts, contexts, targets):
            assert target[0] == values[s + 4, k]
            assert ctx[-1] == values[s + 3, k]

    def test_sampling_is_reproducible(self):
        values = make_sinusoid_values(n_steps=200, n_variates=3, seed=4)
        va, sa = sample_windows(values, 16, 8, count=10, seed=42)
        vb, sb = sample_windows(values, 16, 8, count=10, seed=42)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(
            window_values(values, va, sa, 16, 8)[0], window_values(values, vb, sb, 16, 8)[0]
        )

    def test_sampling_draws_variates_then_starts(self):
        values = make_sinusoid_values(n_steps=150, n_variates=2, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        variates, starts = sample_windows(values, 12, 6, count=25, seed=7)
        np.testing.assert_array_equal(variates, rng.integers(0, 2, size=25))
        np.testing.assert_array_equal(starts, rng.integers(0, 150 - 18 + 1, size=25))

    def test_samples_match_source_coordinates(self):
        values = make_sinusoid_values(n_steps=150, n_variates=2, seed=5)
        variates, starts = sample_windows(values, 12, 6, count=25, seed=7)
        contexts, targets = window_values(values, variates, starts, 12, 6)
        assert contexts.shape == (25, 12) and targets.shape == (25, 6)
        for k, s, ctx, target in zip(variates, starts, contexts, targets):
            np.testing.assert_array_equal(ctx, values[s : s + 12, k])
            np.testing.assert_array_equal(target, values[s + 12 : s + 18, k])

    def test_too_short_split(self):
        with pytest.raises(SizingError):
            sample_windows(np.zeros((10, 1)), 8, 4, count=1, seed=0)
        with pytest.raises(SizingError):
            stride_windows(np.zeros((10, 1)), 8, 4)
        with pytest.raises(SizingError):
            window_values(np.zeros((10, 1)), np.zeros(1, int), np.zeros(1, int), 8, 4)

    def test_window_values_rejects_indices_outside_the_split(self):
        values = np.arange(20.0).reshape(10, 2)
        for variates, starts in (([0], [-1]), ([0], [6]), ([-1], [0]), ([2], [0]), ([0, 1], [0, 6])):
            with pytest.raises(SizingError):
                window_values(values, np.array(variates), np.array(starts), 3, 2)
        contexts, targets = window_values(values, np.array([1]), np.array([5]), 3, 2)
        assert contexts.tolist() == [[11.0, 13.0, 15.0]] and targets.tolist() == [[17.0, 19.0]]

    def test_rejects_zero_horizon(self):
        with pytest.raises(ParameterError):
            stride_windows(np.ones((8, 1)), 4, 0)
        with pytest.raises(ParameterError):
            window_values(np.ones((8, 1)), np.zeros(1, int), np.zeros(1, int), 4, 0)

    def test_rejects_empty_context(self):
        with pytest.raises(ParameterError):
            stride_windows(np.ones((8, 1)), 0, 4)
        with pytest.raises(ParameterError):
            window_values(np.ones((8, 1)), np.zeros(1, int), np.zeros(1, int), 0, 4)

    def test_rejects_nan(self):
        values = np.ones((8, 2))
        values[1, 1] = np.nan
        variates, starts = stride_windows(values, 4, 2, stride=1)
        with pytest.raises(ParameterError):
            window_values(values, variates, starts, 4, 2)
        # a non-finite value in the target only is not a context problem
        window_values(values, np.array([1]), np.array([0]) + 2, 4, 2)
