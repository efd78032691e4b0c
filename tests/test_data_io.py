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
        samples = stride_windows(values, lookback=8, horizon=4, stride=4)
        assert len(samples) == 2  # one start per variate
        assert [s.variate for s in samples] == [0, 1]

    def test_alignment_of_target(self):
        values = np.arange(30.0).reshape(15, 2)
        samples = stride_windows(values, lookback=4, horizon=3, stride=5)
        for s in samples:
            assert s.target[0] == values[s.start + 4, s.variate]
            assert s.window.context[-1] == values[s.start + 3, s.variate]

    def test_sampling_is_reproducible(self):
        values = make_sinusoid_values(n_steps=200, n_variates=3, seed=4)
        a = sample_windows(values, 16, 8, count=10, seed=42)
        b = sample_windows(values, 16, 8, count=10, seed=42)
        for sa, sb in zip(a, b):
            assert (sa.variate, sa.start) == (sb.variate, sb.start)
            np.testing.assert_array_equal(sa.window.context, sb.window.context)

    def test_samples_match_source_coordinates(self):
        values = make_sinusoid_values(n_steps=150, n_variates=2, seed=5)
        for s in sample_windows(values, 12, 6, count=25, seed=7):
            np.testing.assert_array_equal(s.window.context, values[s.start : s.start + 12, s.variate])
            np.testing.assert_array_equal(s.target, values[s.start + 12 : s.start + 18, s.variate])

    def test_too_short_split(self):
        with pytest.raises(SizingError):
            sample_windows(np.zeros((10, 1)), 8, 4, count=1, seed=0)
        with pytest.raises(SizingError):
            stride_windows(np.zeros((10, 1)), 8, 4)
