import csv
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values, write_csv
from elastst import data_io
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

    @pytest.mark.parametrize("first, second", [("1", "2020-01-01"), ("2020-01-01T00:00", "2020-01-01T01:00+00:00")])
    def test_mixed_timestamp_kinds_name_the_row(self, tmp_path, first, second):
        path = tmp_path / "mixed.csv"
        path.write_text(f"ts,x\n{first},1.0\n{second},2.0\n")
        with pytest.raises(IngestionError, match="row 3: timestamp .* is not of the same kind"):
            load_csv(path)

    def test_unreadable_timestamp_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "when.csv"
        path.write_text("ts,x\n1,1.0\nyesterday,2.0\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 3: timestamp 'yesterday' is neither an integer index nor ISO-8601"

    def test_checks_run_one_kind_at_a_time(self, tmp_path):
        # counts, then numbers, then finiteness, then timestamps: the first
        # failing kind of check reports its first row, wherever the others are
        path = tmp_path / "two.csv"
        path.write_text("ts,a\n2,1.0\n1,2.0\n3,oops\n")
        with pytest.raises(IngestionError, match="row 4, column 'a'"):
            load_csv(path)
        path.write_text("ts,a\n1,oops\n2,2.0,3.0\n")
        with pytest.raises(FormatError, match="row 3 has 3 cells"):
            load_csv(path)

    @pytest.mark.parametrize("n_rows", [10_000, 40_000])
    def test_conversion_holds_little_beyond_the_table_and_the_values(self, tmp_path, n_rows):
        """The cells become floats a block of rows at a time, so the peak
        above the string table, less the returned values, stays small and
        does not grow by a float copy of the whole table."""
        path = write_csv(tmp_path / "long.csv", np.random.default_rng(3).standard_normal((n_rows, 4)))
        tracemalloc.start()
        try:
            with open(path, newline="", encoding="utf-8") as f:
                table = list(csv.reader(f))
            table_peak = tracemalloc.get_traced_memory()[1]
            del table
            tracemalloc.reset_peak()
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_steps == n_rows
        assert peak - table_peak - ds.values.nbytes < 0.5 * 2**20


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
        va, sa = sample_windows(values, 16, 8, count=10, rng=np.random.default_rng(42))
        vb, sb = sample_windows(values, 16, 8, count=10, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(
            window_values(values, va, sa, 16, 8)[0], window_values(values, vb, sb, 16, 8)[0]
        )

    def test_sampling_draws_variates_then_starts(self):
        values = make_sinusoid_values(n_steps=150, n_variates=2, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        variates, starts = sample_windows(values, 12, 6, count=25, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(variates, rng.integers(0, 2, size=25))
        np.testing.assert_array_equal(starts, rng.integers(0, 150 - 18 + 1, size=25))

    def test_samples_match_source_coordinates(self):
        values = make_sinusoid_values(n_steps=150, n_variates=2, seed=5)
        variates, starts = sample_windows(values, 12, 6, count=25, rng=np.random.default_rng(7))
        contexts, targets = window_values(values, variates, starts, 12, 6)
        assert contexts.shape == (25, 12) and targets.shape == (25, 6)
        for k, s, ctx, target in zip(variates, starts, contexts, targets):
            np.testing.assert_array_equal(ctx, values[s : s + 12, k])
            np.testing.assert_array_equal(target, values[s + 12 : s + 18, k])

    def test_too_short_split(self):
        with pytest.raises(SizingError):
            sample_windows(np.zeros((10, 1)), 8, 4, count=1, rng=np.random.default_rng(0))
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


_NUMBERS = st.one_of(
    st.integers(-(10**7), 10**7).map(lambda n: f"{n:_}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.integers(0, 999), st.sampled_from("eE"), st.integers(-330, 330)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]:+d}"
    ),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-Infinity", "+INF", "1e400", ".5", "5.", "4e-324"]),
)
_TOKENS = st.sampled_from(["", "oops", "1..2", "1__0", "_1", "0x1f", "1e", "--1", "n/a", "1 2"])
_SPELLINGS = st.tuples(st.sampled_from(["", " ", "\t"]), _NUMBERS, st.sampled_from(["", " "])).map("".join)


@st.composite
def wide_tables(draw):
    """(width, rows of cells): every cell a number spelling, or in half the
    tables some unparsable tokens too."""
    width = draw(st.integers(1, 4))
    cell = _SPELLINGS if draw(st.booleans()) else st.one_of(_SPELLINGS, _TOKENS)
    return width, draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))


def _float_oracle(rows, columns):
    """Cell-by-cell float(): the first bad (row, column), or the kept values,
    timestamps and dropped-row count."""
    kept, timestamps = [], []
    for i, cells in enumerate(rows, start=2):
        parsed = []
        for name, cell in zip(columns, cells[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                return (i, name), None
        if all(math.isfinite(x) for x in parsed):
            kept.append(parsed)
            timestamps.append(cells[0].strip())
    return None, (kept, timestamps, len(rows) - len(kept))


@settings(max_examples=200, deadline=None)
@given(wide_tables(), st.integers(1, 9))
@example((2, [["1_000", " nan"], ["1e-320", "2"]]), data_io.CSV_BLOCK_ROWS)
def test_load_csv_matches_a_float_oracle(tmp_path_factory, table, block_rows):
    """Cell by cell as float() reads it, whatever the conversion's block size."""
    width, cells = table
    columns = tuple(f"c{k}" for k in range(width))
    rows = [[f" {i} "] + row for i, row in enumerate(cells)]
    path = tmp_path_factory.mktemp("oracle") / "wide.csv"
    path.write_text("\n".join([",".join(("ts",) + columns)] + [",".join(r) for r in rows]) + "\n")
    bad, want = _float_oracle(rows, columns)
    with patch.object(data_io, "CSV_BLOCK_ROWS", block_rows):
        if bad is not None:
            with pytest.raises(IngestionError, match=f"row {bad[0]}, column {bad[1]!r}:"):
                load_csv(path)
            return
        kept, timestamps, dropped = want
        if not kept:
            with pytest.raises(IngestionError, match="no usable data rows"):
                load_csv(path)
            return
        ds = load_csv(path)
        assert ds.columns == columns and ds.timestamps == tuple(timestamps) and ds.dropped_rows == dropped
        np.testing.assert_array_equal(ds.values.view(np.uint64), np.array(kept).view(np.uint64))
