import math

import numpy as np
import pytest

from conftest import make_sinusoid_values
from elastst.backbone import AttentionConfig
from elastst import evaluation
from elastst.data_io import Scaler, stride_windows, window_values
from elastst.errors import DimensionError, MetricUndefinedError, ParameterError, SizingError
from elastst.evaluation import MetricReport, MetricRow, nmae, nrmse, varied_horizon_eval
from elastst.model import ElasTSTConfig, ModelState, forward_batch
from elastst.trope import PeriodSpec


class TestMetrics:
    def test_perfect_prediction(self):
        x = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert nmae(x, x) == 0.0
        assert nrmse(x, x) == 0.0

    def test_zero_prediction_gives_unit_nmae(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert nmae(x, np.zeros_like(x)) == 1.0

    def test_hand_values(self):
        assert nmae([[1.0, 2.0]], [[2.0, 2.0]]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert nrmse([[3.0]], [[0.0]]) == 1.0
        assert nrmse([[1.0, 2.0]], [[0.0, 0.0]]) == pytest.approx(math.sqrt(2.5) / 1.5, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(40)
        actual = rng.normal(2.0, 1.0, (6, 9))
        pred = actual + rng.normal(0.0, 0.5, (6, 9))
        base_nmae, base_nrmse = nmae(actual, pred), nrmse(actual, pred)
        for c in (0.01, 1.0, 1000.0):
            assert abs(nmae(c * actual, c * pred) - base_nmae) <= 1e-12
            assert abs(nrmse(c * actual, c * pred) - base_nrmse) <= 1e-12

    def test_zero_denominator_is_an_error_not_nan(self):
        zeros = np.zeros((2, 3))
        with pytest.raises(MetricUndefinedError):
            nmae(zeros, zeros + 1.0)
        with pytest.raises(MetricUndefinedError):
            nrmse(zeros, zeros + 1.0)

    def test_shape_contract(self):
        with pytest.raises(DimensionError):
            nmae(np.zeros((2, 3)), np.zeros((3, 2)))


def small_state(seed=0):
    config = ElasTSTConfig(
        patch_sizes=(4, 8),
        period_spec=PeriodSpec(1.0, 100.0, 8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1),
        lookback=16,
    )
    return ModelState.init(config, seed=seed)


class TestHarness:
    def setup_method(self):
        self.values = make_sinusoid_values(n_steps=300, n_variates=2, seed=6)
        self.scaler = Scaler.fit(self.values[:200])
        self.split = self.scaler.transform(self.values)
        self.state = small_state()

    def test_single_horizon_single_row(self):
        report = varied_horizon_eval(self.state, self.split, 16, [8], self.scaler)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.horizon == 8 and row.windows > 0
        assert row.nmae >= 0.0 and row.nrmse >= 0.0

    def test_rerun_is_bitwise_identical(self):
        a = varied_horizon_eval(self.state, self.split, 16, [8, 16], self.scaler)
        b = varied_horizon_eval(self.state, self.split, 16, [8, 16], self.scaler)
        assert a.to_csv() == b.to_csv()

    def test_prefix_consistency_across_horizons(self):
        # on identical windows, the first T1 predicted steps under T2 > T1
        # match the T1 run exactly
        contexts, _ = window_values(self.split, *stride_windows(self.split, 16, 32, stride=32), 16, 32)
        short = forward_batch(self.state, contexts, 8).values
        long = forward_batch(self.state, contexts, 32).values
        assert np.array_equal(long[:, :8], short)

    def test_report_formats(self):
        report = MetricReport(
            rows=[MetricRow(horizon=8, nmae=0.25, nrmse=0.5, windows=12)],
            dataset="demo",
        )
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "horizon,nmae,nrmse,windows"
        assert csv_text.splitlines()[1].startswith("8,0.25,0.5,12"[:6])
        table = report.format_table()
        assert "NMAE" in table and "8" in table


def per_horizon_eval(state, values, lookback, horizons, scaler, stride=None):
    """Reference: forecast every horizon's windows separately at that horizon."""
    rows = []
    for horizon in horizons:
        variates, starts = stride_windows(values, lookback, horizon, stride)
        contexts, targets = window_values(values, variates, starts, lookback, horizon)
        forecast = forward_batch(state, contexts, horizon)
        preds = np.stack([scaler.inverse(f, k) for f, k in zip(forecast.values, variates)])
        actual = np.stack([scaler.inverse(t, k) for t, k in zip(targets, variates)])
        rows.append(MetricRow(horizon, nmae(actual, preds), nrmse(actual, preds), len(starts)))
    return MetricReport(rows=rows)


class TestLongestHorizonReuse:
    """Each distinct window is forecast once, at its longest requested horizon."""

    def setup_method(self):
        self.values = make_sinusoid_values(n_steps=300, n_variates=2, seed=6)
        self.scaler = Scaler.fit(self.values[:200])
        self.split = self.scaler.transform(self.values)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("stride", [None, 1, 6])
    @pytest.mark.parametrize("horizons", [[8, 16, 40], [40, 4, 16, 4, 9], [12, 12]])
    def test_report_bytes_equal_per_horizon_loop(self, seed, stride, horizons):
        state = small_state(seed)
        want = per_horizon_eval(state, self.split, 16, horizons, self.scaler, stride).to_csv()
        got = varied_horizon_eval(state, self.split, 16, horizons, self.scaler, stride=stride).to_csv()
        assert got == want

    def recording_forward(self, monkeypatch):
        calls = []

        def forward(state, contexts, horizon):
            calls.append((horizon, contexts.copy()))
            return forward_batch(state, contexts, horizon)

        monkeypatch.setattr(evaluation, "forward_batch", forward)
        return calls

    @pytest.mark.parametrize("stride", [None, 5])
    def test_each_window_forwarded_once_per_longest_horizon(self, monkeypatch, stride):
        calls = self.recording_forward(monkeypatch)
        horizons = [16, 4, 40, 9, 16]
        varied_horizon_eval(small_state(), self.split, 16, horizons, self.scaler, stride=stride)
        longest = {}
        for horizon in horizons:
            for key in zip(*(a.tolist() for a in stride_windows(self.split, 16, horizon, stride))):
                longest[key] = max(horizon, longest.get(key, 0))
        key_of = {self.split[s : s + 16, k].tobytes(): (k, s) for k, s in longest}
        assert len(key_of) == len(longest)  # distinct windows have distinct contexts
        forwarded = [(horizon, key_of[row.tobytes()]) for horizon, contexts in calls for row in contexts]
        assert sorted(key for _, key in forwarded) == sorted(longest)  # each window exactly once
        assert all(longest[key] == horizon for horizon, key in forwarded)
        assert sorted(h for h, _ in calls) == sorted(set(longest.values()))  # one call per longest horizon

    @pytest.mark.parametrize("lookback", [8, 32])
    def test_a_lookback_other_than_the_models_fails_before_any_forward(self, monkeypatch, lookback):
        calls = self.recording_forward(monkeypatch)
        with pytest.raises(ParameterError, match=f"lookback {lookback} differs from the model's lookback 16"):
            varied_horizon_eval(small_state(), self.split, lookback, [8], self.scaler)
        assert calls == []

    def test_too_long_horizon_fails_before_any_forward(self, monkeypatch):
        calls = self.recording_forward(monkeypatch)
        with pytest.raises(SizingError):
            varied_horizon_eval(small_state(), self.split, 16, [8, 10_000], self.scaler)
        assert calls == []
