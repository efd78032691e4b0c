import math

import numpy as np
import pytest

from conftest import make_sinusoid_values
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler, stride_windows
from elastst.errors import DimensionError, MetricUndefinedError
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
        samples = stride_windows(self.split, 16, 32, stride=32)
        contexts = np.stack([s.window.context for s in samples])
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
