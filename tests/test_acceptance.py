"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers. The heavyweight training run is
shared through a module fixture; the reproducibility criterion repeats it
from scratch and compares artifacts byte for byte.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_sinusoid_values
from elastst import gradcheck
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler, SplitSpec, stride_windows, window_values
from elastst.evaluation import nmae, nrmse, varied_horizon_eval
from elastst.model import (
    ElasTSTConfig,
    ModelState,
    forward_batch,
    load_model,
    write_checkpoint,
)
from elastst.numerics import Tensor
from elastst.patching import grid_dims, unpatch
from elastst.training import TrainConfig, TrainData, reweight_vector, train
from elastst.trope import PeriodSpec, init_periods
from every_row import every_row_forward
from helpers import expected_weight_oracle, relative_score

LOOKBACK = 96
EVAL_HORIZONS = (192, 336, 720, 1024)


def acceptance_config(lookback=LOOKBACK):
    return ElasTSTConfig(
        patch_sizes=(8, 16, 32),
        period_spec=PeriodSpec(p_min=1.0, p_max=1000.0, head_dim=16),
        attention=AttentionConfig(d_model=64, n_heads=4, head_dim=16, d_ff=128, n_layers=2),
        lookback=lookback,
    )


def random_windows(count=20, seed=1):
    return np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((count, LOOKBACK))


def test_criterion_01_horizon_invariance():
    start = time.monotonic()
    state = ModelState.init(acceptance_config(), seed=0)
    contexts = random_windows()
    base = forward_batch(state, contexts, 96).values
    for horizon in EVAL_HORIZONS:
        extended = forward_batch(state, contexts, horizon).values
        assert np.array_equal(extended[:, :96], base), f"drift at horizon {horizon}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS - first 96 steps bitwise-stable for T in {EVAL_HORIZONS} ({elapsed:.1f}s)")


def test_criterion_02_mask_necessity():
    start = time.monotonic()
    state = ModelState.init(acceptance_config(), seed=0)
    contexts = random_windows()
    base = every_row_forward(state, contexts, 96, use_key_mask=False).values
    worst = 0.0
    for horizon in EVAL_HORIZONS:
        extended = every_row_forward(state, contexts, horizon, use_key_mask=False).values
        worst = max(worst, float(np.max(np.abs(extended[:, :96] - base))))
    elapsed = time.monotonic() - start
    assert worst > 1e-6
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS - unmasked deviation {worst:.3e} > 1e-6 ({elapsed:.1f}s)")


def test_criterion_03_shift_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for d in (8, 16, 64):
        periods = init_periods(PeriodSpec(1.0, 1000.0, d))
        for _ in range(1000):
            q = rng.standard_normal(d)
            k = rng.standard_normal(d)
            m, n = (int(v) for v in rng.integers(0, 100, 2))
            s = int(rng.integers(1, 51))
            drift = abs(
                relative_score(q, k, m, n, periods) - relative_score(q, k, m + s, n + s, periods)
            )
            worst = max(worst, drift)
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 PASS - worst shift drift {worst:.2e} <= 1e-9 ({elapsed:.1f}s)")


def test_criterion_04_classic_rotary_equivalence():
    for d in (8, 16, 64):
        p_min = 2.0 * math.pi
        p_max = 2.0 * math.pi * 10000.0 ** (1.0 - 2.0 / d)
        periods = init_periods(PeriodSpec(p_min, p_max, d))
        angles = 2.0 * math.pi / periods.periods()
        expected = np.array([10000.0 ** (-2.0 * j / d) for j in range(d // 2)])
        assert np.max(np.abs(angles - expected)) <= 1e-12
        # boundary exactness: the learnable parameters are the log-periods,
        # and those endpoints are exact; the period values themselves go
        # through one exp(log(.)) round trip whose rounding is bounded by
        # |log p| * eps relative, which IEEE doubles cannot tighten further
        logs = periods.log_periods.data
        assert logs[0] == math.log(p_min) and logs[-1] == math.log(p_max)
        values = periods.periods()
        eps = np.finfo(np.float64).eps
        for got, want in ((values[0], p_min), (values[-1], p_max)):
            assert abs(got - want) <= (1.0 + abs(math.log(want))) * eps * want
    print("ACCEPTANCE 4 PASS - classic rotary angle schedule reproduced to 1e-12, boundaries exact in log space")


def test_criterion_05_end_to_end_gradients():
    start = time.monotonic()
    report = gradcheck.tiny_report(seed=0)
    elapsed = time.monotonic() - start
    worst = max(report.values())
    assert "trope.log_periods" in report
    assert worst < 1e-4, {k: v for k, v in report.items() if v >= 1e-4}
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 PASS - max gradient error {worst:.2e} over {len(report)} groups ({elapsed:.1f}s)")


def test_criterion_06_reweighting_fidelity():
    # (a) the Monte Carlo oracle agrees with the closed-form harmonic weights
    for t_max in (4, 32, 720):
        harmonic = reweight_vector(t_max, "exact-harmonic")
        for tau in (1, t_max // 2, t_max):
            estimate, se = expected_weight_oracle(
                tau, t_max, n_samples=1_000_000, seed=1000 + t_max + tau, return_se=True
            )
            exact = harmonic[tau - 1]
            assert abs(estimate - exact) <= 3.0 * se, (t_max, tau, estimate, exact, se)
    # (b) the log approximation stays inside the integral bound everywhere
    for t_max in (4, 32, 720):
        gap = np.abs(reweight_vector(t_max, "log-approx") - reweight_vector(t_max, "exact-harmonic"))
        taus = np.arange(1, t_max + 1)
        assert np.all(gap <= 1.0 / (taus * t_max)), (t_max, taus[gap > 1.0 / (taus * t_max)])
    # (c) full-enumeration hand value
    harmonic = reweight_vector(4, "exact-harmonic")
    assert harmonic[0] == float(Fraction(25, 48))
    assert harmonic[3] == float(Fraction(1, 16))
    print("ACCEPTANCE 6 PASS - Monte Carlo within 3 sigma, log-approx within 1/(tau*t_max), 25/48 exact")


# ---------------------------------------------------------------------------
# desk-scale training (shared by criteria 7 and 9)


def run_training(outdir):
    values = make_sinusoid_values(n_steps=6000, n_variates=4, seed=0)
    split = SplitSpec(0.7, 0.1, 0.2)
    n = values.shape[0]
    end_train = int(n * split.train)
    end_val = int(n * (split.train + split.val))
    scaler = Scaler.fit(values[:end_train])
    data = TrainData(
        train_values=scaler.transform(values[:end_train]),
        val_values=scaler.transform(values[end_train:end_val]),
        scaler=scaler,
        name="sinusoid",
    )
    test_split = scaler.transform(values[end_val:])

    state = ModelState.init(acceptance_config(), seed=0)
    config = TrainConfig(
        t_max=96,
        reweight_mode="log-approx",
        learning_rate=0.001,
        batches_per_epoch=100,
        batch_size=32,
        epochs=20,
        seed=0,
        checkpoint_path=str(outdir / "model.ckpt"),
        log_path=str(outdir / "train_log.csv"),
    )
    start = time.monotonic()
    best = train(state, data, config)
    report = varied_horizon_eval(best.state, test_split, LOOKBACK, [24, 48, 96], scaler)
    elapsed = time.monotonic() - start
    (outdir / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")

    persistence = {}
    for horizon in (24, 48, 96):
        variates, starts = stride_windows(test_split, LOOKBACK, horizon)
        contexts, targets = window_values(test_split, variates, starts, LOOKBACK, horizon)
        actual = np.stack([scaler.inverse(t, k) for t, k in zip(targets, variates)])
        naive = np.stack(
            [np.full(horizon, scaler.inverse(c[-1:], k)[0]) for c, k in zip(contexts, variates)]
        )
        persistence[horizon] = nmae(actual, naive)
    return {
        "outdir": outdir,
        "report": report,
        "persistence": persistence,
        "elapsed": elapsed,
        "best": best,
    }


@pytest.fixture(scope="module")
def training_run(tmp_path_factory):
    return run_training(tmp_path_factory.mktemp("run_a"))


@pytest.mark.slow
def test_criterion_07_training_beats_persistence(training_run):
    report = training_run["report"]
    persistence = training_run["persistence"]
    summary = []
    for row in report.rows:
        naive = persistence[row.horizon]
        assert row.nmae < naive, f"horizon {row.horizon}: {row.nmae} vs persistence {naive}"
        summary.append(f"T={row.horizon}: {row.nmae:.3f} vs {naive:.3f}")
    final = report.rows[-1]
    assert final.horizon == 96
    assert final.nmae < 0.5 * persistence[96]
    assert training_run["elapsed"] < 300.0
    print(
        f"ACCEPTANCE 7 PASS - {'; '.join(summary)}; horizon-96 ratio "
        f"{final.nmae / persistence[96]:.2f} < 0.5 ({training_run['elapsed']:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_09_reproducibility(training_run, tmp_path_factory):
    rerun = run_training(tmp_path_factory.mktemp("run_b"))
    first, second = training_run["outdir"], rerun["outdir"]
    ckpt_a = (first / "model.ckpt").read_bytes()
    ckpt_b = (second / "model.ckpt").read_bytes()
    assert ckpt_a == ckpt_b
    metrics_a = (first / "metrics.csv").read_bytes()
    metrics_b = (second / "metrics.csv").read_bytes()
    assert metrics_a == metrics_b
    print(
        f"ACCEPTANCE 9 PASS - checkpoints ({len(ckpt_a)} bytes) and metric CSVs byte-identical across runs"
    )


def test_criterion_08_metric_correctness():
    x = np.random.default_rng(3).normal(1.0, 2.0, (5, 7))
    assert nmae(x, x) == 0.0
    assert nmae(x, np.zeros_like(x)) == 1.0
    assert abs(nrmse([[1.0, 2.0]], [[0.0, 0.0]]) - math.sqrt(2.5) / 1.5) <= 1e-6
    pred = x + np.random.default_rng(4).normal(0.0, 0.5, x.shape)
    for c in (0.01, 1.0, 1000.0):
        assert abs(nmae(c * x, c * pred) - nmae(x, pred)) <= 1e-12
        assert abs(nrmse(c * x, c * pred) - nrmse(x, pred)) <= 1e-12
    print("ACCEPTANCE 8 PASS - metric hand values exact, scale-invariant to 1e-12")


def test_criterion_10_round_trips(tmp_path):
    # checkpoint: save -> load -> forward must be bitwise identical
    state = ModelState.init(acceptance_config(), seed=4)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, state)
    loaded, _, _ = load_model(path)
    contexts = random_windows(count=4, seed=5)
    before = forward_batch(state, contexts, 50).values
    after = forward_batch(loaded, contexts, 50).values
    assert np.array_equal(before, after)

    # scaler: inverse(transform(x)) == x to 1e-12 relative
    rng = np.random.default_rng(6)
    values = rng.normal(-4.0, 7.0, (300, 5))
    scaler = Scaler.fit(values)
    back = scaler.inverse(scaler.transform(values))
    assert np.max(np.abs(back - values) / np.maximum(np.abs(values), 1e-30)) <= 1e-12

    # patching: a known horizon survives patch rows -> unpatch unchanged
    for _ in range(25):
        length = int(rng.integers(1, 60))
        horizon = int(rng.integers(1, 60))
        p = int(rng.integers(1, 16))
        _, n_h, _, right_pad = grid_dims(length, horizon, p)
        rng.standard_normal(length)  # a context of that length, drawn so the 25 cases stay the same
        truth = rng.standard_normal(horizon)
        rows = np.concatenate([truth, np.zeros(right_pad)]).reshape(1, n_h, p)
        np.testing.assert_array_equal(unpatch(Tensor(rows), horizon).data[0], truth)
    print("ACCEPTANCE 10 PASS - checkpoint, scaler, and patching round trips hold")
