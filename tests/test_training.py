import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_sinusoid_values
from elastst import training
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler
from elastst.errors import FormatError, ParameterError, SizingError
from elastst.model import ElasTSTConfig, ModelState, write_checkpoint
from elastst.training import (
    TrainConfig,
    TrainData,
    adam_step,
    expected_weight_oracle,
    load_training_checkpoint,
    reweight,
    reweight_vector,
    train,
)
from elastst.trope import PeriodSpec


def harmonic_oracle(tau, t_max):
    """Independent enumeration: average the per-position weight over every
    horizon choice T in [1, t_max]."""
    total = Fraction(0)
    for t in range(1, t_max + 1):
        if t >= tau:
            total += Fraction(1, t)
    return float(total / t_max)


class TestReweight:
    def test_log_approx_vanishes_at_the_end(self):
        assert reweight(720, 720, "log-approx") == 0.0
        assert reweight(16, 16, "log-approx") == 0.0

    def test_exact_harmonic_hand_values(self):
        assert reweight(1, 4, "exact-harmonic") == float(Fraction(25, 48))
        assert reweight(4, 4, "exact-harmonic") == float(Fraction(1, 16))

    def test_exact_harmonic_matches_full_enumeration(self):
        for t_max in (1, 4, 9, 32):
            for tau in range(1, t_max + 1):
                assert reweight(tau, t_max, "exact-harmonic") == harmonic_oracle(tau, t_max)

    def test_fixed_uniform(self):
        assert reweight(3, 10, "fixed-uniform") == 0.1

    def test_sampled_weights(self):
        assert reweight(3, 10, "sampled", t_s=5) == 0.2
        assert reweight(7, 10, "sampled", t_s=5) == 0.0
        with pytest.raises(ParameterError):
            reweight(3, 10, "sampled")

    def test_out_of_range_tau(self):
        with pytest.raises(ParameterError):
            reweight(0, 10)
        with pytest.raises(ParameterError):
            reweight(11, 10)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            reweight(1, 10, "bogus")

    def test_log_approx_tracks_harmonic_within_integral_bound(self):
        for t_max in (4, 32, 720):
            for tau in range(1, t_max + 1):
                gap = abs(
                    reweight(tau, t_max, "log-approx") - reweight(tau, t_max, "exact-harmonic")
                )
                assert gap <= 1.0 / (tau * t_max)

    def test_vector_matches_scalar(self):
        vec = reweight_vector(17, "exact-harmonic")
        assert vec.tolist() == [reweight(t, 17, "exact-harmonic") for t in range(1, 18)]

    def test_sampled_vector_is_reproducible(self):
        v1 = reweight_vector(50, "sampled", rng=np.random.default_rng(3))
        v2 = reweight_vector(50, "sampled", rng=np.random.default_rng(3))
        np.testing.assert_array_equal(v1, v2)
        drawn = int(np.random.default_rng(3).integers(1, 51))
        expected = np.array([1.0 / drawn if t <= drawn else 0.0 for t in range(1, 51)])
        np.testing.assert_array_equal(v1, expected)


class TestOracle:
    def test_degenerate_single_horizon(self):
        assert expected_weight_oracle(1, 1, n_samples=100, seed=0) == 1.0

    def test_matches_exact_harmonic_within_three_sigma(self):
        for t_max, tau in ((4, 1), (4, 4), (32, 16)):
            estimate, se = expected_weight_oracle(tau, t_max, 200_000, seed=7, return_se=True)
            assert abs(estimate - reweight(tau, t_max, "exact-harmonic")) <= 3 * se


class TestAdam:
    def test_zero_gradient_keeps_parameters_and_decays_moments(self):
        p = np.array([1.0, -2.0])
        m = [np.array([0.5, 0.5])]
        v = [np.array([0.25, 0.25])]
        adam_step([p], [np.zeros(2)], m, v, lr=0.1, step_count=3)
        np.testing.assert_array_equal(p, [1.0, -2.0] + -0.1 * (m[0] / (1 - 0.9**3)) / (np.sqrt(v[0] / (1 - 0.999**3)) + 1e-8))
        np.testing.assert_array_equal(m[0], [0.45, 0.45])
        np.testing.assert_array_equal(v[0], [0.25 * 0.999, 0.25 * 0.999])

    def test_fresh_moments_and_zero_gradient_change_nothing(self):
        p = np.array([3.0])
        adam_step([p], [np.zeros(1)], [np.zeros(1)], [np.zeros(1)], lr=0.1, step_count=1)
        assert p.tolist() == [3.0]

    def test_first_step_with_unit_gradient(self):
        p = np.array([0.0])
        adam_step([p], [np.ones(1)], [np.zeros(1)], [np.zeros(1)], lr=0.01, step_count=1)
        # bias-corrected m-hat / sqrt(v-hat) is exactly 1, so the step is
        # -lr up to the epsilon in the denominator
        assert p[0] == pytest.approx(-0.01, rel=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        grads = [rng.standard_normal((3, 3)) for _ in range(5)]

        def run():
            p = np.ones((3, 3))
            m, v = [np.zeros((3, 3))], [np.zeros((3, 3))]
            for i, g in enumerate(grads):
                adam_step([p], [g], m, v, lr=0.05, step_count=i + 1)
            return p

        assert np.array_equal(run(), run())


def tiny_setup(epochs=2, seed=0, checkpoint_path=None):
    config = ElasTSTConfig(
        patch_sizes=(4, 8),
        period_spec=PeriodSpec(1.0, 100.0, 8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1),
        lookback=16,
    )
    values = make_sinusoid_values(n_steps=400, n_variates=2, seed=1)
    scaler = Scaler.fit(values[:300])
    data = TrainData(
        train_values=scaler.transform(values[:300]),
        val_values=scaler.transform(values[300:]),
        scaler=scaler,
        name="tiny",
    )
    train_config = TrainConfig(
        t_max=16,
        learning_rate=0.003,
        batches_per_epoch=4,
        batch_size=8,
        epochs=epochs,
        seed=seed,
        checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
    )
    return ModelState.init(config, seed=seed), data, train_config


class TestTrain:
    def test_zero_epochs_returns_initial_model(self):
        state, data, cfg = tiny_setup(epochs=0)
        reference = ModelState.init(state.config, seed=0)
        ckpt = train(state, data, cfg)
        assert ckpt.epoch == 0 and math.isinf(ckpt.best_val_nmae)
        for (_, a), (_, b) in zip(ckpt.state.parameters(), reference.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_training_is_deterministic(self):
        def run():
            state, data, cfg = tiny_setup(epochs=2)
            ckpt = train(state, data, cfg)
            return [t.data.copy() for _, t in ckpt.state.parameters()], ckpt.best_val_nmae

        params_a, nmae_a = run()
        params_b, nmae_b = run()
        assert nmae_a == nmae_b
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)

    def test_training_improves_validation(self):
        state, data, cfg = tiny_setup(epochs=3)
        ckpt = train(state, data, cfg)
        assert ckpt.epoch >= 1
        assert np.isfinite(ckpt.best_val_nmae)
        assert len(ckpt.log) == 3

    def test_resume_reproduces_the_trajectory(self):
        state_full, data, cfg_full = tiny_setup(epochs=3, seed=5)
        train(state_full, data, cfg_full)
        full_params = [t.data.copy() for _, t in state_full.parameters()]

        state_half, _, cfg_one = tiny_setup(epochs=1, seed=5)
        first = train(state_half, data, cfg_one)
        assert first.epoch == 1  # the first epoch always improves on +inf
        cfg_resumed = TrainConfig(
            t_max=cfg_one.t_max,
            learning_rate=cfg_one.learning_rate,
            batches_per_epoch=cfg_one.batches_per_epoch,
            batch_size=cfg_one.batch_size,
            epochs=3,
            seed=5,
        )
        train(state_half, data, cfg_resumed, resume=first)
        for (_, a), b in zip(first.state.parameters(), full_params):
            np.testing.assert_array_equal(a.data, b)

    def test_resume_rewrites_the_whole_log(self, tmp_path):
        def without_wall_seconds(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        straight_log = tmp_path / "straight.csv"
        state, data, cfg = tiny_setup(epochs=3, seed=5)
        train(state, data, dataclasses.replace(cfg, log_path=str(straight_log)))

        ckpt_path, log_path = tmp_path / "best.ckpt", tmp_path / "resumed.csv"
        state, data, cfg = tiny_setup(epochs=1, seed=5, checkpoint_path=ckpt_path)
        cfg = dataclasses.replace(cfg, log_path=str(log_path))
        train(state, data, cfg)
        resume = load_training_checkpoint(ckpt_path)
        train(resume.state, data, dataclasses.replace(cfg, epochs=3), resume=resume)
        assert len(without_wall_seconds(log_path)) == 4
        assert without_wall_seconds(log_path) == without_wall_seconds(straight_log)

    @pytest.mark.parametrize(
        "keep, message",
        [
            (lambda lines: lines[:1], "one row for each epoch 1..1"),
            (lambda lines: lines[1:], "header"),
            (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]], "malformed"),
            (lambda lines: [], "header"),
        ],
    )
    def test_resume_log_must_hold_every_epoch_up_to_the_checkpoint(self, tmp_path, keep, message):
        ckpt_path, log_path = tmp_path / "best.ckpt", tmp_path / "log.csv"
        state, data, cfg = tiny_setup(epochs=1, checkpoint_path=ckpt_path)
        cfg = dataclasses.replace(cfg, log_path=str(log_path))
        train(state, data, cfg)
        log_path.write_text("".join(line + "\n" for line in keep(log_path.read_text().splitlines())))
        damaged = log_path.read_bytes()
        resume = load_training_checkpoint(ckpt_path)
        with pytest.raises(FormatError) as err:
            train(resume.state, data, dataclasses.replace(cfg, epochs=2), resume=resume)
        assert message in str(err.value)
        assert log_path.read_bytes() == damaged  # rejected before the log is rewritten

    def test_non_finite_gradient_stops_the_step(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=2, checkpoint_path=path)
        real_backward = training.backward
        seen = {"calls": 0}

        def poisoned(loss):
            real_backward(loss)
            seen["calls"] += 1
            if seen["calls"] == cfg.batches_per_epoch + 2:  # epoch 2, step 6
                seen["params"] = [t.data.copy() for _, t in state.parameters()]
                seen["checkpoint"] = path.read_bytes()
                state.layers[0].wo.grad[0, 0] = np.nan
                state.periods.log_periods.grad[0] = np.inf

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(FloatingPointError) as err:
            train(state, data, cfg)
        assert str(err.value) == "gradient of backbone.0.wo is not finite at epoch 2, step 6"
        for (_, t), before in zip(state.parameters(), seen["params"]):
            np.testing.assert_array_equal(t.data, before)
        assert path.read_bytes() == seen["checkpoint"]

    def test_checkpoint_file_round_trip(self, tmp_path):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=2, checkpoint_path=path)
        ckpt = train(state, data, cfg)
        loaded = load_training_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert loaded.step_count == ckpt.step_count
        assert loaded.best_val_nmae == ckpt.best_val_nmae
        for (_, a), (_, b) in zip(loaded.state.parameters(), ckpt.state.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(loaded.adam_m, ckpt.adam_m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.adam_v, ckpt.adam_v):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_raises(self, tmp_path):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=2, checkpoint_path=path)
        data.train_values[100:200, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as err:
            train(state, data, cfg)
        assert "epoch 1" in str(err.value) and "step" in str(err.value)
        assert not path.exists()  # no finite best was ever reached
        assert all(np.all(np.isfinite(t.data)) for _, t in state.parameters())

    def test_checkpoint_without_optimizer_state_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        state, _, _ = tiny_setup()
        write_checkpoint(path, state)
        with pytest.raises(FormatError) as err:
            load_training_checkpoint(path)
        assert "opt.m.size4.enc.w1" in str(err.value)

    def test_rejects_short_training_split(self):
        state, data, cfg = tiny_setup()
        data.train_values = data.train_values[:20]  # lookback + t_max = 32 needed
        with pytest.raises(SizingError) as err:
            train(state, data, cfg)
        assert "32" in str(err.value)

    def test_fixed_uniform_weights_reduce_to_plain_mse_vector(self):
        np.testing.assert_array_equal(reweight_vector(25, "fixed-uniform"), np.full(25, 1.0 / 25))
