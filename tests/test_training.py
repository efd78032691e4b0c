import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sinusoid_values
from elastst import data_io, model, training
from elastst.backbone import AttentionConfig
from elastst.data_io import Scaler
from elastst.errors import DimensionError, FormatError, ParameterError, SizingError
from elastst.model import ElasTSTConfig, ModelState, read_checkpoint, write_checkpoint
from elastst.training import (
    TrainConfig,
    TrainData,
    adam_step,
    load_training_checkpoint,
    reweight_vector,
    train,
)
from elastst.trope import PeriodSpec
from helpers import expected_weight_oracle, reweight_oracle


def harmonic_oracle(tau, t_max):
    """Independent enumeration: average the per-position weight over every
    horizon choice T in [1, t_max]."""
    total = Fraction(0)
    for t in range(1, t_max + 1):
        if t >= tau:
            total += Fraction(1, t)
    return float(total / t_max)


def saved_checkpoint(tmp_path, epoch=2, step_count=6, best_val_nmae=0.5):
    """A training checkpoint of the tiny model with zero moments, written to ``tmp_path``."""
    state, _, _ = tiny_setup()
    zeros = [np.zeros_like(t.data) for _, t in state.trainable()]
    path = tmp_path / "best.ckpt"
    training.save_training_checkpoint(
        path, training.Checkpoint(state, zeros, zeros, step_count, epoch, best_val_nmae)
    )
    return path


def weight(tau: int, t_max: int, mode: str) -> float:
    """Position ``tau``'s (1-based) weight, read from the vector."""
    return float(reweight_vector(t_max, mode)[tau - 1])


class TestReweight:
    def test_log_approx_vanishes_at_the_end(self):
        assert weight(720, 720, "log-approx") == 0.0
        assert weight(16, 16, "log-approx") == 0.0

    def test_exact_harmonic_hand_values(self):
        assert weight(1, 4, "exact-harmonic") == float(Fraction(25, 48))
        assert weight(4, 4, "exact-harmonic") == float(Fraction(1, 16))

    def test_exact_harmonic_matches_full_enumeration(self):
        for t_max in (1, 4, 9, 32):
            for tau in range(1, t_max + 1):
                assert weight(tau, t_max, "exact-harmonic") == harmonic_oracle(tau, t_max)

    def test_fixed_uniform(self):
        assert weight(3, 10, "fixed-uniform") == 0.1

    def test_sampled_weights(self):
        w = reweight_vector(10, "sampled", rng=FixedDraw(5))
        assert w[3 - 1] == 0.2
        assert w[7 - 1] == 0.0
        with pytest.raises(ParameterError):
            reweight_vector(10, "sampled")  # no generator to draw from

    @pytest.mark.parametrize("t_max, mode", [(0, "fixed-uniform"), (-3, "log-approx"), (10, "bogus")])
    def test_no_positions_or_an_unknown_mode_is_refused(self, t_max, mode):
        with pytest.raises(ParameterError, match=f"got {t_max} and '{mode}'"):
            reweight_vector(t_max, mode)

    def test_log_approx_tracks_harmonic_within_integral_bound(self):
        for t_max in (4, 32, 720):
            gap = np.abs(reweight_vector(t_max, "log-approx") - reweight_vector(t_max, "exact-harmonic"))
            taus = np.arange(1, t_max + 1)
            assert np.all(gap <= 1.0 / (taus * t_max))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t_max=st.integers(1, 2880), mode=st.sampled_from(training.REWEIGHT_MODES), seed=st.integers(0, 2**32 - 1))
    @example(t_max=1, mode="sampled", seed=0)
    @example(t_max=2880, mode="log-approx", seed=0)
    @example(t_max=2880, mode="exact-harmonic", seed=0)
    def test_vector_has_the_bytes_of_the_per_position_formula(self, t_max, mode, seed):
        vec = reweight_vector(t_max, mode, rng=np.random.default_rng(seed))
        t_s = int(np.random.default_rng(seed).integers(1, t_max + 1)) if mode == "sampled" else None
        expected = np.array([reweight_oracle(tau, t_max, mode, t_s) for tau in range(1, t_max + 1)])
        assert vec.dtype == np.float64 and vec.tobytes() == expected.tobytes()

    def test_sampled_vector_is_reproducible(self):
        v1 = reweight_vector(50, "sampled", rng=np.random.default_rng(3))
        v2 = reweight_vector(50, "sampled", rng=np.random.default_rng(3))
        np.testing.assert_array_equal(v1, v2)
        drawn = int(np.random.default_rng(3).integers(1, 51))
        expected = np.array([1.0 / drawn if t <= drawn else 0.0 for t in range(1, 51)])
        np.testing.assert_array_equal(v1, expected)


class FixedDraw:
    """A stand-in generator whose every horizon draw is ``t_s``."""

    def __init__(self, t_s: int):
        self.t_s = t_s

    def integers(self, low, high):
        assert low <= self.t_s < high
        return self.t_s


class TestOracle:
    def test_degenerate_single_horizon(self):
        assert expected_weight_oracle(1, 1, n_samples=100, seed=0) == 1.0

    def test_matches_exact_harmonic_within_three_sigma(self):
        for t_max, tau in ((4, 1), (4, 4), (32, 16)):
            estimate, se = expected_weight_oracle(tau, t_max, 200_000, seed=7, return_se=True)
            assert abs(estimate - weight(tau, t_max, "exact-harmonic")) <= 3 * se


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

    @pytest.mark.parametrize(
        "m, v",
        [
            ([np.zeros(2)], [np.zeros(2), np.zeros(3)]),
            ([np.zeros(2), np.zeros(3)], [np.zeros(2), np.zeros((3, 1))]),
        ],
        ids=["first_moment_short", "second_moment_misshapen"],
    )
    def test_moments_that_do_not_match_the_parameters_are_refused(self, m, v):
        params = [np.ones(2), np.ones(3)]
        with pytest.raises(DimensionError):
            adam_step(params, [np.ones(2), np.ones(3)], m, v, lr=0.1)
        assert [p.tolist() for p in params] == [[1.0, 1.0], [1.0, 1.0, 1.0]]  # nothing half applied


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
    def test_zero_epochs_returns_initial_model(self, tmp_path):
        """Zero epochs return the initial model and write it as an epoch-0 checkpoint."""
        path = tmp_path / "start.ckpt"
        state, data, cfg = tiny_setup(epochs=0, checkpoint_path=path)
        reference = ModelState.init(state.config, seed=0)
        ckpt = train(state, data, cfg)
        assert ckpt.epoch == 0 and math.isinf(ckpt.best_val_nmae)
        written = load_training_checkpoint(path)
        assert (written.epoch, written.step_count, written.best_val_nmae) == (0, 0, math.inf)
        assert not any(np.any(m) for m in written.adam_m + written.adam_v)
        for returned, saved, ref in zip(ckpt.state.parameters(), written.state.parameters(), reference.parameters()):
            np.testing.assert_array_equal(returned[1].data, ref[1].data)
            np.testing.assert_array_equal(saved[1].data, ref[1].data)

    def test_a_resume_that_never_improves_writes_its_start(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=1, checkpoint_path=path)
        train(state, data, cfg)
        written = path.read_bytes()
        resume = load_training_checkpoint(path)
        path.unlink()
        monkeypatch.setattr(training, "validation_nmae", lambda *args: (1e300, 1e300))  # no epoch improves
        best = train(resume, data, dataclasses.replace(cfg, epochs=3))
        assert best.epoch == 1 and [row["epoch"] for row in best.log] == [2, 3]
        assert path.read_bytes() == written

    def test_a_resumed_run_samples_with_its_start_lookback(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=1, checkpoint_path=path)
        train(state, data, cfg)
        start = load_training_checkpoint(path)
        widths = []
        real_forward = training.forward_batch

        def spy(state, contexts, *args):
            widths.append(contexts.shape[1])
            return real_forward(state, contexts, *args)

        monkeypatch.setattr(training, "forward_batch", spy)
        train(start, data, dataclasses.replace(cfg, epochs=2))
        assert len(widths) == cfg.batches_per_epoch
        assert set(widths) == {start.state.config.lookback} == {16}

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
        train(first, data, cfg_resumed)
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
        train(resume, data, dataclasses.replace(cfg, epochs=3))
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
            train(resume, data, dataclasses.replace(cfg, epochs=2))
        assert message in str(err.value)
        assert log_path.read_bytes() == damaged  # rejected before the log is rewritten

    @pytest.mark.parametrize("leaf", ["wo", "wq"])  # wq is fused: the error names the leaf, not a head block
    def test_non_finite_gradient_stops_the_step(self, tmp_path, monkeypatch, leaf):
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=2, checkpoint_path=path)
        real_backward = training.backward
        seen = {"calls": 0}

        def poisoned(loss):
            real_backward(loss)
            seen["calls"] += 1
            if seen["calls"] == cfg.batches_per_epoch + 2:  # epoch 2, step 6
                seen["params"] = [t.data.copy() for _, t in state.trainable()]
                seen["checkpoint"] = path.read_bytes()
                getattr(state.layers[0], leaf).grad[0, -1] = np.nan
                state.periods.log_periods.grad[0] = np.inf

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(FloatingPointError) as err:
            train(state, data, cfg)
        assert str(err.value) == f"gradient of backbone.0.{leaf} is not finite at epoch 2, step 6"
        for (_, t), before in zip(state.trainable(), seen["params"]):
            np.testing.assert_array_equal(t.data, before)
        assert path.read_bytes() == seen["checkpoint"]

    def test_a_block_whose_loss_overflows_stops_before_its_backward(self, tmp_path, monkeypatch):
        """In blocks of 8 steps, the second block of step 6 alone has targets
        whose squares overflow. Its loss share is checked before it runs
        ``backward``: the step raises the loss message with the first
        block's backward done and no RuntimeWarning besides the overflow
        (an invalid value would fail the test), and every parameter and the
        checkpoint file stay as they were before the step."""
        path = tmp_path / "best.ckpt"
        state, data, cfg = tiny_setup(epochs=2, checkpoint_path=path)
        monkeypatch.setattr(model, "STEP_BLOCK", 8)
        real_windows, real_backward = data_io.window_values, training.backward
        seen = {"steps": 0, "backward": 0}

        def windows(values, *args):
            contexts, targets = real_windows(values, *args)
            if values is data.train_values:
                seen["steps"] += 1
                if seen["steps"] == cfg.batches_per_epoch + 2:  # epoch 2, step 6
                    seen["params"] = [t.data.copy() for _, t in state.trainable()]
                    seen["checkpoint"] = path.read_bytes()
                    seen["backward"] = 0
                    targets[:, 8:] = 1e200
            return contexts, targets

        def counted(loss):
            seen["backward"] += 1
            real_backward(loss)

        monkeypatch.setattr(data_io, "window_values", windows)
        monkeypatch.setattr(training, "backward", counted)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as err:
            train(state, data, cfg)
        assert str(err.value) == "training loss is inf at epoch 2, step 6"
        assert seen["backward"] == 1
        for (_, t), before in zip(state.trainable(), seen["params"]):
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

    @pytest.mark.parametrize("layout", ["one_short", "per_head_block"])
    def test_save_refuses_moments_that_do_not_match_the_leaves(self, tmp_path, layout):
        state, _, _ = tiny_setup()
        arrays = state.trainable()[:-1] if layout == "one_short" else state.parameters()
        moments = [np.zeros_like(t.data) for _, t in arrays]
        path = tmp_path / "best.ckpt"
        with pytest.raises(DimensionError):
            training.save_training_checkpoint(path, training.Checkpoint(state, moments, moments, 6, 2, 0.5))
        assert list(tmp_path.iterdir()) == []

    def test_adam_updates_the_leaves_with_their_own_gradients(self, monkeypatch):
        state, data, cfg = tiny_setup(epochs=1)
        leaves = [t for _, t in state.trainable()]
        real_adam_step = training.adam_step
        calls = []

        def recording(params, grads, m, v, *args, **kwargs):
            calls.append((
                all(p is t.data for p, t in zip(params, leaves, strict=True)),
                all(g is t.grad for g, t in zip(grads, leaves, strict=True)),
                [a.shape for a in m] == [a.shape for a in v] == [t.data.shape for t in leaves],
            ))
            real_adam_step(params, grads, m, v, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording)
        train(state, data, cfg)
        assert calls == [(True, True, True)] * cfg.batches_per_epoch

    def test_write_read_write_gives_the_same_bytes(self, tmp_path):
        state, _, _ = tiny_setup()
        rng = np.random.default_rng(26)
        m, v = ([rng.uniform(0, 1, t.data.shape) for _, t in state.trainable()] for _ in range(2))
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        training.save_training_checkpoint(first, training.Checkpoint(state, m, v, 7, 3, 0.25))
        training.save_training_checkpoint(second, load_training_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

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

    def test_load_builds_one_model(self, tmp_path, monkeypatch):
        path = saved_checkpoint(tmp_path)
        inits = []
        init = ModelState.init
        monkeypatch.setattr(ModelState, "init", lambda *a, **kw: inits.append(1) or init(*a, **kw))
        loaded = load_training_checkpoint(path)
        assert len(inits) == 1
        assert (loaded.epoch, loaded.step_count, loaded.best_val_nmae) == (2, 6, 0.5)

    @pytest.mark.parametrize(
        "old, new, says",
        [
            ("epoch=2", "epoch=-1", "'epoch' is invalid: -1 is negative"),
            ("epoch=2\n", "epoch=2\x0c", "'epoch' is invalid"),  # two lines run together
            ("step_count=6", "step_count=1.5", "'step_count' is invalid"),
            ("step_count=6", "step_count=", "'step_count' is invalid"),
            ("best_val_nmae=0.5", "best_val_nmae=nan", "'best_val_nmae' is invalid: is NaN"),
            ("best_val_nmae=0.5", "best_val_nmae=0.5x", "'best_val_nmae' is invalid"),
            ("step_count=6\n", "", "is missing 'step_count'"),
            ("opt.v.size8.enc.w1 8 16\n", "opt.v.size8.enc.w1 16 8\n",
             "'opt.v.size8.enc.w1' is invalid: block is stored as 16 x 8, expected 8 x 16"),
        ],
        ids=["negative_epoch", "lines_run_together", "fractional_step_count", "empty_step_count",
             "nan_best", "unparsable_best", "missing_step_count", "transposed_moment"],
    )
    def test_corrupt_training_field_names_the_file(self, tmp_path, old, new, says):
        path = saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        assert raw.count(old.encode()) == 1
        path.write_bytes(raw.replace(old.encode(), new.encode()))
        with pytest.raises(FormatError) as err:
            load_training_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert says in str(err.value)

    def test_epoch_zero_checkpoint_holds_an_infinite_best(self, tmp_path):
        path = saved_checkpoint(tmp_path, epoch=0, step_count=0, best_val_nmae=math.inf)
        loaded = load_training_checkpoint(path)
        assert (loaded.epoch, loaded.step_count, loaded.best_val_nmae) == (0, 0, math.inf)

    def test_rejects_short_training_split(self):
        state, data, cfg = tiny_setup()
        data.train_values = data.train_values[:20]  # lookback + t_max = 32 needed
        with pytest.raises(SizingError) as err:
            train(state, data, cfg)
        assert "32" in str(err.value)

    def test_rejects_short_validation_split_before_the_first_step(self, tmp_path):
        state, data, cfg = tiny_setup()
        data.val_values = data.val_values[:20]  # lookback + t_max = 32 needed
        log_path = tmp_path / "log.csv"
        with pytest.raises(SizingError) as err:
            train(state, data, dataclasses.replace(cfg, log_path=str(log_path)))
        assert str(err.value).startswith("validation split has 20 steps")
        assert not log_path.exists()
        fresh = ModelState.init(state.config, seed=0)
        for (_, a), (_, b) in zip(state.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_fixed_uniform_weights_reduce_to_plain_mse_vector(self):
        np.testing.assert_array_equal(reweight_vector(25, "fixed-uniform"), np.full(25, 1.0 / 25))


def per_head_file_order(names, n_heads):
    """The checkpoint's block names for ``trainable()`` leaf ``names``: each
    layer's fused wq, wk, wv become head{j}.wq, head{j}.wk, head{j}.wv, head by head."""
    order = []
    for name in names:
        layer, _, leaf = name.rpartition(".")
        if leaf == "wq":
            order += [f"{layer}.head{j}.{w}" for j in range(n_heads) for w in ("wq", "wk", "wv")]
        elif leaf not in ("wk", "wv"):
            order.append(name)
    return order


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    n_heads=st.integers(1, 3),
    n_layers=st.integers(1, 2),
    patch_sizes=st.sampled_from([(4,), (2, 4)]),
    seed=st.integers(0, 2**16),
)
def test_moments_are_written_per_head_block_and_read_back_per_leaf(tmp_path_factory, n_heads, n_layers, patch_sizes, seed):
    hd = 4
    config = ElasTSTConfig(
        patch_sizes=patch_sizes,
        period_spec=PeriodSpec(1.0, 100.0, hd),
        attention=AttentionConfig(d_model=4, n_heads=n_heads, head_dim=hd, d_ff=4, n_layers=n_layers),
        lookback=8,
    )
    state = ModelState.init(config, seed=seed)
    leaves = state.trainable()
    rng = np.random.default_rng(seed)
    m, v = ([rng.standard_normal(t.data.shape) for _, t in leaves] for _ in range(2))
    path = tmp_path_factory.mktemp("blocks") / "best.ckpt"
    training.save_training_checkpoint(path, training.Checkpoint(state, m, v, 5, 1, 0.5))

    _, arrays = read_checkpoint(path)
    blocks = per_head_file_order([name for name, _ in leaves], n_heads)
    assert list(arrays) == blocks + [f"opt.m.{n}" for n in blocks] + [f"opt.v.{n}" for n in blocks]
    for prefix, moments in (("opt.m.", m), ("opt.v.", v)):
        for (name, t), moment in zip(leaves, moments):
            layer, _, leaf = name.rpartition(".")
            if leaf in ("wq", "wk", "wv"):
                for j in range(n_heads):
                    block = arrays[f"{prefix}{layer}.head{j}.{leaf}"]
                    np.testing.assert_array_equal(block, moment[:, j * hd : (j + 1) * hd])
            else:
                np.testing.assert_array_equal(arrays[prefix + name].reshape(t.data.shape), moment)

    loaded = load_training_checkpoint(path)
    assert [a.tobytes() for a in loaded.adam_m] == [a.tobytes() for a in m]
    assert [a.tobytes() for a in loaded.adam_v] == [a.tobytes() for a in v]
    assert [t.data.tobytes() for _, t in loaded.state.trainable()] == [t.data.tobytes() for _, t in leaves]
