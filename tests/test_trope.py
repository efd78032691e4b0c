import math

import numpy as np
import pytest

import elastst.numerics as nm
from elastst.errors import DimensionError, ParameterError
from elastst.numerics import Tensor
from elastst.trope import PeriodSpec, TunablePeriods, init_periods, rotate
from helpers import finite_diff_check, relative_score


def single_period(period):
    return TunablePeriods(Tensor(np.array([math.log(period)]), requires_grad=True))


class TestInit:
    def test_endpoints_are_exact_in_log_space(self):
        spec = PeriodSpec(p_min=1.0, p_max=1000.0, head_dim=16)
        logs = init_periods(spec).log_periods.data
        assert logs[0] == math.log(1.0) and logs[-1] == math.log(1000.0)

    def test_exponential_spacing_matches_closed_form(self):
        spec = PeriodSpec(p_min=0.5, p_max=300.0, head_dim=12)
        periods = init_periods(spec).periods()
        alpha = math.log(spec.p_max / spec.p_min) / (spec.head_dim - 2)
        for j in range(6):
            expected = spec.p_min * math.exp(2.0 * alpha * j)
            assert abs(periods[j] - expected) <= 1e-12 * expected

    def test_bad_range_rejected(self):
        with pytest.raises(ParameterError):
            PeriodSpec(p_min=2.0, p_max=2.0, head_dim=8)
        with pytest.raises(ParameterError):
            PeriodSpec(p_min=1.0, p_max=10.0, head_dim=7)

    def test_classic_rotary_equivalence(self):
        # with p_min = 2*pi and p_max = 2*pi * 10000^(1 - 2/d), the rotation
        # angles reduce to the classic 10000^(-2(j-1)/d) schedule
        for d in (8, 16, 64):
            spec = PeriodSpec(2.0 * math.pi, 2.0 * math.pi * 10000.0 ** (1.0 - 2.0 / d), d)
            angles = 2.0 * math.pi / init_periods(spec).periods()
            expected = np.array([10000.0 ** (-2.0 * j / d) for j in range(d // 2)])
            assert np.max(np.abs(angles - expected)) <= 1e-12


class TestRotate:
    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(20)
        periods = init_periods(PeriodSpec(1.0, 1000.0, 8))
        x = rng.standard_normal((1, 8))
        out = rotate(Tensor(x), [0], periods)
        assert np.array_equal(out.data, x)

    def test_quarter_turn(self):
        out = rotate(Tensor([[1.0, 0.0]]), [1], single_period(4.0))
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        periods = init_periods(PeriodSpec(1.0, 1000.0, 16))
        for _ in range(20):
            x = rng.standard_normal((1, 16))
            t = int(rng.integers(0, 500))
            out = rotate(Tensor(x), [t], periods).data
            assert abs(np.linalg.norm(out) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)

    def test_positions_per_row(self):
        rng = np.random.default_rng(22)
        periods = init_periods(PeriodSpec(1.0, 100.0, 8))
        x = rng.standard_normal((5, 8))
        stacked = rotate(Tensor(x), np.arange(5), periods).data
        for i in range(5):
            row = rotate(Tensor(x[i : i + 1]), [i], periods).data
            np.testing.assert_array_equal(stacked[i], row[0])

    def test_length_mismatch(self):
        periods = init_periods(PeriodSpec(1.0, 100.0, 8))
        with pytest.raises(DimensionError):
            rotate(Tensor(np.zeros((1, 6))), [0], periods)
        with pytest.raises(DimensionError):
            rotate(Tensor(np.zeros(8)), 0, periods)
        with pytest.raises(DimensionError):
            rotate(Tensor(np.zeros((3, 8))), np.arange(4), periods)
        with pytest.raises(DimensionError):
            TunablePeriods(Tensor(np.zeros((1, 4))))

    def test_gradients_through_input_and_periods(self):
        rng = np.random.default_rng(23)
        periods = init_periods(PeriodSpec(1.0, 50.0, 8))
        x = Tensor(rng.uniform(-2, 2, (6, 8)), requires_grad=True)
        # the target breaks rotational symmetry so the loss actually
        # depends on the periods, not just on ||x||
        target = Tensor(rng.uniform(-2, 2, (6, 8)))
        ones = Tensor(np.ones((6, 8)))

        def f():
            out = rotate(x, np.arange(6), periods)
            return nm.mse(out, target, ones)

        err = finite_diff_check(f, [x, periods.log_periods])
        assert err < 1e-5

    def test_positivity_survives_any_update(self):
        periods = init_periods(PeriodSpec(1.0, 1000.0, 8))
        periods.log_periods.data -= 200.0  # a catastrophically large step
        assert np.all(periods.periods() > 0.0)


class TestRelativeScore:
    def test_equal_positions_reduce_to_inner_product(self):
        rng = np.random.default_rng(24)
        periods = init_periods(PeriodSpec(1.0, 1000.0, 16))
        q, k = rng.standard_normal(16), rng.standard_normal(16)
        assert abs(relative_score(q, k, 37, 37, periods) - np.dot(q, k)) <= 1e-12

    def test_quarter_turn_orthogonality(self):
        q = k = np.array([1.0, 0.0])
        assert abs(relative_score(q, k, 1, 0, single_period(4.0))) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(25)
        for d in (8, 16, 64):
            periods = init_periods(PeriodSpec(1.0, 1000.0, d))
            for _ in range(80):
                q = rng.standard_normal(d)
                k = rng.standard_normal(d)
                m, n = (int(v) for v in rng.integers(0, 100, 2))
                s = int(rng.integers(1, 51))
                drift = relative_score(q, k, m, n, periods) - relative_score(
                    q, k, m + s, n + s, periods
                )
                assert abs(drift) <= 1e-9

    def test_vector_length_contract(self):
        periods = init_periods(PeriodSpec(1.0, 1000.0, 8))
        with pytest.raises(DimensionError):
            relative_score(np.zeros(6), np.zeros(8), 0, 0, periods)
