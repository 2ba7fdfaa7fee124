"""Power iteration and max-one report normalization."""

import numpy as np
import pytest

from robust_lexrank import RankVector, TransitionMatrix, normalize_max_one, power_iteration
from robust_lexrank.errors import ConvergenceError, NormalizationError, ParameterError


class TestPowerIteration:
    def test_identity_returns_uniform(self):
        ranks = power_iteration(TransitionMatrix(np.eye(4)))
        assert np.array_equal(ranks.values, np.full(4, 0.25))

    def test_swap_matrix_fixed_point(self):
        matrix = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        ranks = power_iteration(matrix)
        assert np.array_equal(ranks.values, np.array([0.5, 0.5]))

    def test_doubly_stochastic_fixed_point_is_exact(self):
        rng = np.random.default_rng(3)
        base = rng.random((4, 4))
        # symmetrize and normalize to doubly stochastic via Sinkhorn sweeps
        matrix = base + base.T
        for _ in range(2000):
            matrix /= matrix.sum(axis=0, keepdims=True)
            matrix = (matrix + matrix.T) / 2
        matrix /= matrix.sum(axis=0, keepdims=True)
        ranks = power_iteration(TransitionMatrix(matrix), tol=1e-9)
        assert np.allclose(ranks.values, 0.25, atol=1e-9)

    def test_residual_contract(self, transition_01):
        tol = 1e-12
        ranks = power_iteration(transition_01, tol=tol)
        residual = np.abs(transition_01.values @ ranks.values - ranks.values).sum()
        assert residual <= tol

    def test_periodic_chain_raises(self):
        # two states feeding a third and back: the uniform start oscillates
        matrix = TransitionMatrix(
            np.array(
                [
                    [0.0, 0.0, 0.5],
                    [0.0, 0.0, 0.5],
                    [1.0, 1.0, 0.0],
                ]
            )
        )
        with pytest.raises(ConvergenceError) as info:
            power_iteration(matrix, tol=1e-12, max_iter=500)
        assert info.value.residual > 0

    def test_parameter_validation(self):
        matrix = TransitionMatrix(np.eye(2))
        with pytest.raises(ParameterError):
            power_iteration(matrix, tol=0.0)
        with pytest.raises(ParameterError):
            power_iteration(matrix, max_iter=0)

    def test_nan_tolerance_rejected(self):
        # an infinite tolerance would accept the uniform start unchecked
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="tolerance must be positive and finite"):
                power_iteration(TransitionMatrix(np.eye(2)), tol=tol)


class TestNormalizeMaxOne:
    def test_basic(self):
        reported = normalize_max_one(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(reported.normalized, [0.4, 0.6, 1.0])
        assert reported.normalized.max() == 1.0

    def test_uniform_eleven(self):
        reported = normalize_max_one(np.full(11, 1 / 11))
        assert np.array_equal(reported.normalized, np.ones(11))

    def test_already_normalized(self):
        reported = normalize_max_one(np.array([1.0, 0.0]))
        assert np.array_equal(reported.normalized, [1.0, 0.0])

    def test_idempotent_and_order_preserving(self):
        rng = np.random.default_rng(9)
        values = rng.random(8)
        once = normalize_max_one(values)
        twice = normalize_max_one(once.normalized)
        assert np.allclose(once.normalized, twice.normalized, atol=1e-15)
        assert np.argmax(once.normalized) == np.argmax(values)
        assert np.array_equal(np.argsort(once.normalized), np.argsort(values))

    def test_all_zero_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_max_one(np.zeros(3))

    def test_non_finite_rejected(self):
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [np.nan, np.nan]):
            with pytest.raises(NormalizationError, match="finite"):
                normalize_max_one(np.array(bad))

    def test_ids_attached(self):
        reported = normalize_max_one(np.array([0.5, 1.0]), ids=["u", "v"])
        assert reported.as_dicts()[0] == {"id": "u", "score": 0.5, "normalized": 0.5}


class TestRankVector:
    def test_simplex_validation(self):
        with pytest.raises(ParameterError):
            RankVector(np.array([0.5, 0.6]))
        with pytest.raises(ParameterError):
            RankVector(np.array([1.5, -0.5]))
        RankVector(np.array([0.25, 0.75]))

    def test_non_finite_rejected(self):
        for bad in ([np.nan, 1.0], [np.inf, -np.inf], [np.inf, 1.0]):
            with pytest.raises(ParameterError, match="^rank entries must be finite$"):
                RankVector(np.array(bad))

    @pytest.mark.parametrize("size", [2, 65_537], ids=["floats", "numpy"])
    def test_sum_past_the_float_range_does_not_sum_to_one(self, size):
        # finite entries whose sum overflows; under the suite's
        # filterwarnings = error an overflow warning would fail this test
        with pytest.raises(ParameterError, match="^rank entries must sum to one$"):
            RankVector(np.full(size, 1e308))
