"""Adjacency thresholding and transition-matrix construction."""

import numpy as np
import pytest

from robust_lexrank import (
    AdjacencyMatrix,
    SimilarityMatrix,
    TransitionMatrix,
    normalize_max_one,
    power_iteration,
    threshold_adjacency,
    to_transition,
)
from robust_lexrank.errors import ConstructionError, ParameterError


class TestThresholdAdjacency:
    def test_identity_similarity(self):
        sim = SimilarityMatrix(np.eye(4))
        adjacency = threshold_adjacency(sim, 0.5)
        assert np.array_equal(adjacency.values, np.eye(4))

    def test_boundary_is_inclusive(self):
        sim = SimilarityMatrix(np.ones((3, 3)))
        adjacency = threshold_adjacency(sim, 1.0)
        assert np.array_equal(adjacency.values, np.ones((3, 3)))

    def test_threshold_out_of_range(self):
        sim = SimilarityMatrix(np.eye(2))
        with pytest.raises(ParameterError):
            threshold_adjacency(sim, 1.5)
        with pytest.raises(ParameterError):
            threshold_adjacency(sim, -0.1)

    def test_cluster_high_threshold_ranks_all_equal(self, transition_03):
        # every component of the 0.3 graph is degree-regular, so the
        # stationary point from the uniform start is the uniform vector
        reported = normalize_max_one(power_iteration(transition_03))
        assert np.allclose(reported.normalized, 1.0, atol=1e-12)


class TestToTransition:
    def test_identity(self):
        transition = to_transition(AdjacencyMatrix(np.eye(3), 0.5))
        assert np.array_equal(transition.values, np.eye(3))

    def test_complete_two_nodes(self):
        transition = to_transition(AdjacencyMatrix(np.ones((2, 2)), 0.0))
        assert np.allclose(transition.values, 0.5)

    def test_three_node_path_hand_normalized(self):
        path = np.array(
            [
                [1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0],
                [0.0, 1.0, 1.0],
            ]
        )
        transition = to_transition(AdjacencyMatrix(path, 0.5))
        # row sums are (2, 3, 2); entry (i, j) of P is A[j, i] / rowsum(j)
        expected = np.array(
            [
                [1 / 2, 1 / 3, 0.0],
                [1 / 2, 1 / 3, 1 / 2],
                [0.0, 1 / 3, 1 / 2],
            ]
        )
        assert np.allclose(transition.values, expected, atol=1e-15)
        assert np.abs(transition.values.sum(axis=0) - 1.0).max() <= 1e-12

    def test_zero_row_rejected(self):
        lonely = np.zeros((2, 2))
        lonely[0, 0] = 1.0
        with pytest.raises(ConstructionError):
            to_transition(AdjacencyMatrix(lonely, 0.9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, bad):
        values = np.full((2, 2), 0.5)
        values[0, 1] = bad
        with pytest.raises(ConstructionError, match="finite"):
            TransitionMatrix(values)


class TestProperties:
    def test_columns_sum_to_one_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            upper = rng.random((n, n)) < 0.4
            adjacency = np.triu(upper, 1)
            adjacency = (adjacency | adjacency.T | np.eye(n, dtype=bool)).astype(float)
            transition = to_transition(AdjacencyMatrix(adjacency, 0.5))
            assert transition.values.min() >= 0.0
            assert np.abs(transition.values.sum(axis=0) - 1.0).max() <= 1e-12

    def test_dominant_eigenvalue_is_one(self):
        # power iteration residual vanishes, so 1 is an eigenvalue and the
        # simplex limit exists for the symmetric-adjacency construction
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            adjacency = (rng.random((n, n)) < 0.5)
            adjacency = (np.triu(adjacency, 1) | np.triu(adjacency, 1).T) | np.eye(n, dtype=bool)
            transition = to_transition(AdjacencyMatrix(adjacency.astype(float), 0.5))
            ranks = power_iteration(transition, tol=1e-13)
            residual = np.abs(transition.values @ ranks.values - ranks.values).sum()
            assert residual <= 1e-13
