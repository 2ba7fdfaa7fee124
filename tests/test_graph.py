"""Adjacency thresholding and transition-matrix construction."""

import tracemalloc

import numpy as np
import pytest

from robust_lexrank import (
    AdjacencyMatrix,
    Corpus,
    RobustBudget,
    Sentence,
    SimilarityMatrix,
    TransitionMatrix,
    build_similarity_matrix,
    normalize_max_one,
    power_iteration,
    solve_robust,
    threshold_adjacency,
    to_transition,
    tokenize,
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

    def test_stored_as_bool(self, cluster_similarity):
        adjacency = threshold_adjacency(cluster_similarity, 0.2)
        assert adjacency.values.dtype == bool
        assert np.array_equal(adjacency.values, cluster_similarity.values >= 0.2)

    def test_cluster_high_threshold_ranks_all_equal(self, transition_03):
        # every component of the 0.3 graph is degree-regular, so the
        # stationary point from the uniform start is the uniform vector
        reported = normalize_max_one(power_iteration(transition_03))
        assert np.allclose(reported.normalized, 1.0, atol=1e-12)


class TestAdjacencyMatrix:
    def test_float_input_stored_as_bool(self):
        path = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        adjacency = AdjacencyMatrix(path, 0.5)
        assert adjacency.values.dtype == bool
        assert np.array_equal(adjacency.values, path == 1.0)

    @pytest.mark.parametrize(
        "bad, message",
        [(0.5, "0 or 1"), (np.nan, "must be finite"), (2.0, "0 or 1")],
        ids=["half", "nan", "two"],
    )
    def test_non_binary_entry_rejected(self, bad, message):
        values = np.eye(2)
        values[0, 1] = values[1, 0] = bad
        with pytest.raises(ParameterError, match=message):
            AdjacencyMatrix(values, 0.5)

    @pytest.mark.parametrize(
        "ragged", [[[1, 0], [1]], [[True, False], [True]]], ids=["numbers", "bools"]
    )
    def test_ragged_input_rejected(self, ragged):
        with pytest.raises(ParameterError, match="adjacency entries must not be ragged"):
            AdjacencyMatrix(ragged, 0.5)

    def test_bool_lists_accepted(self):
        adjacency = AdjacencyMatrix([[True, False], [False, True]], 0.5)
        assert adjacency.values.dtype == bool
        assert np.array_equal(adjacency.values, np.eye(2, dtype=bool))

    def test_asymmetric_bool_rejected(self):
        with pytest.raises(ParameterError, match="symmetric"):
            AdjacencyMatrix(np.array([[True, True], [False, True]]), 0.5)

    def test_bool_and_float_forms_give_equal_transitions(self, cluster_similarity):
        for threshold in (0.1, 0.2, 0.3):
            edges = cluster_similarity.values >= threshold
            from_bool = to_transition(AdjacencyMatrix(edges, threshold)).values
            from_float = to_transition(AdjacencyMatrix(edges.astype(float), threshold)).values
            assert np.array_equal(from_bool, from_float)


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

    def test_empty_matrix_rejected(self):
        # power_iteration once divided by zero here, and solve_robust reported a drift
        empty = AdjacencyMatrix(np.zeros((0, 0), dtype=bool), 0.2)
        budget = RobustBudget.broadcast(0, 0.1, 0.1)
        for use in (lambda: to_transition(empty),
                    lambda: power_iteration(to_transition(empty)),
                    lambda: solve_robust(to_transition(empty), budget),
                    lambda: TransitionMatrix(np.zeros((0, 0)))):
            with pytest.raises(ConstructionError, match="at least one sentence"):
                use()

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


def traced_peak(build):
    """``(result, peak bytes traced above the start)`` of ``build()``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_similarity_and_transition_peaks_stay_below_spare_dense_arrays(cluster_corpus):
    # in units of one n x n float array: the similarity stage keeps its
    # result plus the sentence records and one row block of the symmetry
    # check, and the transition stage its result plus bool arrays; one
    # spare float array per stage exceeds these
    n = 400
    vocabulary = sorted({t for s in cluster_corpus.sentences for t in tokenize(s.body)})
    rng = np.random.default_rng(3)
    corpus = Corpus.verified(
        Sentence(f"s{i}", " ".join(rng.choice(vocabulary, size=int(rng.integers(12, 30)))))
        for i in range(n)
    )
    unit = 8 * n * n
    similarity, similarity_peak = traced_peak(lambda: build_similarity_matrix(corpus))
    _, transition_peak = traced_peak(lambda: to_transition(threshold_adjacency(similarity, 0.2)))
    assert similarity_peak / unit < 2.0
    assert transition_peak / unit < 1.7
