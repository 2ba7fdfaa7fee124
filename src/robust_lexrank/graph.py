"""Thresholded adjacency and the column-stochastic transition matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SimilarityMatrix
from .errors import ConstructionError, ParameterError

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Binary symmetric adjacency; the diagonal is all ones for thresholds <= 1."""

    values: np.ndarray
    threshold: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError("adjacency matrix must be square")
        if not np.all((values == 0.0) | (values == 1.0)):
            raise ParameterError("adjacency entries must be 0 or 1")
        if not np.array_equal(values, values.T):
            raise ParameterError("adjacency matrix must be symmetric")

    @property
    def size(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class TransitionMatrix:
    """Nonnegative matrix whose every column sums to one."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ConstructionError("transition matrix must be square")
        if np.any(values < 0):
            raise ConstructionError("transition entries must be nonnegative")
        sums = values.sum(axis=0)
        if np.abs(sums - 1.0).max(initial=0.0) > COLUMN_SUM_TOL:
            raise ConstructionError("every transition column must sum to one")

    @property
    def size(self):
        return self.values.shape[0]


def threshold_adjacency(similarity: SimilarityMatrix, threshold: float) -> AdjacencyMatrix:
    """Edge wherever similarity >= threshold; self-loops come from the unit diagonal."""
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold {threshold} outside [0, 1]")
    values = (similarity.values >= threshold).astype(float)
    return AdjacencyMatrix(values, threshold)


def to_transition(adjacency: AdjacencyMatrix) -> TransitionMatrix:
    """Divide each row by its sum, then transpose, giving a column-stochastic matrix.

    For symmetric adjacency this equals column normalization; a zero row
    (possible only on hand-built inputs) cannot be normalized.
    """
    row_sums = adjacency.values.sum(axis=1)
    if np.any(row_sums == 0):
        empty = int(np.nonzero(row_sums == 0)[0][0])
        raise ConstructionError(f"row {empty} of the adjacency matrix is all zero")
    return TransitionMatrix((adjacency.values / row_sums[:, None]).T)
