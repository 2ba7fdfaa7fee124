"""Thresholded adjacency and the column-stochastic transition matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SimilarityMatrix
from .errors import ConstructionError, ParameterError, all_near, all_within, real_array
from .errors import real_number

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Binary symmetric adjacency; the diagonal is all ones for thresholds <= 1.

    Stored as bool. Other input must be real numbers, each 0 or 1.
    """

    values: np.ndarray
    threshold: float

    def __post_init__(self):
        try:
            values = np.asarray(self.values)
        except ValueError:
            raise ParameterError("adjacency entries must not be ragged") from None
        if values.dtype != bool:
            values = real_array(self.values, "adjacency entries", ParameterError)
            if not np.all((values == 0.0) | (values == 1.0)):
                raise ParameterError("adjacency entries must be 0 or 1")
            values = values == 1.0
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError("adjacency matrix must be square")
        if not np.array_equal(values, values.T):
            raise ParameterError("adjacency matrix must be symmetric")

    @property
    def size(self):
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Nonnegative matrix whose every column sums to one."""

    values: np.ndarray

    def __post_init__(self):
        values = real_array(self.values, "transition entries", ConstructionError)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ConstructionError("transition matrix must be square")
        if not values.size:
            raise ConstructionError("transition matrix needs at least one sentence")
        if not all_within(values, 0.0):
            raise ConstructionError("transition entries must be nonnegative")
        if not all_near(values.sum(axis=0), 1.0, COLUMN_SUM_TOL):
            raise ConstructionError("every transition column must sum to one")

    @property
    def size(self):
        return self.values.shape[0]


def threshold_adjacency(similarity: SimilarityMatrix, threshold: float) -> AdjacencyMatrix:
    """Edge wherever similarity >= threshold; self-loops come from the unit diagonal."""
    if not (real_number(threshold) and 0.0 <= threshold <= 1.0):
        raise ParameterError(f"threshold {threshold!r} outside [0, 1]")
    return AdjacencyMatrix(similarity.values >= threshold, threshold)


def to_transition(adjacency: AdjacencyMatrix) -> TransitionMatrix:
    """Divide each row by its edge count, then transpose, giving a column-stochastic matrix.

    For symmetric adjacency this equals column normalization; a zero row
    (possible only on hand-built inputs) cannot be normalized.
    """
    row_sums = adjacency.values.sum(axis=1)
    if np.any(row_sums == 0):
        empty = int(np.nonzero(row_sums == 0)[0][0])
        raise ConstructionError(f"row {empty} of the adjacency matrix is all zero")
    return TransitionMatrix((adjacency.values / row_sums[:, None]).T)
