"""Classic LexRank: the dominant eigenvector of the transition matrix.

No damping or teleportation. For reducible matrices the eigenvector is
not unique; determinism is pinned by always starting the power iteration
from the uniform vector, and the result is the limit from that start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NormalizationError, ParameterError, all_within, as_count
from .errors import real_array, real_number
from .graph import TransitionMatrix

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
SIMPLEX_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class RankVector:
    """Point on the standard simplex: nonnegative entries summing to one."""

    values: np.ndarray

    def __post_init__(self):
        values = real_array(self.values, "rank entries", ParameterError)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ParameterError("rank vector must be one-dimensional")
        if not all_within(values, -SIMPLEX_SUM_TOL):
            raise ParameterError("rank entries must be nonnegative numbers")
        # finite entries whose sum passes the float range sum to inf, which fails the test
        with np.errstate(over="ignore"):
            total = values.sum()
        if not abs(total - 1.0) <= SIMPLEX_SUM_TOL:
            raise ParameterError("rank entries must sum to one")

    def __len__(self):
        return self.values.size


@dataclass(frozen=True, eq=False)
class ReportedRanks:
    """Per-sentence scores with the max-one normalization used for reporting."""

    ids: tuple[str, ...]
    scores: np.ndarray
    normalized: np.ndarray

    def rows(self):
        return list(zip(self.ids, self.scores.tolist(), self.normalized.tolist()))

    def as_dicts(self):
        return [
            {"id": i, "score": s, "normalized": n}
            for i, s, n in zip(self.ids, self.scores.tolist(), self.normalized.tolist())
        ]


def power_iteration(
    matrix: TransitionMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankVector:
    """Iterate ``x <- P x`` from the uniform vector until ``||P x - x||_1 <= tol``.

    Each iterate is renormalized onto the simplex. Raises ConvergenceError
    (carrying the last residual) if the budget runs out, which happens
    only for periodic chains that the uniform start does not quotient out.
    """
    if not real_number(tol) or not 0 < tol < np.inf:
        raise ParameterError("tolerance must be positive and finite")
    if as_count(max_iter, "iteration budget") < 1:
        raise ParameterError("need at least one iteration")
    p = matrix.values
    x = np.full(matrix.size, 1.0 / matrix.size)
    residual = np.inf
    for _ in range(max_iter):
        next_x = p @ x
        residual = float(np.abs(next_x - x).sum())
        if residual <= tol:
            return RankVector(x)
        x = next_x / next_x.sum()
    raise ConvergenceError(
        f"power iteration stalled at residual {residual:.3e} after {max_iter} iterations",
        residual=residual,
    )


def normalize_max_one(ranks, ids=None) -> ReportedRanks:
    """Divide scores by the maximum so the largest reported value is exactly one."""
    scores = ranks.values if isinstance(ranks, RankVector) else ranks
    values = real_array(scores, "scores", NormalizationError)
    if values.size == 0:
        raise NormalizationError("nothing to normalize")
    top = values.max()
    if top <= 0:
        raise NormalizationError("all scores are zero; max-one normalization undefined")
    if ids is None:
        ids = [f"s{i + 1}" for i in range(values.size)]
    ids = tuple(ids)
    if len(ids) != values.size:
        raise ParameterError("one id per score required")
    return ReportedRanks(ids=ids, scores=values.copy(), normalized=values / top)
