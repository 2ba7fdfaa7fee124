"""Robust sentence ranking as linear programming.

The target is the minimizer over the simplex of

    ||P x - x||_1  +  (budgeted decomposition norm of x)

which bounds the worst-case eigenvector residual over every admissible
perturbation of the transition matrix, including matrices grown by new
sentences. The growth-aware model carries an extra block for the new
coordinates. Both terms are positively homogeneous, so its optimum is the
cheaper of the fixed optimum and the new block's own simplex minimum (2
for balanced growth): below that, the optimum zeroes the new block and
matches the fixed model, which the test suite verifies rather than
assumes; beyond it, the optimum leaves the existing block empty and
``solve_growth`` raises ``SolverError``.

Every model here is one compact LP. The residual is bounded by ``s``
(``-s <= P x - x <= s``) and, since ``x >= 0``, the norm term by its dual
support form ``eps1 * t + sum_j eps_j * u_j`` with ``u_j >= x_j - t`` and
``t, u >= 0`` (``dualnorms._support_program``). The fixed model has
variables ``(x, s, t, u)``: 3n+1 of them and 3n+1 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorms import BudgetedBox, _support_program, box_l1_support
from .errors import NumericError, ParameterError, SolverError
from .graph import TransitionMatrix
from .lpsolver import LinearProgram, LinearProgramSolution, solve
from .ranking import RankVector, ReportedRanks, normalize_max_one

OBJECTIVE_IDENTITY_TOL = 1e-7
SIMPLEX_INPUT_TOL = 1e-8


@dataclass(frozen=True)
class RobustBudget:
    """Combined perturbation budget: one total and one cap per existing column."""

    eps1: float
    eps_col: np.ndarray

    def __post_init__(self):
        col = np.asarray(self.eps_col, dtype=float)
        object.__setattr__(self, "eps_col", col)
        if not np.isfinite(self.eps1) or self.eps1 < 0:
            raise ParameterError("total budget must be finite and nonnegative")
        if col.ndim != 1 or not np.all(np.isfinite(col)) or np.any(col < 0):
            raise ParameterError("per-column budgets must be finite and nonnegative")

    @classmethod
    def broadcast(cls, n, eps1, eps_col_value):
        return cls(float(eps1), np.full(n, float(eps_col_value)))

    @property
    def size(self):
        return self.eps_col.size

    def box(self) -> BudgetedBox:
        return BudgetedBox(self.eps1, self.eps_col)

    def scaled(self, factor):
        return RobustBudget(self.eps1 * factor, self.eps_col * factor)


@dataclass(frozen=True)
class GrowthModel:
    """Budgets for the columns brought in by ``m`` future sentences.

    Each new column splits its unit mass between links into the existing
    sentences and links among the new ones, so the per-column budgets of
    the two blocks sum to one and the block totals sum to ``m``.
    """

    m: int
    to_existing_total: float
    among_new_total: float
    to_existing_col: np.ndarray
    among_new_col: np.ndarray

    def __post_init__(self):
        to_col = np.asarray(self.to_existing_col, dtype=float)
        among_col = np.asarray(self.among_new_col, dtype=float)
        object.__setattr__(self, "to_existing_col", to_col)
        object.__setattr__(self, "among_new_col", among_col)
        if self.m < 0:
            raise ParameterError("growth rate must be nonnegative")
        if to_col.shape != (self.m,) or among_col.shape != (self.m,):
            raise ParameterError("need one budget pair per new sentence")
        if np.any(to_col < 0) or np.any(among_col < 0):
            raise ParameterError("growth budgets must be nonnegative")
        if self.m and np.abs(to_col + among_col - 1.0).max() > 1e-9:
            raise ParameterError("per-column growth budgets must sum to one")
        if abs(self.to_existing_total + self.among_new_total - self.m) > 1e-9:
            raise ParameterError("growth block totals must sum to the growth rate")

    @classmethod
    def balanced(cls, m):
        """Even split of every new column between existing and new sentences."""
        half = np.full(m, 0.5)
        return cls(m, m / 2.0, m / 2.0, half, half)

    @property
    def ball_total(self):
        """l1 radius of the support set for the new block."""
        return self.to_existing_total + self.among_new_total + self.m

    @property
    def ball_col(self):
        """Per-coordinate caps of the support set for the new block."""
        return self.to_existing_col + self.among_new_col + 1.0

    def box(self) -> BudgetedBox:
        return BudgetedBox(self.ball_total, self.ball_col)


@dataclass(frozen=True)
class RobustRankResult:
    """Solution blocks, objective, and max-one report of a robust solve."""

    x1: RankVector
    x2: np.ndarray
    objective: float
    reported: ReportedRanks


@dataclass(frozen=True)
class ComparativeRankResult:
    """Comparative scores: verified sentences pinned at one, generated in [0, 1]."""

    reported: ReportedRanks
    simplex_point: np.ndarray
    objective: float


def _check_dims(p: TransitionMatrix, budget: RobustBudget):
    if budget.size != p.size:
        raise ParameterError(
            f"budget for {budget.size} columns against a {p.size}-sentence matrix"
        )


def _rank_program(p: TransitionMatrix, budget: RobustBudget, growth=None, pinned=None):
    """The one rank model behind the fixed, growth and comparative programs.

    Head variables ``x1`` (n), ``x2`` (m, the growth block) and ``s`` (n);
    rows ``-s <= P x1 - x1 <= s`` interleaved per sentence, then
    ``sum(x1) + sum(x2) = 1`` unless ``pinned`` is given, in which case the
    first ``pinned`` coordinates of ``x1`` are fixed at one and the rest
    boxed into [0, 1]. Then ``(t, u)`` bounds the support of ``x1`` over
    the budget and, with growth, ``(t2, u2)`` that of ``x2`` over the grown
    columns' ball.
    """
    _check_dims(p, budget)
    n = p.size
    m = growth.m if growth is not None else 0
    head = 2 * n + m
    shifted = p.values - np.eye(n)
    residual = np.zeros((n, 2, head))
    residual[:, 0, :n] = shifted
    residual[:, 1, :n] = -shifted
    residual[:, :, n + m :] = -np.eye(n)[:, None, :]
    rows = residual.reshape(2 * n, head)
    relations = ["<="] * (2 * n)
    rhs = np.zeros(2 * n)
    if pinned is None:
        x_bounds = [(0.0, None)] * n
        simplex = np.concatenate([np.ones(n + m), np.zeros(n)])
        rows = np.vstack([rows, simplex])
        relations.append("=")
        rhs = np.append(rhs, 1.0)
    else:
        x_bounds = [(1.0, 1.0)] * pinned + [(0.0, 1.0)] * (n - pinned)
    cost = np.concatenate([np.zeros(n + m), np.ones(n)])
    bounds = x_bounds + [(0.0, None)] * (m + n)
    blocks = [(np.eye(n, head), np.zeros(n), budget.box(), False)]
    if m:
        blocks.append((np.eye(m, head, k=n), np.zeros(m), growth.box(), False))
    return _support_program(cost, bounds, rows, relations, rhs, blocks)


def build_robust_program(p: TransitionMatrix, budget: RobustBudget) -> LinearProgram:
    """Model minimizing residual plus budget-weighted decomposition norm.

    Variable layout: ``x`` (n), ``s`` (n, bounds the residual), ``t`` (the
    inf-norm weight of the support dual), ``u`` (n, per-column excess over
    ``t``): 3n+1 variables. Rows: ``-s <= P x - x <= s`` (2n),
    ``sum(x) = 1``, then ``u_j >= x_j - t`` (n); ``x, s, t, u >= 0``.
    """
    return _rank_program(p, budget)


def build_growth_program(
    p: TransitionMatrix, budget: RobustBudget, growth: GrowthModel
) -> LinearProgram:
    """Growth-aware model over the enlarged simplex.

    Variable layout: ``x1`` (n), ``x2`` (m), ``s`` (n), ``t`` and ``u``
    (n) for the existing block, ``t2`` and ``u2`` (m) for the new block,
    weighted by ``growth.ball_total`` and ``growth.ball_col``: 3n+2m+2
    variables and 3n+m+1 rows. With zero growth the model coincides with
    the fixed one.
    """
    return _rank_program(p, budget, growth)


def _expect_optimal(solution: LinearProgramSolution) -> LinearProgramSolution:
    if solution.status != "optimal":
        raise SolverError(f"rank program ended {solution.status}")
    return solution


def _bound(p, budget, x1, growth=None, x2=None) -> float:
    """Residual at ``x1`` plus the support of ``x1`` and, with growth, of ``x2``."""
    value = float(np.abs(p.values @ x1 - x1).sum())
    value += box_l1_support(x1, budget.box()).value
    if growth is not None and growth.m:
        value += box_l1_support(x2, growth.box()).value
    return value


def _objective_identity(objective, bound, tol=OBJECTIVE_IDENTITY_TOL):
    gap = abs(objective - bound)
    if gap > tol * max(1.0, abs(objective)):
        raise NumericError("objective does not decompose into residual plus norm", gap=gap)


def solve_robust(p: TransitionMatrix, budget: RobustBudget, ids=None) -> RobustRankResult:
    """Solve the fixed-size robust ranking model."""
    solution = _expect_optimal(solve(build_robust_program(p, budget)))
    x = solution.x[: p.size]
    total = x.sum()
    if abs(total - 1.0) > SIMPLEX_INPUT_TOL:
        raise SolverError("solution drifted off the simplex")
    x = x / total
    objective = float(solution.objective_value)
    _objective_identity(objective, _bound(p, budget, x))
    return RobustRankResult(
        x1=RankVector(x),
        x2=np.zeros(0),
        objective=objective,
        reported=normalize_max_one(x, ids),
    )


def solve_growth(
    p: TransitionMatrix, budget: RobustBudget, growth: GrowthModel, ids=None
) -> RobustRankResult:
    """Solve the growth-aware model; the new block of the optimum is returned raw.

    Raises ``SolverError`` when the optimum puts no mass on the existing
    block, which happens once the fixed optimum exceeds the new block's
    own simplex minimum.
    """
    solution = _expect_optimal(solve(build_growth_program(p, budget, growth)))
    n, m = p.size, growth.m
    x1 = solution.x[:n]
    x2 = solution.x[n : n + m]
    objective = float(solution.objective_value)
    _objective_identity(objective, _bound(p, budget, x1, growth, x2))
    total = x1.sum()
    if total <= SIMPLEX_INPUT_TOL:
        raise SolverError("growth optimum lies on the new block: existing block has no mass")
    return RobustRankResult(
        x1=RankVector(x1 / total),
        x2=x2,
        objective=objective,
        reported=normalize_max_one(x1 / total, ids),
    )


def comparative_rank(
    p: TransitionMatrix, n_verified: int, budget: RobustBudget, ids=None
) -> ComparativeRankResult:
    """Score generated sentences against verified ones pinned at rank one.

    Same objective as the robust model, but the simplex constraint is
    replaced by fixing the first ``n_verified`` coordinates to one and
    boxing the rest into [0, 1]. The raw scores are reported; dividing by
    their sum gives a feasible simplex point, also returned.
    """
    if not 1 <= n_verified <= p.size:
        raise ParameterError(f"n_verified {n_verified} outside 1..{p.size}")
    solution = _expect_optimal(solve(_rank_program(p, budget, pinned=n_verified)))
    x = solution.x[: p.size]
    objective = float(solution.objective_value)
    _objective_identity(objective, _bound(p, budget, x))
    return ComparativeRankResult(
        reported=normalize_max_one(x, ids),
        simplex_point=x / x.sum(),
        objective=objective,
    )


def worst_case_upper_bound(
    x, p: TransitionMatrix, budget: RobustBudget, growth: GrowthModel | None = None
) -> float:
    """Certified bound on the worst-case residual at a candidate rank vector.

    Evaluates residual plus the support values of both blocks; by duality
    this equals the norm form of the growth-aware objective at ``x``.
    """
    _check_dims(p, budget)
    x = np.asarray(x, dtype=float)
    m = growth.m if growth is not None else 0
    if x.shape != (p.size + m,):
        raise ParameterError(f"candidate of length {x.size}, expected {p.size + m}")
    if np.any(x < -SIMPLEX_INPUT_TOL) or abs(x.sum() - 1.0) > SIMPLEX_INPUT_TOL:
        raise ParameterError("candidate must lie on the probability simplex")
    return _bound(p, budget, x[: p.size], growth, x[p.size :])
