"""Robust sentence ranking as linear programming.

The target is the minimizer over the simplex of

    ||P x - x||_1  +  (budgeted decomposition norm of x)

which bounds the worst-case eigenvector residual over every admissible
perturbation of the transition matrix, including matrices grown by new
sentences. For this uncertainty set the growth-aware program adds only a
price to the fixed one: the new block ``x2`` has norm term exactly
``GROWTH_PRICE * sum(x2)`` (see ``GrowthModel``), and both terms are
positively homogeneous. With ``a = sum(x1)`` the growth objective is at
least ``a * F + 2 * (1 - a)`` for the fixed optimum ``F``, so the growth
optimum is ``min(F, 2)``, attained at ``x2 = 0`` by the fixed optimizer
whenever ``F <= 2``. ``solve_growth`` is therefore the fixed solve, and it
raises ``SolverError`` when ``F > 2``, where the optimum leaves the
existing block empty (with m >= 1 new sentences; at m = 0 there is no new
block and no price). The test suite checks the growth optimum against
HiGHS on the decomposition form rather than assuming it.

Every model here is one compact LP, written by ``build_robust_program``,
whose docstring gives the layout. Every solve goes through ``_solve_rank``,
which builds that model and checks its objective against the certified
bound. The budget enters the model's cost alone, so ``_solve_rank`` builds
one model for a list of budgets and re-prices its tableau for each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dualnorms import BudgetedBox, box_l1_support
from .errors import NumericError, ParameterError, SolverError, all_within, as_count, real_array
from .graph import TransitionMatrix, _residuals
from .lpsolver import LinearProgram, solve
from .ranking import RankVector, ReportedRanks, normalize_max_one

OBJECTIVE_IDENTITY_TOL = 1e-7
SIMPLEX_INPUT_TOL = 1e-8
# Norm cost of unit mass on the new sentences' block (see ``GrowthModel``).
GROWTH_PRICE = 2.0


class RobustBudget(BudgetedBox):
    """Combined perturbation budget: total ``eps1`` and one cap per existing column."""

    @property
    def eps1(self):
        return self.eps_total

    @classmethod
    def broadcast(cls, n, eps1, eps_col_value):
        return cls.uniform(n, eps1, eps_col_value)


@dataclass(frozen=True, eq=False)
class GrowthModel:
    """Budgets for the columns brought in by future sentences, one per column.

    Each new column splits its unit mass between links into the existing
    sentences (``to_existing_col``) and links among the new ones, and its
    column sum holds both parts at their caps. So every other budget is
    derived: ``among_new_col = 1 - to_existing_col``, and each block total
    is the sum of its caps. The new block's support set then has caps 2 and
    radius 2m, the sum of the caps, so at ``x2 >= 0`` its support is ``2 *
    sum(x2)``: ``x2`` costs 2 per unit of mass, and the growth optimum is
    min(fixed optimum, 2).
    """

    to_existing_col: np.ndarray

    def __post_init__(self):
        col = real_array(self.to_existing_col, "growth budgets", ParameterError)
        object.__setattr__(self, "to_existing_col", col)
        if col.ndim != 1 or not all_within(col, 0.0, 1.0):
            raise ParameterError("growth budgets must be a vector of entries in [0, 1]")

    @classmethod
    def balanced(cls, m):
        """Even split of every new column between existing and new sentences."""
        if as_count(m, "growth rate") < 0:
            raise ParameterError("growth rate must be nonnegative")
        return cls(np.full(m, 0.5))

    @property
    def m(self):
        return self.to_existing_col.size

    @property
    def among_new_col(self):
        return 1.0 - self.to_existing_col

    @property
    def to_existing_total(self):
        return float(self.to_existing_col.sum())

    @property
    def among_new_total(self):
        return float(self.among_new_col.sum())


@dataclass(frozen=True, eq=False)
class RobustRankResult:
    """Solution blocks, objective, and max-one report of a robust solve."""

    x1: RankVector
    x2: np.ndarray
    objective: float
    reported: ReportedRanks


@dataclass(frozen=True, eq=False)
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


def build_robust_program(
    p: TransitionMatrix, budget: RobustBudget, pinned=None
) -> LinearProgram:
    """The one rank model behind the fixed, growth and comparative programs.

    Variables ``x`` (n), ``s`` (n, bounds the residual), ``t`` (the
    inf-norm weight of the support dual) and ``u`` (n, per-column excess
    over ``t``): 3n + 1 of them, all nonnegative. Rows ``-s <= P x - x <=
    s`` interleaved per sentence, then ``sum(x) = 1``, then ``x_j - t - u_j
    <= 0``: 3n + 1 of them. The cost ``sum(s) + eps1 * t + eps_col @ u``,
    on the budget's exact clamped form (see ``_rank_cost``), bounds residual
    plus the support of ``x`` over the budget: for fixed ``x >= 0`` the
    minimum over ``(t, u) >= 0`` is ``box_l1_support(x, budget)`` (its LP
    dual).

    With ``pinned = v``, an integer in 1..n, there is no simplex row: the
    first v coordinates of ``x`` have bounds ``(1, 1)`` and the rest ``(0,
    1)``. A pinned coordinate's support row reads ``t + u_j >= 1``, so at
    the optimum each of the v excesses is ``max(0, 1 - t)``: one variable
    ``w`` in their place, priced at ``min(sum(eps_col[:v]), eps1)``, and one
    row ``t + w >= 1`` where the simplex row was, stand for them all.
    Variables ``(x, s, t, w, u_v .. u_{n-1})``: 3n - v + 2 of them, and 3n -
    v + 1 rows; the solver substitutes the v fixed coordinates, so it pivots
    on 3n - 2v + 2 columns.
    """
    n = p.size
    if pinned is not None and not 1 <= as_count(pinned, "n_verified") <= n:
        raise ParameterError(f"n_verified {pinned} outside 1..{n}")
    cost = _rank_cost(p, budget, pinned)
    v = pinned or 0
    width = cost.size
    matrix = np.zeros((3 * n + 1 - v, width))
    shifted = p.values - np.eye(n)
    matrix[0 : 2 * n : 2, :n] = shifted
    matrix[1 : 2 * n : 2, :n] = -shifted
    matrix[np.arange(2 * n), n + np.arange(2 * n) // 2] = -1.0
    # row 2n is the simplex row or the verified block's support row; then
    # x_j - t - u_j <= 0 for each coordinate that is not pinned
    generated = np.arange(n - v)
    support = matrix[2 * n + 1 :]
    support[generated, v + generated] = 1.0
    support[:, 2 * n] = -1.0
    support[generated, width - (n - v) + generated] = -1.0
    relations = ["<="] * len(matrix)
    if pinned is None:
        x_bounds = [(0.0, None)] * n
        matrix[2 * n, :n] = 1.0
        relations[2 * n] = "="
    else:
        x_bounds = [(1.0, 1.0)] * v + [(0.0, 1.0)] * (n - v)
        matrix[2 * n, 2 * n : 2 * n + 2] = 1.0
        relations[2 * n] = ">="
    bounds = x_bounds + [(0.0, None)] * (width - n)
    rhs = np.zeros(len(matrix))
    rhs[2 * n] = 1.0
    return LinearProgram._from_rows(cost, bounds, matrix, relations, rhs)


def _rank_cost(p, budget, pinned=None):
    """The cost ``sum(s) + eps1 * t + eps_col @ u`` of ``build_robust_program``'s
    model on ``budget`` clamped: caps ``min(eps_j, eps1)`` and radius ``min(eps1,
    sum of caps)`` cut out the same set. With ``pinned = v`` the v pinned
    excesses are one ``w`` at ``min(sum(caps[:v]), eps1)``, always finite: any
    price at or above ``eps1`` gives every ``x`` the same support."""
    _check_dims(p, budget)
    n = p.size
    caps = np.minimum(budget.eps_col, budget.eps_total)
    with np.errstate(over="ignore"):  # a sum past the float range is clamped away
        eps1 = min(budget.eps_total, caps.sum())
        verified = [] if pinned is None else [min(caps[:pinned].sum(), eps1)]
    return np.concatenate([np.zeros(n), np.ones(n), [eps1], verified, caps[pinned:]])


def build_growth_program(
    p: TransitionMatrix, budget: RobustBudget, growth: GrowthModel
) -> LinearProgram:
    """The LP behind the growth-aware model: ``build_robust_program`` itself.

    The new block costs ``GROWTH_PRICE`` (2) per unit of mass whatever the
    split in ``growth``, so with new sentences the growth optimum is
    min(this LP's optimum, 2), and at or below 2 the fixed optimizer with
    an empty new block attains it.
    """
    return build_robust_program(p, budget)


def _bound(p, budget, x) -> float:
    """Residual at ``x`` plus the support of ``x`` over the budget."""
    return float(_residuals(p.values, x)) + box_l1_support(x, budget).value


def _solve_rank(p, budgets, pinned=None):
    """Build one rank model and solve it under each budget, checking each objective.

    ``pinned`` is passed to ``build_robust_program``, which builds the model
    under the first budget. Returns one ``(x, objective)`` per budget; a
    non-optimal end raises ``SolverError``, and an objective that differs
    from ``_bound`` at its ``x`` raises ``NumericError``.
    """
    budgets = list(budgets)
    if not budgets:
        raise ParameterError("need at least one budget")
    program = build_robust_program(p, budgets[0], pinned)
    costs = [program.objective] + [_rank_cost(p, budget, pinned) for budget in budgets[1:]]
    solutions = solve(program, costs)
    results = []
    for budget, solution in zip(budgets, solutions):
        if solution.status != "optimal":
            raise SolverError(f"rank program ended {solution.status}")
        x = solution.x[: p.size]
        objective = float(solution.objective_value)
        gap = abs(objective - _bound(p, budget, x))
        if gap > OBJECTIVE_IDENTITY_TOL * max(1.0, abs(objective)):
            raise NumericError("objective does not decompose into residual plus norm", gap=gap)
        results.append((x, objective))
    return results


def solve_robust_budgets(p: TransitionMatrix, budgets, ids=None) -> list[RobustRankResult]:
    """Solve the fixed-size robust ranking model under each budget in ``budgets``.

    One model serves them all: each budget's simplex starts from the
    previous budget's optimal vertex. Each result is checked as a
    ``solve_robust`` result is; an empty list or a budget of the wrong size
    raises ``ParameterError``.
    """
    results = []
    for x, objective in _solve_rank(p, budgets):
        total = x.sum()
        if abs(total - 1.0) > SIMPLEX_INPUT_TOL:
            raise SolverError("solution drifted off the simplex")
        x = x / total
        results.append(
            RobustRankResult(
                x1=RankVector(x),
                x2=np.zeros(0),
                objective=objective,
                reported=normalize_max_one(x, ids),
            )
        )
    return results


def solve_robust(p: TransitionMatrix, budget: RobustBudget, ids=None) -> RobustRankResult:
    """Solve the fixed-size robust ranking model."""
    (result,) = solve_robust_budgets(p, [budget], ids)
    return result


def solve_growth(
    p: TransitionMatrix, budget: RobustBudget, growth: GrowthModel, ids=None
) -> RobustRankResult:
    """Solve the growth-aware model: the fixed solve, priced against the new block.

    With new sentences the growth optimum is min(fixed optimum,
    ``GROWTH_PRICE``). At or below the price the fixed optimizer with ``x2 =
    0`` attains it; above it the optimum puts all its mass on the new block,
    leaving no ranks for the existing sentences, and ``SolverError`` is
    raised. Without new sentences (``growth.m == 0``) it is the fixed model.
    """
    result = solve_robust(p, budget, ids)
    if growth.m and result.objective > GROWTH_PRICE:
        raise SolverError("growth optimum lies on the new block: existing block has no mass")
    return replace(result, x2=np.zeros(growth.m))


def comparative_rank(
    p: TransitionMatrix, n_verified: int, budget: RobustBudget, ids=None
) -> ComparativeRankResult:
    """Score generated sentences against verified ones pinned at rank one.

    Same objective as the robust model, but the simplex constraint is
    replaced by fixing the first ``n_verified`` coordinates to one and
    boxing the rest into [0, 1], both through variable bounds. The
    verified block's support rows fold into one row and one variable ``w``,
    priced at ``min(sum(eps_col[:v]), eps1)`` on the clamped caps (see
    ``build_robust_program``), so with v = ``n_verified`` the model has 3n -
    v + 1 rows and 3n - v + 2 variables; the solver substitutes the fixed
    coordinates as constants and pivots on 3n - 2v + 2 columns.
    The raw scores are reported; dividing by their sum gives a feasible
    simplex point, also returned. ``n_verified`` must be an integer (``None``
    would drop the pins); ``build_robust_program`` checks its range.
    """
    pinned = as_count(n_verified, "n_verified")
    ((x, objective),) = _solve_rank(p, [budget], pinned=pinned)
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
    this equals the norm form of the growth-aware objective at ``x``. The
    new block's support is ``GROWTH_PRICE * ||x2||_1`` (see ``GrowthModel``).
    """
    _check_dims(p, budget)
    m = growth.m if growth is not None else 0
    x = real_array(x, "candidate entries", ParameterError, (p.size + m,))
    if np.any(x < -SIMPLEX_INPUT_TOL) or abs(x.sum() - 1.0) > SIMPLEX_INPUT_TOL:
        raise ParameterError("candidate must lie on the probability simplex")
    return _bound(p, budget, x[: p.size]) + GROWTH_PRICE * float(np.abs(x[p.size :]).sum())
