"""Dense linear programming via two-phase primal simplex.

Self-contained on purpose: the models solved here are desk-scale (at most
a few hundred variables and rows), so a dense tableau fits them, and exact
vertex answers keep golden tests reproducible. Pivoting is deterministic;
Bland's rule takes over after ``2 * (rows + cols)`` iterations so
degenerate models cannot cycle, where ``cols`` counts the structural and
slack columns.

Each pivot's rank-one update subtracts ``factors[i] * pivot_row[j]`` only
in the columns ``j`` where the normalized pivot row is nonzero: in the
others the dense update subtracts exactly zero, so the pivot sequence,
the vertex and the objective are the same as with it. The two tableaux
can differ only in the sign of a zero entry, which no comparison
distinguishes. The rank models' support block is mostly zero in the pivot
row, so a large tableau updates a small share of its columns. Below
``SPARSE_PIVOT_CELLS`` cells the column gather and scatter cost more than
they save, and the update stays dense.

Equality constraints are expanded into opposing inequalities, variables
are shifted/split into the nonnegative standard form, and fixed variables
are substituted as constants. Phase one is Chvatal's auxiliary problem:
one auxiliary column holds -1 in each row with a negative right-hand side.
One pivot brings it in on the most negative row, which leaves every
right-hand side nonnegative, and phase one then minimizes the auxiliary
alone: the model is infeasible when its minimum exceeds ``PHASE1_TOL``.
An auxiliary still basic at zero leaves on the first nonzero entry of its
row, and phase two runs without its column.

The costs enter phase two alone, so one tableau serves a sequence of cost
vectors: ``solve(lp, objectives)`` runs phase one once and each vector's
phase two from the basis the previous one ended on. That basis is
feasible whatever the previous status, since an unbounded ray stops the
loop before it pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError, real_array, real_number

RELATIONS = ("<=", "=", ">=")

PIVOT_TOL = 1e-9
CONSTRAINT_TOL = 1e-8
BOUND_TOL = 1e-9
PHASE1_TOL = 1e-7
RATIO_TIE_TOL = 1e-12
HARD_ITERATION_CAP = 200_000
SPARSE_PIVOT_CELLS = 20_000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimization model: ``min c @ x`` under row constraints and variable bounds.

    Fields:
        objective: finite cost vector ``c`` of length n.
        lower / upper: per-variable bounds, ``-inf`` / ``+inf`` allowed, NaN not.
            A variable with ``lower == upper`` is fixed at that value.
        rows: dense finite constraint matrix, one row per constraint.
        relations: per-row relation, each one of ``<=``, ``=``, ``>=``.
        rhs: finite right-hand sides.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rows: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray

    @classmethod
    def build(cls, objective, var_bounds, constraints):
        """Assemble and validate a model.

        Args:
            objective: length-n cost vector.
            var_bounds: iterable of ``(low, high)`` pairs; ``None`` means unbounded
                on that side.
            constraints: iterable of ``(coefficients, relation, rhs)`` triples.

        Every number must be a real number (``errors.real_entries``), else
        ``ModelError``; a bound pair is a tuple, list or 1-D array of two entries.
        """
        c = _cost_vector(objective)
        n = c.size
        bounds = list(var_bounds)
        if len(bounds) != n:
            raise ModelError(f"{len(bounds)} bounds for {n} variables")
        lo, hi = [], []
        for pair in bounds:
            if not _bound_pair(pair):
                raise ModelError("each bound must be a (low, high) pair of numbers or None")
            low, high = pair
            try:
                lo.append(-math.inf if low is None else float(low))
                hi.append(math.inf if high is None else float(high))
            except OverflowError:  # a Python int past the float range
                raise ModelError("variable bounds must lie in the float range") from None
        if any(map(math.isnan, lo)) or any(map(math.isnan, hi)):
            raise ModelError("variable bounds must not be NaN")
        if math.inf in lo or -math.inf in hi:
            raise ModelError("lower bounds must be below +inf and upper bounds above -inf")
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        triples = list(constraints)
        if not triples:
            return cls(c, lo, hi, np.zeros((0, n)), (), np.zeros(0))
        coeffs, rels, rhs = zip(*triples)
        mat = real_array(coeffs, "constraint coefficients", ModelError)
        if mat.shape != (len(triples), n):
            raise ModelError(f"constraint width {mat.shape[1:]} does not match {n} variables")
        unknown = set(rels) - set(RELATIONS)
        if unknown:
            raise ModelError(f"unknown relation {sorted(unknown)[0]!r}")
        rhs = real_array(rhs, "constraint rhs", ModelError, (len(triples),))
        return cls(c, lo, hi, mat, tuple(rels), rhs)

    @property
    def n_vars(self):
        return self.objective.size

    @property
    def n_rows(self):
        return self.rows.shape[0]


def _bound_pair(pair):
    """Whether ``pair`` is a tuple, list or 1-D array of two entries, each a real number or None."""
    if not isinstance(pair, (tuple, list, np.ndarray)) or getattr(pair, "ndim", 1) != 1:
        return False
    if len(pair) != 2:
        return False
    low, high = pair
    return (low is None or real_number(low)) and (high is None or real_number(high))


def _cost_vector(values, n=None):
    """A cost vector as floats; ``ModelError`` unless it holds finite real numbers (``n`` of them)."""
    c = real_array(values, "objective entries", ModelError)
    if c.ndim != 1:
        raise ModelError("objective must be a vector")
    if n is not None and c.size != n:
        raise ModelError(f"objective of length {c.size} for {n} variables")
    return c


@dataclass(frozen=True, eq=False)
class LinearProgramSolution:
    """Outcome of a solve: ``status`` is optimal, infeasible, or unbounded."""

    status: str
    x: np.ndarray | None
    objective_value: float | None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    cols = slice(None) if tableau.size < SPARSE_PIVOT_CELLS else np.flatnonzero(tableau[row])
    tableau[:, cols] -= factors[:, None] * tableau[row, cols]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, costs, bland_after):
    """Iterate to optimality on the current basic feasible tableau.

    Returns "optimal" or "unbounded". Dantzig entering rule with
    lowest-index ties until ``bland_after`` iterations, then Bland's rule.
    """
    if not costs.size:
        return "optimal"  # no column to enter
    for iteration in range(HARD_ITERATION_CAP + 1):
        bland = iteration >= bland_after
        reduced = costs - costs[basis] @ tableau[:, :-1]
        # Bland's rule enters on the first negative reduced cost, Dantzig's on the least
        enter = (reduced < -PIVOT_TOL).argmax() if bland else reduced.argmin()
        if not reduced[enter] < -PIVOT_TOL:
            return "optimal"
        column = tableau[:, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded"
        ratios = tableau[rows, -1] / column[rows]
        ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
        leave = ties[basis[ties].argmin()] if bland else ties[0]
        _pivot(tableau, basis, leave, enter)
    raise NumericError("simplex iteration cap exceeded")


class _StandardForm:
    """Rewrite of a general model as ``min c @ y, A y <= b, y >= 0``.

    Each original variable maps to one column of ``y``: shifted by its lower
    bound (sign +1) or, when only bounded above, by its upper bound (sign
    -1). A free variable takes a second column with sign -1, right after
    its first. A fixed variable (``lower == upper``) is the constant of its
    shift and takes no column: the shift moves it into the right-hand
    sides, and ``recover`` returns it at its value. Each row keeps its
    place; an ``=`` row is followed by its negation, a ``>=`` row is
    negated, and a cap row per finite upper bound on a lower-bounded,
    unfixed variable comes last.
    """

    def __init__(self, lp: LinearProgram):
        lower, upper = lp.lower, lp.upper
        has_lower = lower > -np.inf
        free = ~has_lower & (upper == np.inf)
        self.shift = np.where(has_lower, lower, np.where(free, 0.0, upper))
        width = np.where(lower == upper, 0, 1 + free)
        last = np.cumsum(width) - 1
        # the original variable and sign of each column of y
        self.var = np.repeat(np.arange(lp.n_vars), width)
        self.sign = np.repeat(np.where(has_lower | free, 1.0, -1.0), width)
        self.sign[last[free]] = -1.0

        relations = np.array(lp.relations, dtype=object)
        copies = 1 + (relations == "=")
        source = np.repeat(np.arange(lp.n_rows), copies)
        flip = np.ones(source.size)
        first = np.cumsum(copies) - copies
        flip[first[relations == ">="]] = -1.0
        flip[first[relations == "="] + 1] = -1.0
        capped = np.nonzero(has_lower & (lower < upper) & (upper < np.inf))[0]

        rows = self._to_y(lp.rows[source] * flip[:, None])
        caps = np.zeros((capped.size, self.var.size))
        caps[np.arange(capped.size), last[capped]] = 1.0
        self.A = np.vstack([rows, caps])
        shifted = lp.rhs - lp.rows @ self.shift
        self.b = np.concatenate([shifted[source] * flip, upper[capped] - lower[capped]])

    def _to_y(self, coefficients):
        """Coefficients on the original variables rewritten on ``y`` (last axis)."""
        return coefficients[..., self.var] * self.sign

    def recover(self, y):
        x = self.shift.copy()
        np.add.at(x, self.var, self.sign * y)
        return x


def solve(lp: LinearProgram, objectives=None):
    """Solve a model, returning status rather than raising on infeasible/unbounded.

    Returns one ``LinearProgramSolution``. With ``objectives``, a sequence
    of cost vectors of length ``lp.n_vars`` that replaces ``lp.objective``,
    returns a list of them, one per vector in order: one tableau and one
    phase one serve them all, and each phase two starts where the previous
    one ended. Every vector is validated as ``LinearProgram.build``
    validates the objective.
    """
    if objectives is None:
        costs = [lp.objective]
    else:
        costs = [_cost_vector(c, lp.n_vars) for c in objectives]
    solutions = _solve_each(lp, costs)
    return solutions[0] if objectives is None else solutions


def _solve_each(lp, costs):
    if np.any(lp.lower > lp.upper):
        return [LinearProgramSolution("infeasible", None, None)] * len(costs)
    form = _StandardForm(lp)
    m, ny = form.A.shape
    columns = ny + m
    negative = form.b < 0
    # structural columns, slack columns, the auxiliary column, right-hand sides
    tableau = np.zeros((m, columns + 2))
    tableau[:, :ny] = form.A
    tableau[:, ny:columns] = np.eye(m)
    tableau[negative, columns] = -1.0
    tableau[:, -1] = form.b
    basis = ny + np.arange(m)
    bland_after = 2 * (m + columns)

    if negative.any():
        # entering on the most negative row leaves every right-hand side nonnegative
        _pivot(tableau, basis, int(np.argmin(form.b)), columns)
        phase1 = np.zeros(columns + 1)
        phase1[columns] = 1.0
        if _run_simplex(tableau, basis, phase1, bland_after) != "optimal":
            raise NumericError("phase one cannot be unbounded")
        if phase1[basis] @ tableau[:, -1] > PHASE1_TOL:
            return [LinearProgramSolution("infeasible", None, None)] * len(costs)
        # the slack block is the basis inverse, so the auxiliary's row has a pivot
        if columns in basis:
            row = int(np.argmax(basis == columns))
            pivots = np.flatnonzero(np.abs(tableau[row, :columns]) > PIVOT_TOL)
            if not pivots.size:
                raise NumericError("auxiliary variable left in the basis without a pivot")
            _pivot(tableau, basis, row, int(pivots[0]))

    tableau = np.delete(tableau, columns, axis=1)
    solutions = []
    for c in costs:
        priced = np.zeros(columns)
        priced[:ny] = form._to_y(c)
        if _run_simplex(tableau, basis, priced, bland_after) == "unbounded":
            solutions.append(LinearProgramSolution("unbounded", None, None))
            continue
        y = np.zeros(columns)
        y[basis] = tableau[:, -1]
        x = form.recover(y[:ny])
        _check_solution(lp, x)
        x = np.clip(x, lp.lower, lp.upper)
        solutions.append(LinearProgramSolution("optimal", x, float(c @ x)))
    return solutions


def _check_solution(lp, x):
    """Raise ``NumericError`` unless ``x`` keeps its bounds and every row its
    relation, within the tolerances; a NaN entry or residual keeps neither."""
    if not ((x >= lp.lower - BOUND_TOL).all() and (x <= lp.upper + BOUND_TOL).all()):
        raise NumericError("solution violates variable bounds")
    # the first row whose residual breaks its relation by more than the tolerance
    for relation, gap in zip(lp.relations, (lp.rows @ x - lp.rhs).tolist()):
        if relation == "<=":
            kept = gap <= CONSTRAINT_TOL
        elif relation == ">=":
            kept = gap >= -CONSTRAINT_TOL
        else:
            kept = abs(gap) <= CONSTRAINT_TOL
        if not kept:
            raise NumericError(f"constraint residual {gap:.3e} exceeds tolerance", gap=gap)
