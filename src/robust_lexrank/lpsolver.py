"""Dense linear programming via two-phase primal simplex.

Self-contained on purpose: the models solved here are desk-scale (at most
a few hundred variables), a dense tableau handles them instantly, and
exact vertex answers keep golden tests reproducible. Pivoting is
deterministic; Bland's rule takes over after ``2 * (rows + cols)``
iterations so degenerate models cannot cycle.

Equality constraints are expanded into opposing inequalities, variables
are shifted/split into the nonnegative standard form, and feasibility is
established with phase-one artificials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError

RELATIONS = ("<=", "=", ">=")

PIVOT_TOL = 1e-9
CONSTRAINT_TOL = 1e-8
BOUND_TOL = 1e-9
PHASE1_TOL = 1e-7
RATIO_TIE_TOL = 1e-12
HARD_ITERATION_CAP = 200_000


@dataclass(frozen=True)
class LinearProgram:
    """Minimization model: ``min c @ x`` under row constraints and variable bounds.

    Fields:
        objective: cost vector ``c`` of length n.
        lower / upper: per-variable bounds, ``-inf`` / ``+inf`` allowed.
        rows: dense constraint matrix, one row per constraint.
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
        """
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1:
            raise ModelError("objective must be a vector")
        n = c.size
        bounds = list(var_bounds)
        if len(bounds) != n:
            raise ModelError(f"{len(bounds)} bounds for {n} variables")
        pairs = np.array(bounds, dtype=object).reshape(n, 2)
        unset = np.equal(pairs, None)
        lo = np.where(unset[:, 0], -np.inf, pairs[:, 0]).astype(float)
        hi = np.where(unset[:, 1], np.inf, pairs[:, 1]).astype(float)
        triples = list(constraints)
        if not triples:
            return cls(c, lo, hi, np.zeros((0, n)), (), np.zeros(0))
        coeffs, rels, rhs = zip(*triples)
        try:
            mat = np.array(coeffs, dtype=float)
        except ValueError:
            raise ModelError(f"constraint widths do not match {n} variables") from None
        if mat.shape != (len(triples), n):
            raise ModelError(f"constraint width {mat.shape[1:]} does not match {n} variables")
        unknown = set(rels) - set(RELATIONS)
        if unknown:
            raise ModelError(f"unknown relation {sorted(unknown)[0]!r}")
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise ModelError("constraint rhs must be finite")
        return cls(c, lo, hi, mat, tuple(rels), rhs)

    @property
    def n_vars(self):
        return self.objective.size

    @property
    def n_rows(self):
        return self.rows.shape[0]

    def dump(self):
        """Plain-text rendering of the model, for eyeballing small instances."""

        def term(coef, j):
            return f"{coef:+g} x{j}"

        lines = ["min " + " ".join(term(c, j) for j, c in enumerate(self.objective) if c != 0)]
        lines.append("subject to")
        for row, rel, b in zip(self.rows, self.relations, self.rhs):
            body = " ".join(term(c, j) for j, c in enumerate(row) if c != 0) or "0"
            lines.append(f"  {body} {rel} {b:g}")
        for j, (a, b) in enumerate(zip(self.lower, self.upper)):
            lines.append(f"  {a:g} <= x{j} <= {b:g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LinearProgramSolution:
    """Outcome of a solve: ``status`` is optimal, infeasible, or unbounded."""

    status: str
    x: np.ndarray | None
    objective_value: float | None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, costs, bland_after):
    """Iterate to optimality on the current basic feasible tableau.

    Returns "optimal" or "unbounded". Dantzig entering rule with
    lowest-index ties until ``bland_after`` iterations, then Bland's rule.
    """
    iteration = 0
    while True:
        if iteration > HARD_ITERATION_CAP:
            raise NumericError("simplex iteration cap exceeded")
        reduced = costs - costs[basis] @ tableau[:, :-1]
        if iteration >= bland_after:
            negatives = np.nonzero(reduced < -PIVOT_TOL)[0]
            if negatives.size == 0:
                return "optimal"
            enter = int(negatives[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -PIVOT_TOL:
                return "optimal"
        column = tableau[:, enter]
        positive = column > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(column.size, np.inf)
        ratios[positive] = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + RATIO_TIE_TOL)[0]
        if iteration >= bland_after:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[0])
        _pivot(tableau, basis, leave, enter)
        iteration += 1


class _StandardForm:
    """Rewrite of a general model as ``min c @ y, A y <= b, y >= 0``.

    Each original variable maps to one column of ``y``: shifted by its lower
    bound (sign +1) or, when only bounded above, by its upper bound (sign
    -1). A free variable takes a second column with sign -1, right after
    its first. Each row keeps its place; an ``=`` row is followed by its
    negation, a ``>=`` row is negated, and a cap row per finite upper bound
    on a lower-bounded variable comes last.
    """

    def __init__(self, lp: LinearProgram):
        lower, upper = lp.lower, lp.upper
        has_lower = lower > -np.inf
        self.free = ~has_lower & (upper == np.inf)
        self.sign = np.where(has_lower | self.free, 1.0, -1.0)
        self.shift = np.where(has_lower, lower, np.where(self.free, 0.0, upper))
        width = 1 + self.free
        self.col = np.cumsum(width) - width
        self.n_y = int(width.sum())
        self.split = self.col[self.free] + 1

        relations = np.array(lp.relations, dtype=object)
        copies = 1 + (relations == "=")
        source = np.repeat(np.arange(lp.n_rows), copies)
        flip = np.ones(source.size)
        first = np.cumsum(copies) - copies
        flip[first[relations == ">="]] = -1.0
        flip[first[relations == "="] + 1] = -1.0
        capped = np.nonzero(has_lower & (upper < np.inf))[0]

        rows = self._to_y(lp.rows[source] * flip[:, None])
        caps = np.zeros((capped.size, self.n_y))
        caps[np.arange(capped.size), self.col[capped]] = 1.0
        self.A = np.vstack([rows, caps])
        shifted = lp.rhs - lp.rows @ self.shift
        self.b = np.concatenate([shifted[source] * flip, upper[capped] - lower[capped]])
        self.c = self._to_y(lp.objective)

    def _to_y(self, coefficients):
        """Coefficients on the original variables rewritten on ``y`` (last axis)."""
        out = np.zeros(coefficients.shape[:-1] + (self.n_y,))
        out[..., self.col] = coefficients * self.sign
        out[..., self.split] = -coefficients[..., self.free]
        return out

    def recover(self, y):
        x = self.shift + self.sign * y[self.col]
        x[self.free] -= y[self.split]
        return x


def solve(lp: LinearProgram) -> LinearProgramSolution:
    """Solve a model, returning status rather than raising on infeasible/unbounded."""
    if np.any(lp.lower > lp.upper):
        return LinearProgramSolution("infeasible", None, None)
    form = _StandardForm(lp)
    m, ny = form.A.shape

    if m == 0:
        # only bounds; cost minimized coordinatewise
        y = np.zeros(ny)
        if np.any(form.c < -PIVOT_TOL):
            return LinearProgramSolution("unbounded", None, None)
        x = form.recover(y)
        return LinearProgramSolution("optimal", x, float(lp.objective @ x))

    A = np.hstack([form.A, np.eye(m)])
    b = form.b.copy()
    negative = b < 0
    A[negative] *= -1.0
    b[negative] *= -1.0

    n_art = int(negative.sum())
    columns = ny + m + n_art
    tableau = np.zeros((m, columns + 1))
    tableau[:, : ny + m] = A
    tableau[:, -1] = b
    art_rows = np.nonzero(negative)[0]
    basis = ny + np.arange(m)
    basis[art_rows] = ny + m + np.arange(n_art)
    tableau[art_rows, basis[art_rows]] = 1.0

    bland_after = 2 * (m + columns)

    if n_art:
        phase1 = np.zeros(columns)
        phase1[ny + m :] = 1.0
        status = _run_simplex(tableau, basis, phase1, bland_after)
        if status != "optimal":
            raise NumericError("phase one cannot be unbounded")
        infeasibility = phase1[basis] @ tableau[:, -1]
        if infeasibility > PHASE1_TOL:
            return LinearProgramSolution("infeasible", None, None)
        # drive leftover artificials out of the basis or drop their rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= ny + m:
                pivots = np.nonzero(np.abs(tableau[i, : ny + m]) > PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(tableau, basis, i, int(pivots[0]))
                else:
                    keep[i] = False
        tableau = tableau[keep]
        basis = basis[keep]
        m = tableau.shape[0]

    # drop artificial columns; slack columns stay sized to the original row count
    n_slack_cols = ny + form.A.shape[0]
    tableau = np.hstack([tableau[:, :n_slack_cols], tableau[:, -1:]])
    costs = np.zeros(tableau.shape[1] - 1)
    costs[:ny] = form.c
    status = _run_simplex(tableau, basis, costs, bland_after)
    if status == "unbounded":
        return LinearProgramSolution("unbounded", None, None)

    y = np.zeros(tableau.shape[1] - 1)
    y[basis] = tableau[:, -1]
    x = form.recover(y[:ny])
    x = np.clip(x, lp.lower, lp.upper)
    _check_solution(lp, x)
    return LinearProgramSolution("optimal", x, float(lp.objective @ x))


def _check_solution(lp, x):
    if np.any(x < lp.lower - BOUND_TOL) or np.any(x > lp.upper + BOUND_TOL):
        raise NumericError("solution violates variable bounds")
    if lp.n_rows == 0:
        return
    gap = lp.rows @ x - lp.rhs
    relations = np.array(lp.relations, dtype=object)
    bad = np.where(
        relations == "<=",
        gap > CONSTRAINT_TOL,
        np.where(relations == ">=", gap < -CONSTRAINT_TOL, np.abs(gap) > CONSTRAINT_TOL),
    )
    if bad.any():
        worst = float(gap[np.argmax(bad)])
        raise NumericError(f"constraint residual {worst:.3e} exceeds tolerance", gap=worst)
