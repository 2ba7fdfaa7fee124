"""Support functions and decomposition norms over budgeted boxes.

The recurring object is the polytope ``{z : ||z||_1 <= eps, |z_j| <= eps_j}``
(an l1 ball intersected with a box). Its support function ``max z @ x`` has
an exact greedy solution, and by conic duality it equals a minimal
decomposition of ``x`` into an inf-norm part and a weighted l1 part. Both
routes are implemented so each can certify the other; the l2-ball variant
and a Frobenius worst-case identity round out the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBudgetError, NumericError, ParameterError
from .lpsolver import LinearProgram, solve

DUALITY_TOL_L1 = 1e-8
DUALITY_TOL_L2 = 1e-6
ATTAINMENT_TOL = 1e-9
SIMPLEX_MIN_TOL = 1e-9
KAPPA_TOL = 1e-12
COORDINATE_DESCENT_TOL = 1e-8


@dataclass(frozen=True)
class BudgetedBox:
    """Total budget plus per-coordinate caps for one perturbation block."""

    eps_total: float
    eps_col: np.ndarray

    def __post_init__(self):
        col = np.asarray(self.eps_col, dtype=float)
        object.__setattr__(self, "eps_col", col)
        if not np.isfinite(self.eps_total) or self.eps_total < 0:
            raise ParameterError("total budget must be finite and nonnegative")
        if col.ndim != 1 or not np.all(np.isfinite(col)) or np.any(col < 0):
            raise ParameterError("per-coordinate caps must be finite and nonnegative")

    @classmethod
    def uniform(cls, n, eps_total, eps_each):
        return cls(float(eps_total), np.full(n, float(eps_each)))

    @property
    def size(self):
        return self.eps_col.size


@dataclass(frozen=True)
class DualCertificate:
    """Feasible maximizer of ``z @ x`` over a ball/box intersection."""

    z: np.ndarray
    value: float
    ball: str = "l1"


@dataclass(frozen=True)
class NormDecomposition:
    """Split ``x = lam + mu`` achieving the decomposition-norm minimum."""

    lam: np.ndarray
    mu: np.ndarray
    value: float


def box_l1_support(x, box: BudgetedBox) -> DualCertificate:
    """Maximize ``z @ x`` over ``||z||_1 <= eps_total, |z_j| <= eps_col[j]``.

    Greedy and exact: allocate budget to coordinates in order of
    decreasing ``|x_j|``, capping each at its box bound. Ties take the
    lower index, so certificates are reproducible.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (box.size,):
        raise ParameterError(f"vector of length {x.size} against box of size {box.size}")
    z = np.zeros_like(x)
    remaining = box.eps_total
    order = np.lexsort((np.arange(x.size), -np.abs(x)))
    for j in order:
        if remaining <= 0:
            break
        take = min(box.eps_col[j], remaining)
        z[j] = np.sign(x[j]) * take
        remaining -= abs(z[j])
    value = float(z @ x)
    _check_certificate(z, box, ball="l1")
    return DualCertificate(z=z, value=value, ball="l1")


def _check_certificate(z, box, ball):
    norm = np.abs(z).sum() if ball == "l1" else float(np.linalg.norm(z))
    if norm > box.eps_total + 1e-9:
        raise NumericError(f"certificate leaves the {ball} ball", gap=norm - box.eps_total)
    excess = np.abs(z) - box.eps_col
    if excess.max(initial=0.0) > 1e-9:
        raise NumericError("certificate leaves the box", gap=float(excess.max()))


def _support_program(cost, bounds, rows, relations, rhs, blocks) -> LinearProgram:
    """Build a head model plus one compact support block per entry of ``blocks``.

    The head has variables ``v`` with ``cost``, ``bounds`` (one ``(low,
    high)`` pair each) and constraints ``rows @ v (relations) rhs``. A block
    ``(select, offset, box, signed)`` names ``x = select @ v + offset`` and
    appends variables ``(t, u)`` (``1 + box.size``) with cost
    ``box.eps_total * t + box.eps_col @ u``, bounds ``t, u >= 0`` and rows

        x_j - t - u_j <= 0          and, when ``signed``,  -x_j - t - u_j <= 0.

    For fixed ``x`` the minimum over ``(t, u)`` is ``box_l1_support(x, box)``
    (its LP dual), for ``x >= 0`` or, with ``signed``, for any ``x``. Block
    variables follow the head variables and block rows follow the head
    rows, both in block order.
    """
    head = len(cost)
    width = head + sum(1 + box.size for _, _, box, _ in blocks)
    matrix = [np.hstack([rows, np.zeros((len(rhs), width - head))])]
    right = [np.asarray(rhs, dtype=float)]
    costs = [np.asarray(cost, dtype=float)]
    bounds = list(bounds)
    start = head
    for select, offset, box, signed in blocks:
        n = box.size
        sign = np.array([1.0, -1.0]) if signed else np.ones(1)
        block = np.zeros((sign.size, n, width))
        block[:, :, :head] = sign[:, None, None] * select
        block[:, :, start] = -1.0
        block[:, np.arange(n), start + 1 + np.arange(n)] = -1.0
        matrix.append(block.reshape(-1, width))
        right.append(np.outer(-sign, offset).ravel())
        costs += [[box.eps_total], box.eps_col]
        bounds += [(0.0, None)] * (1 + n)
        start += 1 + n
    matrix = np.vstack(matrix)
    relations = list(relations) + ["<="] * (matrix.shape[0] - len(rhs))
    return LinearProgram.build(
        np.concatenate(costs), bounds, zip(matrix, relations, np.concatenate(right))
    )


def _decomposition_program(x, inf_weight, l1_weights):
    """Model ``min inf_weight * max_j |x_j - mu_j| + sum_j w_j |mu_j|`` over ``mu``.

    Variables are laid out as ``(t, u)``: ``min inf_weight * t + w @ u``
    subject to ``u_j >= +-x_j - t`` and ``t, u >= 0``. At a given ``t`` the
    best split is ``mu_j = sign(x_j) * (|x_j| - t)_+``, whose magnitude is
    the least feasible ``u_j``, so both models share their minimum.
    """
    return _support_program(
        np.zeros(0), [], np.zeros((0, 0)), [], np.zeros(0),
        [(np.zeros((x.size, 0)), x, BudgetedBox(inf_weight, l1_weights), True)],
    )


def _solve_decomposition(x, inf_weight, l1_weights):
    solution = solve(_decomposition_program(x, inf_weight, l1_weights))
    if solution.status != "optimal":
        raise NumericError(f"decomposition program ended {solution.status}")
    t = solution.x[0]
    mu = np.sign(x) * np.clip(np.abs(x) - t, 0.0, None)
    return NormDecomposition(lam=x - mu, mu=mu, value=float(solution.objective_value))


def decomposition_norm(x, box: BudgetedBox) -> NormDecomposition:
    """Evaluate ``min over lam + mu = x`` of ``||lam||_inf + sum_j (eps_j/eps) |mu_j|``.

    This is the norm dual to the l1-ball/box support scaled by the total
    budget; the identity ``eps_total * value == box_l1_support(x).value``
    is asserted here, so every evaluation doubles as a duality check.
    """
    x = np.asarray(x, dtype=float)
    if box.eps_total <= 0:
        raise DegenerateBudgetError("decomposition norm undefined for zero total budget")
    if x.shape != (box.size,):
        raise ParameterError(f"vector of length {x.size} against box of size {box.size}")
    result = _solve_decomposition(x, 1.0, box.eps_col / box.eps_total)
    support = box_l1_support(x, box).value
    gap = abs(box.eps_total * result.value - support)
    if gap > DUALITY_TOL_L1 * max(1.0, abs(support)):
        raise NumericError("decomposition norm disagrees with its support dual", gap=gap)
    return result


def weighted_decomposition_norm(y, weights) -> NormDecomposition:
    """Unit-scale decomposition norm ``min ||lam||_inf + sum_j w_j |mu_j|``."""
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != y.shape:
        raise ParameterError("weights must match the vector length")
    if np.any(weights < 0):
        raise ParameterError("weights must be nonnegative")
    return _solve_decomposition(y, 1.0, weights)


def simplex_decomposition_min(m, weights) -> float:
    """Exact minimum of the weighted decomposition norm over the probability simplex.

    Closed form: ``1/m`` when every weight is at least ``1/m``, otherwise the
    smallest weight. The value is cross-checked against a direct joint
    minimization before being returned; ``m = 0`` is zero by convention.
    """
    closed, direct = _simplex_minimum_routes(m, weights)
    gap = abs(direct - closed)
    if gap > SIMPLEX_MIN_TOL:
        raise NumericError("closed-form simplex minimum disagrees with direct LP", gap=gap)
    return closed


def _simplex_minimum_routes(m, weights):
    """The simplex minimum as ``(closed form, direct LP optimum)``, unchecked."""
    if m < 0:
        raise ParameterError("simplex dimension must be nonnegative")
    if m == 0:
        return 0.0, 0.0
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ParameterError("need one weight per simplex coordinate")
    if np.any(weights < 0):
        raise ParameterError("weights must be nonnegative")
    closed = 1.0 / m if np.all(weights >= 1.0 / m) else float(weights.min())

    # joint LP over (y, t, u) with y on the simplex
    program = _support_program(
        np.zeros(m), [(0.0, None)] * m, np.ones((1, m)), ["="], np.ones(1),
        [(np.eye(m), np.zeros(m), BudgetedBox(1.0, weights), False)],
    )
    solution = solve(program)
    if solution.status != "optimal":
        raise NumericError(f"simplex minimization ended {solution.status}")
    return closed, float(solution.objective_value)


def box_l2_support(x, box: BudgetedBox) -> DualCertificate:
    """Maximize ``z @ x`` over ``||z||_2 <= eps_total, |z_j| <= eps_col[j]``.

    The maximizer has the clamped-ray form ``z_j = sign(x_j) * min(eps_j,
    kappa |x_j|)``; bisection finds the scaling ``kappa`` at which the ball
    becomes active, unless the fully clamped point already fits inside it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (box.size,):
        raise ParameterError(f"vector of length {x.size} against box of size {box.size}")
    signs = np.sign(x)
    absx = np.abs(x)
    clamped = signs * box.eps_col
    if np.linalg.norm(clamped) <= box.eps_total:
        z = clamped
    elif box.eps_total == 0:
        z = np.zeros_like(x)
    else:
        active = absx > 0

        def point(kappa):
            return signs * np.minimum(box.eps_col, kappa * absx)

        hi = float(np.max(box.eps_col[active] / absx[active]))
        lo = 0.0
        while hi - lo > KAPPA_TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(point(mid)) <= box.eps_total:
                lo = mid
            else:
                hi = mid
        z = point(lo)
    value = float(z @ x)
    _check_certificate(z, box, ball="l2")
    return DualCertificate(z=z, value=value, ball="l2")


def decomposition_norm_l2(x, box: BudgetedBox) -> float:
    """Evaluate ``min over lam + mu = x`` of ``eps ||lam||_2 + sum_j eps_j |mu_j|``.

    Coordinate descent with exact one-dimensional updates; the smooth part
    is the scaled l2 norm of ``lam = x - mu`` and the separable part is the
    weighted l1 norm of ``mu``. Agreement with the l2 support value is
    asserted before returning.
    """
    x = np.asarray(x, dtype=float)
    if box.eps_total <= 0:
        raise DegenerateBudgetError("l2 decomposition undefined for zero total budget")
    if x.shape != (box.size,):
        raise ParameterError(f"vector of length {x.size} against box of size {box.size}")
    eps = box.eps_total
    caps = box.eps_col
    mu = np.zeros_like(x)
    lam = x.copy()

    def objective():
        return eps * float(np.linalg.norm(lam)) + float(caps @ np.abs(mu))

    previous = objective()
    for _ in range(10_000):
        for j in range(x.size):
            others = float(lam @ lam - lam[j] ** 2)
            xj = x[j]
            if caps[j] >= eps:
                mu_j = 0.0
            elif others <= 0:
                mu_j = xj if caps[j] < eps else 0.0
            else:
                ratio = caps[j] / eps
                if eps * abs(xj) <= caps[j] * np.sqrt(others + xj * xj):
                    mu_j = 0.0
                else:
                    lam_star = ratio * np.sqrt(others / (1.0 - ratio * ratio))
                    mu_j = np.sign(xj) * (abs(xj) - lam_star)
            mu[j] = mu_j
            lam[j] = xj - mu_j
        current = objective()
        if previous - current < 1e-12 * max(1.0, abs(current)):
            break
        previous = current
    else:
        raise NumericError("coordinate descent failed to settle", gap=previous - current)

    value = objective()
    support = box_l2_support(x, box).value
    gap = abs(value - support)
    if gap > DUALITY_TOL_L2 * max(1.0, abs(support)):
        raise NumericError("l2 decomposition disagrees with its support dual", gap=gap)
    return value


@dataclass(frozen=True)
class FrobeniusWorstCase:
    """Closed-form worst-case norm with the perturbations that attain it."""

    value: float
    maximizers: list[np.ndarray] = field(default_factory=list)


def frobenius_worst_case(a0, directions, radii) -> FrobeniusWorstCase:
    """Maximize ``||a0 + sum_i xi_i a_i||_2`` over ``||xi_i||_F <= radii[i]``.

    The optimum is ``||a0||_2 + sum_i radii[i] * ||a_i||_2``, attained at
    rank-one matrices aligning each block with ``a0``. When ``a0`` is zero
    any unit direction serves; the first basis vector is used for
    determinism. Attainment is asserted to ``1e-9``.
    """
    a0 = np.asarray(a0, dtype=float)
    directions = [np.asarray(a, dtype=float) for a in directions]
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (len(directions),):
        raise ParameterError("need one radius per direction")
    if np.any(radii < 0):
        raise ParameterError("radii must be nonnegative")
    norm0 = float(np.linalg.norm(a0))
    value = norm0 + float(sum(r * np.linalg.norm(a) for r, a in zip(radii, directions)))
    if norm0 > 0:
        unit0 = a0 / norm0
    else:
        unit0 = np.zeros_like(a0)
        unit0[0] = 1.0
    maximizers = []
    attained = a0.copy()
    for r, a in zip(radii, directions):
        norm_a = float(np.linalg.norm(a))
        if norm_a == 0:
            xi = np.zeros((a0.size, a.size))
        else:
            xi = r * np.outer(unit0, a) / norm_a
        maximizers.append(xi)
        attained = attained + xi @ a
    gap = abs(float(np.linalg.norm(attained)) - value)
    if gap > ATTAINMENT_TOL * max(1.0, value):
        raise NumericError("worst-case maximizer fails to attain the bound", gap=gap)
    return FrobeniusWorstCase(value=value, maximizers=maximizers)
