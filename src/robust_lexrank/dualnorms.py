"""Support functions and decomposition norms over budgeted boxes.

The recurring object is the polytope ``{z : ||z||_1 <= eps, |z_j| <= eps_j}``
(an l1 ball intersected with a box). Its support function ``max z @ x`` has
an exact greedy solution, and by conic duality it equals a minimal
decomposition of ``x`` into an inf-norm part and a weighted l1 part; the
l2-ball variant pairs a water-fill support with an l2 decomposition. Both
decompositions have closed forms, and every evaluation certifies itself by
weak duality: its split ``x = lam + mu`` bounds the norm from above, the
support of a feasible ``z`` bounds it from below, and the two must meet. A
Frobenius worst-case identity and the closed-form simplex minimum of the
weighted decomposition norm round out the toolkit. Nothing here calls the
LP solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBudgetError, NumericError, ParameterError, as_count, real_array
from .errors import real_entries, real_number

DUALITY_TOL = 1e-8
ATTAINMENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BudgetedBox:
    """Total budget plus per-coordinate caps for one perturbation block."""

    eps_total: float
    eps_col: np.ndarray

    def __post_init__(self):
        if not real_number(self.eps_total) or not 0 <= self.eps_total < np.inf:
            raise ParameterError("total budget must be finite and nonnegative")
        col = real_array(self.eps_col, "per-coordinate caps", ParameterError)
        object.__setattr__(self, "eps_total", float(self.eps_total))
        object.__setattr__(self, "eps_col", col)
        if col.ndim != 1 or (col < 0).any():
            raise ParameterError("per-coordinate caps must be finite and nonnegative")

    @classmethod
    def uniform(cls, n, eps_total, eps_each):
        if as_count(n, "budget width") < 0:
            raise ParameterError("budget width must be nonnegative")
        return cls(eps_total, np.full(n, eps_each))

    @property
    def size(self):
        return self.eps_col.size


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Feasible maximizer of ``z @ x`` over a ball/box intersection.

    ``clamped`` marks the l2 water-fill's answer when the fully clamped
    point ``sign(x) * eps_col`` fits inside the ball and is ``z``.
    """

    z: np.ndarray
    value: float
    ball: str = "l1"
    clamped: bool = False


@dataclass(frozen=True, eq=False)
class NormDecomposition:
    """Split ``x = lam + mu`` achieving the decomposition-norm minimum, with the
    support certificate its value was checked against and the ``gap`` between them."""

    lam: np.ndarray
    mu: np.ndarray
    value: float
    certificate: DualCertificate
    gap: float


def box_l1_support(x, box: BudgetedBox) -> DualCertificate:
    """Maximize ``z @ x`` over ``||z||_1 <= eps_total, |z_j| <= eps_col[j]``.

    Greedy and exact: allocate budget to coordinates in order of
    decreasing ``|x_j|``, capping each at its box bound. Ties take the
    lower index, so certificates are reproducible.
    """
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    values, caps = x.tolist(), box.eps_col.tolist()
    z = [0.0] * x.size
    remaining = float(box.eps_total)
    for j in np.argsort(-np.abs(x), kind="stable").tolist():
        if remaining <= 0:
            break
        # a zero entry takes nothing: its sign is zero
        z[j] = ((values[j] > 0) - (values[j] < 0)) * min(caps[j], remaining)
        remaining -= abs(z[j])
    z = np.array(z, dtype=float)
    value = float(z @ x)
    _check_certificate(z, box, ball="l1")
    return DualCertificate(z=z, value=value, ball="l1")


def _norm(v):
    """Euclidean norm of a float array, bit for bit ``np.linalg.norm``'s."""
    v = v.ravel()
    return math.sqrt(v @ v)


def _check_certificate(z, box, ball):
    magnitude = np.abs(z)
    norm = magnitude.sum() if ball == "l1" else _norm(z)
    if norm > box.eps_total + 1e-9:
        raise NumericError(f"certificate leaves the {ball} ball", gap=norm - box.eps_total)
    excess = magnitude - box.eps_col
    if excess.max(initial=0.0) > 1e-9:
        raise NumericError("certificate leaves the box", gap=float(excess.max()))


def decomposition_norm(x, box: BudgetedBox) -> NormDecomposition:
    """Evaluate ``min over lam + mu = x`` of ``||lam||_inf + sum_j (eps_j/eps) |mu_j|``.

    This is the norm dual to the l1-ball/box support scaled by the total
    budget. With ``t`` bounding ``|lam_j|`` the best split is ``mu_j =
    sign(x_j) * (|x_j| - t)_+``, so the norm is the minimum over ``t >= 0``
    of ``t + sum_j w_j (|x_j| - t)_+`` (``w = eps_col / eps``): convex and
    piecewise linear, with its minimum at zero or at some ``|x_j|``. One
    descending sort of ``|x|`` and prefix sums of ``w`` and ``w |x|``
    evaluate every breakpoint. The value of the split is checked against
    ``box_l1_support`` (see ``_certified``).
    """
    if box.eps_total <= 0:
        raise DegenerateBudgetError("decomposition norm undefined for zero total budget")
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    weights = box.eps_col / box.eps_total
    absx = np.abs(x)
    order = np.argsort(-absx, kind="stable")
    # breakpoint k is the k-th largest |x_j|, then zero; above it lie the first k entries
    breaks = np.append(absx[order], 0.0)
    w = weights[order]
    above = np.concatenate(([0.0], np.cumsum(w)))
    excess = np.concatenate(([0.0], np.cumsum(w * breaks[:-1])))
    t = breaks[np.argmin(breaks * (1.0 - above) + excess)]
    mu = np.sign(x) * np.maximum(absx - t, 0.0)
    lam = x - mu
    value = float(np.abs(lam).max(initial=0.0) + weights @ np.abs(mu))
    return _certified(lam, mu, value, box_l1_support(x, box), box.eps_total)


def _certified(lam, mu, value, certificate, scale) -> NormDecomposition:
    """The split ``x = lam + mu`` with its value, checked by weak duality.

    Any split bounds the norm from above and any feasible ``z`` bounds the
    support ``z @ x`` from below, so ``scale * value`` and the support of
    ``certificate`` must meet within ``DUALITY_TOL`` (relative to the
    support once it exceeds one). A NaN gap, left by an overflow, fails.
    """
    gap = abs(scale * value - certificate.value)
    if not gap <= DUALITY_TOL * max(1.0, abs(certificate.value)):
        raise NumericError(
            f"{certificate.ball} decomposition norm disagrees with its support dual", gap=gap
        )
    return NormDecomposition(lam=lam, mu=mu, value=value, certificate=certificate, gap=gap)


def weighted_decomposition_norm(y, weights) -> NormDecomposition:
    """Unit-scale decomposition norm ``min ||lam||_inf + sum_j w_j |mu_j|``.

    This is ``decomposition_norm`` over the box of total one and caps
    ``weights``, so it carries the same duality check.
    """
    return decomposition_norm(y, BudgetedBox(1.0, weights))


def simplex_decomposition_min(m, weights) -> float:
    """Exact minimum of the weighted decomposition norm over the probability simplex.

    Closed form: ``min(1/m, min_j w_j)``, and ``m = 0`` is zero by
    convention. The uniform point with ``lam = y`` costs ``1/m`` and the
    vertex of the smallest weight with ``mu = y`` costs that weight, so the
    value is attained. It is also a lower bound: the constant ``z`` at the
    value lies in the unit l1 ball (m entries of at most ``1/m``) and under
    every cap ``w_j``, so by weak duality the norm of every ``y`` is at least
    ``z @ y``, which on the simplex is the value itself. The tests check it
    against the joint LP (``tests/oracles.simplex_minimum_lp``).
    """
    if as_count(m, "simplex dimension") < 0:
        raise ParameterError("simplex dimension must be nonnegative")
    if m == 0:
        return 0.0
    weights = real_array(weights, "weights", ParameterError, (m,))
    smallest = float(weights.min())
    if smallest < 0:
        raise ParameterError("weights must be nonnegative")
    return min(1.0 / m, smallest)


def box_l2_support(x, box: BudgetedBox) -> DualCertificate:
    """Maximize ``z @ x`` over ``||z||_2 <= eps_total, |z_j| <= eps_col[j]``.

    Exact water-fill. The maximizer is ``z_j = sign(x_j) * min(eps_j, kappa
    |x_j|)``, unless the fully clamped point already fits inside the ball.
    Coordinates clamp in increasing order of ``eps_j / |x_j|``; while the
    first ``k`` are clamped, ``||z||^2 = C_k + kappa^2 S_k`` (``C_k`` their
    squared caps, ``S_k`` the squares of the other entries). At every
    ``kappa`` each ``C_k + kappa^2 S_k`` is at least ``||z||^2``, so the
    scaling at which the ball becomes active is the largest of the roots
    ``sqrt((eps^2 - C_k) / S_k)``.
    """
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    signs = np.sign(x)
    absx = np.abs(x)
    z = signs * box.eps_col
    clamped = _norm(z) <= box.eps_total
    if not clamped:
        # zero entries never clamp and add nothing to S_k: they sort last and are cut off
        ratio = np.divide(box.eps_col, absx, out=np.full(x.size, np.inf), where=absx > 0)
        order = np.argsort(ratio, kind="stable")[: np.count_nonzero(absx)]
        caps_sq = box.eps_col[order] ** 2
        clamped_sq = np.concatenate(([0.0], np.cumsum(caps_sq[:-1])))
        free_sq = np.cumsum((absx[order] ** 2)[::-1])[::-1]
        room = np.maximum(box.eps_total**2 - clamped_sq, 0.0)
        kappa = math.sqrt((room / free_sq).max())
        z = signs * np.minimum(box.eps_col, kappa * absx)
    value = float(z @ x)
    _check_certificate(z, box, ball="l2")
    return DualCertificate(z=z, value=value, ball="l2", clamped=clamped)


def decomposition_norm_l2(x, box: BudgetedBox) -> NormDecomposition:
    """Evaluate ``min over lam + mu = x`` of ``eps ||lam||_2 + sum_j eps_j |mu_j|``.

    The split is read off the water-fill of ``box_l2_support``: ``lam = z /
    kappa`` (the largest ``|z_j| / |x_j|`` is the scaling ``kappa``, taken by
    every coordinate that does not clamp), or ``lam = 0`` when the fully
    clamped point fits inside the ball. Its value is checked against the
    support (see ``_certified``).
    """
    if box.eps_total <= 0:
        raise DegenerateBudgetError("l2 decomposition undefined for zero total budget")
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    certificate = box_l2_support(x, box)
    if certificate.clamped:
        lam = np.zeros_like(x)
    else:
        nonzero = x != 0
        lam = certificate.z / np.abs(certificate.z[nonzero] / x[nonzero]).max()
    mu = x - lam
    value = box.eps_total * _norm(lam) + float(box.eps_col @ np.abs(mu))
    return _certified(lam, mu, value, certificate, 1.0)


@dataclass(frozen=True, eq=False)
class FrobeniusWorstCase:
    """Closed-form worst-case norm with the perturbations that attain it, and
    the attainment ``gap`` it was checked at."""

    value: float
    maximizers: list[np.ndarray]
    gap: float


def frobenius_worst_case(a0, directions, radii) -> FrobeniusWorstCase:
    """Maximize ``||a0 + sum_i xi_i a_i||_2`` over ``||xi_i||_F <= radii[i]``.

    The optimum is ``||a0||_2 + sum_i radii[i] * ||a_i||_2``, attained at
    rank-one matrices aligning each block with ``a0``. When ``a0`` is zero
    any unit direction serves; the first basis vector is used for
    determinism. Attainment is asserted to ``1e-9``; a NaN gap fails.
    """
    a0 = real_array(a0, "a0 entries", ParameterError)
    if a0.ndim != 1 or a0.size == 0:
        raise ParameterError("a0 must be a nonempty vector")
    if not real_entries(directions):
        raise ParameterError("directions must be real numbers")
    directions = [real_array(a, "direction entries", ParameterError) for a in directions]
    if any(a.ndim != 1 for a in directions):
        raise ParameterError("every direction must be a vector")
    radii = real_array(radii, "radii", ParameterError, (len(directions),))
    if (radii < 0).any():
        raise ParameterError("radii must be nonnegative")
    norm0 = _norm(a0)
    value = norm0 + float(sum(r * _norm(a) for r, a in zip(radii, directions)))
    if norm0 > 0:
        unit0 = a0 / norm0
    else:
        unit0 = np.zeros_like(a0)
        unit0[0] = 1.0
    maximizers = []
    attained = a0.copy()
    for r, a in zip(radii, directions):
        norm_a = _norm(a)
        if norm_a == 0:
            xi = np.zeros((a0.size, a.size))
        else:
            xi = r * np.outer(unit0, a) / norm_a
        maximizers.append(xi)
        attained = attained + xi @ a
    gap = abs(_norm(attained) - value)
    if not gap <= ATTAINMENT_TOL * max(1.0, value):
        raise NumericError("worst-case maximizer fails to attain the bound", gap=gap)
    return FrobeniusWorstCase(value=value, maximizers=maximizers, gap=gap)
