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

The evaluators see a few coordinates per call (``verify`` draws at most
eight), so their per-coordinate work runs over Python floats taken from one
``tolist()``: the greedy, the breakpoint prefix sums, the water-fill, the
split and the certificate's feasibility test. Each sum is an explicit
left-to-right loop, since builtin ``sum()`` over floats is compensated from
Python 3.12 on, and each loop reproduces the numpy reduction it stands for,
NaN and signed zeros included. The sort orders stay stable numpy argsorts.
The reductions whose bits reach a result stay numpy dot products (``z @ x``,
``weights @ |mu|``, ``eps_col @ |mu|`` and ``_norm``): BLAS does not add a
dot product left to right, so a loop would change their last bits.
``tests/oracles.py`` keeps the earlier whole-array code, and every field
of every result equals its output bit for bit.

A certificate ``z`` must lie in the ball and under each cap within
``FEASIBILITY_TOL`` times the radius or cap once that exceeds one, so
rounding at large budgets does not fail a valid certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBudgetError, NumericError, ParameterError, all_within, as_count
from .errors import real_array, real_number

DUALITY_TOL = 1e-8
ATTAINMENT_TOL = 1e-9
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BudgetedBox:
    """Total budget plus per-coordinate caps for one perturbation block."""

    eps_total: float
    eps_col: np.ndarray

    def __post_init__(self):
        total = math.nan
        if real_number(self.eps_total) and 0 <= self.eps_total:
            try:
                total = float(self.eps_total)
            except OverflowError:  # a Python int past the float range
                pass
        if not 0 <= total < math.inf:
            raise ParameterError("total budget must be finite and nonnegative")
        col = real_array(self.eps_col, "per-coordinate caps", ParameterError)
        object.__setattr__(self, "eps_total", total)
        object.__setattr__(self, "eps_col", col)
        if col.ndim != 1 or not all_within(col, 0.0):
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
    remaining = box.eps_total
    for j in _descending(x):
        if remaining <= 0:
            break
        # a zero entry takes nothing: its sign is zero
        z[j] = ((values[j] > 0) - (values[j] < 0)) * min(caps[j], remaining)
        remaining -= abs(z[j])
    _check_certificate(z, box, ball="l1")
    z = np.array(z)
    return DualCertificate(z=z, value=float(z @ x), ball="l1")


def _descending(x):
    """Indices of ``x`` by decreasing ``|x_j|``, the lower index first on ties."""
    return np.argsort(-np.abs(x), kind="stable").tolist()


def _norm(v):
    """Euclidean norm of a float array, bit for bit ``np.linalg.norm``'s."""
    v = v.ravel()
    return math.sqrt(v @ v)


def _squares_finite(values):
    """Whether the squares of the floats ``values`` sum to a finite number, added
    left to right; a sum past the float range is infinite in every order."""
    total = 0.0
    for v in values:
        total += v * v
    return math.isfinite(total)


def _check_certificate(z, box, ball):
    """Raise ``NumericError`` unless the entries ``z`` (floats) lie in the ball
    and under the caps, each within ``FEASIBILITY_TOL`` times its bound once
    that bound exceeds one. A NaN entry leaves the ball."""
    sizes = [abs(v) for v in z]
    norm = 0.0
    if ball == "l1":
        for size in sizes:
            norm += size
    else:
        for size in sizes:
            norm += size * size
        norm = math.sqrt(norm)
    if not norm <= box.eps_total + FEASIBILITY_TOL * max(1.0, box.eps_total):
        raise NumericError(f"certificate leaves the {ball} ball", gap=norm - box.eps_total)
    for size, cap in zip(sizes, box.eps_col.tolist()):
        if size > cap and size - cap > FEASIBILITY_TOL * max(1.0, cap):
            raise NumericError("certificate leaves the box", gap=size - cap)


def decomposition_norm(x, box: BudgetedBox) -> NormDecomposition:
    """Evaluate ``min over lam + mu = x`` of ``||lam||_inf + sum_j (eps_j/eps) |mu_j|``.

    This is the norm dual to the l1-ball/box support scaled by the total
    budget. With ``t`` bounding ``|lam_j|`` the best split is ``mu_j =
    sign(x_j) * (|x_j| - t)_+``, so the norm is the minimum over ``t >= 0``
    of ``t + sum_j w_j (|x_j| - t)_+`` (``w = eps_col / eps``): convex and
    piecewise linear, with its minimum at zero or at some ``|x_j|``. One
    descending sort of ``|x|`` and prefix sums of ``w`` and ``w |x|``
    evaluate every breakpoint. The value of the split is checked against
    ``box_l1_support`` (see ``_certified``), which also validates ``x``.
    """
    if box.eps_total <= 0:
        raise DegenerateBudgetError("decomposition norm undefined for zero total budget")
    certificate = box_l1_support(x, box)
    x = np.asarray(x, dtype=float)
    values = x.tolist()
    weights = box.eps_col / box.eps_total
    w = weights.tolist()
    # breakpoint k is the k-th largest |x_j|, then zero; above it lie the first k
    # entries, whose weights sum to ``above`` and weighted sizes to ``excess``
    steps = [(abs(values[j]), w[j]) for j in _descending(x)]
    steps.append((0.0, 0.0))
    t, least = 0.0, math.inf
    above = excess = 0.0
    for size, weight in steps:
        cost = size * (1.0 - above) + excess
        # the first least cost, and a NaN cost is least, as ``np.argmin`` has it
        if not cost >= least:
            t, least = size, cost
            if cost != cost:
                break
        above += weight
        excess += weight * size
    mu, lam, largest = [], [], 0.0
    for v in values:
        cut = abs(v) - t
        part = ((v > 0) - (v < 0)) * (0.0 if cut < 0.0 else cut)
        mu.append(part)
        lam.append(v - part)
        if abs(v - part) > largest:
            largest = abs(v - part)
    mu = np.array(mu)
    value = float(largest + weights @ np.abs(mu))
    return _certified(np.array(lam), mu, value, certificate, box.eps_total)


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
    ``sqrt((eps^2 - C_k) / S_k)``. A total budget whose square overflows
    (above about 1.34e154) cannot enter them, and when the clamped point
    does not fit the ball it raises ``NumericError``; so do entries whose
    squares overflow every ``S_k``, which would leave ``kappa`` at zero.
    """
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    values, caps = x.tolist(), box.eps_col.tolist()
    signs = [(v > 0) - (v < 0) for v in values]
    z = [s * cap for s, cap in zip(signs, caps)]
    # squares past the float range make ``_norm`` infinite, and numpy would warn
    clamped = _squares_finite(z) and _norm(np.array(z)) <= box.eps_total
    if not clamped:
        sizes = [abs(v) for v in values]
        # zero entries never clamp and add nothing to S_k: they sort last and are cut off
        ratios = [cap / size if size > 0 else math.inf for cap, size in zip(caps, sizes)]
        order = np.argsort(ratios, kind="stable")[: x.size - sizes.count(0.0)].tolist()
        free_sq, free = [], 0.0
        for j in reversed(order):
            free += sizes[j] * sizes[j]
            free_sq.append(free)
        # the largest room / free ratio, NaN if any is (as ``max`` over numpy
        # arrays); ``eps ** 2`` is libm's pow, which rounds a few squares apart
        # from ``eps * eps``, so the two are not interchangeable here
        try:
            budget_sq = box.eps_total**2
        except OverflowError:
            raise NumericError(
                f"total budget {box.eps_total:.3e} is too large for the l2 water-fill: "
                "its square overflows"
            ) from None
        kappa_sq, clamped_sq = 0.0, 0.0
        for j, free in zip(order, reversed(free_sq)):
            room = budget_sq - clamped_sq
            room = 0.0 if room < 0.0 else room
            # an underflowed ``free`` divides as IEEE 754 has it
            ratio = room / free if free else (math.inf if room > 0.0 else math.nan)
            if ratio > kappa_sq or ratio != ratio:
                kappa_sq = ratio
            clamped_sq += caps[j] * caps[j]
        if kappa_sq == 0.0 and budget_sq > 0.0 and free_sq[-1] == math.inf:
            raise NumericError(
                "entries are too large for the l2 water-fill: their squares overflow"
            )
        kappa = math.sqrt(kappa_sq)
        z = []
        for s, cap, size in zip(signs, caps, sizes):
            reach = kappa * size
            z.append(s * (cap if cap < reach else reach))
    _check_certificate(z, box, ball="l2")
    z = np.array(z)
    return DualCertificate(z=z, value=float(z @ x), ball="l2", clamped=clamped)


def decomposition_norm_l2(x, box: BudgetedBox) -> NormDecomposition:
    """Evaluate ``min over lam + mu = x`` of ``eps ||lam||_2 + sum_j eps_j |mu_j|``.

    The split is read off the water-fill of ``box_l2_support``: ``lam = z /
    kappa`` (the largest ``|z_j| / |x_j|`` is the scaling ``kappa``, taken by
    every coordinate that does not clamp), or ``lam = 0`` when the fully
    clamped point fits inside the ball. Its value is checked against the
    support (see ``_certified``), which also validates ``x``.
    """
    if box.eps_total <= 0:
        raise DegenerateBudgetError("l2 decomposition undefined for zero total budget")
    certificate = box_l2_support(x, box)
    x = np.asarray(x, dtype=float)
    if certificate.clamped:
        lam = np.zeros_like(x)
    else:
        kappa = 0.0
        for v, reach in zip(x.tolist(), certificate.z.tolist()):
            if v:
                scale = abs(reach / v)
                if scale > kappa:
                    kappa = scale
        lam = certificate.z / kappa
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
    # each direction's entries are validated once, by ``real_array``
    sequence = isinstance(directions, (list, tuple)) or getattr(directions, "ndim", 0) > 0
    if not sequence:
        raise ParameterError("directions must be a sequence of vectors")
    directions = [real_array(a, "direction entries", ParameterError) for a in directions]
    if any(a.ndim != 1 for a in directions):
        raise ParameterError("every direction must be a vector")
    radii = real_array(radii, "radii", ParameterError, (len(directions),)).tolist()
    if min(radii, default=0.0) < 0:
        raise ParameterError("radii must be nonnegative")
    norms = [_norm(a) for a in directions]
    spread = 0.0
    for r, norm_a in zip(radii, norms):
        spread += r * norm_a
    norm0 = _norm(a0)
    value = norm0 + spread
    if norm0 > 0:
        unit0 = a0 / norm0
    else:
        unit0 = np.zeros_like(a0)
        unit0[0] = 1.0
    maximizers = []
    attained = a0.copy()
    for r, a, norm_a in zip(radii, directions, norms):
        if norm_a == 0:
            xi = np.zeros((a0.size, a.size))
        else:
            xi = r * np.multiply.outer(unit0, a) / norm_a
        maximizers.append(xi)
        attained = attained + xi @ a
    gap = abs(_norm(attained) - value)
    if not gap <= ATTAINMENT_TOL * max(1.0, value):
        raise NumericError("worst-case maximizer fails to attain the bound", gap=gap)
    return FrobeniusWorstCase(value=value, maximizers=maximizers, gap=gap)
