"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own code paths:
similarity is recomputed with plain dicts and ``math``, and linear
programs are solved by enumerating basic solutions or by HiGHS. Slow and
simple on purpose. ``highs`` is the only route from a ``LinearProgram`` to
HiGHS; ``decomposition_rank_optimum``, an independent formulation, passes
its own arrays to ``linprog``. The exceptions are ``decomposition_lp`` and
``simplex_minimum_lp``, which write the decomposition norm and its simplex
minimum as LPs and solve them with the package's simplex as well as HiGHS,
as differential checks on their closed forms, and ``dense_pivot``, the
simplex pivot as one dense rank-one update, against which the package's
column-sparse pivot is checked bit for bit, ``reference_run_simplex``, the
simplex loop with a separate branch per pivot rule, pivoting with
``dense_pivot``, against which the package's loop is checked bit for bit,
``substituted_comparative_program``, the comparative model with its pinned
coordinates substituted by hand, against which the solver's substitution
of fixed variables is checked, and ``unclamped_rank_program``, a rank
model priced at its raw budget, against which the clamped prices are
checked. The ``reference_`` dual-norm evaluators are
the package's earlier whole-array numpy code, against which the
per-coordinate loops are checked bit for bit; ``compensated_sum`` replays
the builtin ``sum`` of Python 3.12+ on older interpreters. The input checks
kept in their earlier all-numpy form (``reference_real_array``,
``reference_bounds`` and ``reference_check_solution``) are the references
for the checks that now test small arrays over Python floats.
"""

from __future__ import annotations

import builtins
import itertools
import math
import numbers
import re

import numpy as np
import pytest

WORD = re.compile(r"[^\W_]+", re.UNICODE)


BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, start=0):
    """Builtin ``sum`` as Python 3.12 made it for floats: Neumaier-compensated.

    Only the all-float case with the default start is emulated; anything
    else goes to the interpreter's own ``sum``.
    """
    items = list(iterable)
    if start != 0 or not all(type(x) is float for x in items):
        return BUILTIN_SUM(items, start)
    total = compensation = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def oracle_tokenize(text):
    return [w.lower() for w in WORD.findall(text)]


def oracle_similarity_matrix(bodies):
    """Brute-force tf-idf cosine over sentences, each treated as one document."""
    docs = [oracle_tokenize(b) for b in bodies]
    n = len(docs)
    df = {}
    for doc in docs:
        for w in set(doc):
            df[w] = df.get(w, 0) + 1
    idf = {w: math.log(n / k) for w, k in df.items()}

    def weights(doc):
        counts = {}
        for w in doc:
            counts[w] = counts.get(w, 0) + 1
        return {w: c * idf[w] for w, c in sorted(counts.items())}

    def left_to_right(terms):
        # plain double additions from 0.0, as builtin sum did before 3.12
        total = 0.0
        for term in terms:
            total += term
        return total

    vecs = [weights(d) for d in docs]
    norms = [math.sqrt(left_to_right(v * v for v in vec.values())) for vec in vecs]
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                matrix[i][j] = 1.0
                continue
            if norms[i] == 0.0 or norms[j] == 0.0:
                matrix[i][j] = 0.0
                continue
            shared = sorted(set(vecs[i]) & set(vecs[j]))
            num = left_to_right(vecs[i][w] * vecs[j][w] for w in shared)
            matrix[i][j] = min(num / (norms[i] * norms[j]), 1.0)
    return np.array(matrix)


def dense_pivot(tableau, basis, row, col):
    """Pivot ``tableau`` on ``(row, col)`` in place, updating every column."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def reference_run_simplex(tableau, basis, costs, bland_after):
    """The simplex loop with the Dantzig and Bland rules in separate branches.

    Same contract as ``lpsolver._run_simplex``: returns "optimal" or
    "unbounded" and pivots ``tableau`` and ``basis`` in place.
    """
    from robust_lexrank.errors import NumericError
    from robust_lexrank.lpsolver import HARD_ITERATION_CAP, PIVOT_TOL, RATIO_TIE_TOL

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
        dense_pivot(tableau, basis, leave, enter)
        iteration += 1


def enumerate_lp_optimum(objective, rows, relations, rhs, lower, upper):
    """Minimize by enumerating basic solutions of the active-constraint systems.

    All constraints (rows and finite bounds) are pooled as equalities
    ``a @ x = b``; every subset of size n is solved and feasible solutions
    compete on the objective. Exponential, fine for n <= 6.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    pool_a, pool_b = [], []
    for row, b in zip(rows, rhs):
        pool_a.append(np.asarray(row, dtype=float))
        pool_b.append(float(b))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        if np.isfinite(lower[j]):
            pool_a.append(unit.copy())
            pool_b.append(float(lower[j]))
        if np.isfinite(upper[j]):
            pool_a.append(unit.copy())
            pool_b.append(float(upper[j]))
    pool_a = np.array(pool_a)
    pool_b = np.array(pool_b)

    def feasible(x):
        if np.any(x < np.asarray(lower) - 1e-9) or np.any(x > np.asarray(upper) + 1e-9):
            return False
        for row, rel, b in zip(rows, relations, rhs):
            v = float(np.dot(row, x))
            if rel == "<=" and v > b + 1e-9:
                return False
            if rel == ">=" and v < b - 1e-9:
                return False
            if rel == "=" and abs(v - b) > 1e-9:
                return False
        return True

    best_value, best_x = None, None
    for combo in itertools.combinations(range(len(pool_a)), n):
        a = pool_a[list(combo)]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, pool_b[list(combo)])
        if not feasible(x):
            continue
        value = float(objective @ x)
        if best_value is None or value < best_value - 1e-12:
            best_value, best_x = value, x
    return best_value, best_x


def sampled_box_l1_max(x, eps_total, eps_col, n_samples, rng):
    """Random feasible points of the l1-ball/box intersection, best value kept."""
    x = np.asarray(x, dtype=float)
    best = 0.0
    for _ in range(n_samples):
        z = rng.normal(size=x.size)
        scale = np.abs(z).sum()
        if scale > 0:
            z *= rng.uniform(0.0, eps_total) / scale
        z = np.clip(z, -eps_col, eps_col)
        best = max(best, float(z @ x))
    return best


def enumerated_box_l1_max(x, eps_total, eps_col):
    """Exact support value by enumerating budget allocations across subsets."""
    x = np.asarray(x, dtype=float)
    n = x.size
    best = 0.0
    for order in itertools.permutations(range(n)):
        remaining = eps_total
        value = 0.0
        for j in order:
            take = min(eps_col[j], remaining)
            value += take * abs(x[j])
            remaining -= take
            if remaining <= 0:
                break
        best = max(best, value)
    return best


def reference_box_l1_greedy(x, eps_total, eps_col):
    """The ``box_l1_support`` maximizer as a loop over numpy scalars: budget
    to coordinates by decreasing ``|x_j|``, lower index first on ties."""
    x = np.asarray(x, dtype=float)
    z = np.zeros_like(x)
    remaining = eps_total
    for j in np.lexsort((np.arange(x.size), -np.abs(x))):
        if remaining <= 0:
            break
        take = min(eps_col[j], remaining)
        z[j] = np.sign(x[j]) * take
        remaining -= abs(z[j])
    return z


# The dual-norm evaluators as whole-array numpy code, copied from the package
# before it moved their per-coordinate work to Python floats. The package's
# results must equal theirs bit for bit. Each certificate check keeps the
# absolute 1e-9 of that code, so large budgets may fail here alone.


def _reference_norm(v):
    v = v.ravel()
    return math.sqrt(v @ v)


def _reference_check_certificate(z, box, ball):
    from robust_lexrank.errors import NumericError

    magnitude = np.abs(z)
    norm = magnitude.sum() if ball == "l1" else _reference_norm(z)
    if norm > box.eps_total + 1e-9:
        raise NumericError(f"certificate leaves the {ball} ball", gap=norm - box.eps_total)
    excess = magnitude - box.eps_col
    if excess.max(initial=0.0) > 1e-9:
        raise NumericError("certificate leaves the box", gap=float(excess.max()))


def reference_box_l1_support(x, box):
    """``box_l1_support`` from ``reference_box_l1_greedy``."""
    from robust_lexrank.dualnorms import DualCertificate

    z = reference_box_l1_greedy(x, box.eps_total, box.eps_col)
    _reference_check_certificate(z, box, ball="l1")
    return DualCertificate(z=z, value=float(z @ x), ball="l1")


def reference_decomposition_norm(x, box):
    from robust_lexrank.dualnorms import _certified
    from robust_lexrank.errors import DegenerateBudgetError, ParameterError, real_array

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
    return _certified(lam, mu, value, reference_box_l1_support(x, box), box.eps_total)


def reference_box_l2_support(x, box):
    from robust_lexrank.dualnorms import DualCertificate
    from robust_lexrank.errors import ParameterError, real_array

    x = real_array(x, "vector entries", ParameterError, (box.size,))
    signs = np.sign(x)
    absx = np.abs(x)
    z = signs * box.eps_col
    clamped = _reference_norm(z) <= box.eps_total
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
    _reference_check_certificate(z, box, ball="l2")
    return DualCertificate(z=z, value=value, ball="l2", clamped=clamped)


def reference_decomposition_norm_l2(x, box):
    from robust_lexrank.dualnorms import _certified
    from robust_lexrank.errors import DegenerateBudgetError, ParameterError, real_array

    if box.eps_total <= 0:
        raise DegenerateBudgetError("l2 decomposition undefined for zero total budget")
    x = real_array(x, "vector entries", ParameterError, (box.size,))
    certificate = reference_box_l2_support(x, box)
    if certificate.clamped:
        lam = np.zeros_like(x)
    else:
        nonzero = x != 0
        lam = certificate.z / np.abs(certificate.z[nonzero] / x[nonzero]).max()
    mu = x - lam
    value = box.eps_total * _reference_norm(lam) + float(box.eps_col @ np.abs(mu))
    return _certified(lam, mu, value, certificate, 1.0)


def reference_frobenius_worst_case(a0, directions, radii):
    from robust_lexrank.dualnorms import ATTAINMENT_TOL, FrobeniusWorstCase
    from robust_lexrank.errors import NumericError, ParameterError, real_array, real_entries

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
    norm0 = _reference_norm(a0)
    value = norm0 + float(sum(r * _reference_norm(a) for r, a in zip(radii, directions)))
    if norm0 > 0:
        unit0 = a0 / norm0
    else:
        unit0 = np.zeros_like(a0)
        unit0[0] = 1.0
    maximizers = []
    attained = a0.copy()
    for r, a in zip(radii, directions):
        norm_a = _reference_norm(a)
        if norm_a == 0:
            xi = np.zeros((a0.size, a.size))
        else:
            xi = r * np.outer(unit0, a) / norm_a
        maximizers.append(xi)
        attained = attained + xi @ a
    gap = abs(_reference_norm(attained) - value)
    if not gap <= ATTAINMENT_TOL * max(1.0, value):
        raise NumericError("worst-case maximizer fails to attain the bound", gap=gap)
    return FrobeniusWorstCase(value=value, maximizers=maximizers, gap=gap)


def sampled_box_l2_max(x, eps_total, eps_col, n_samples, rng):
    """Feasible sampling of the l2-ball/box intersection; clipping keeps both.

    Each sample is a normal direction scaled to a uniform radius in
    ``[0, eps_total]``; the samples are drawn as one array.
    """
    x = np.asarray(x, dtype=float)
    z = rng.normal(size=(n_samples, x.size))
    radius = rng.uniform(0.0, eps_total, size=n_samples)
    norm = np.linalg.norm(z, axis=1)
    z *= np.divide(radius, norm, out=np.zeros(n_samples), where=norm > 0)[:, None]
    z = np.clip(z, -eps_col, eps_col)
    values = z @ x
    k = int(np.argmax(values))
    if values[k] > 0:
        return float(values[k]), z[k]
    return 0.0, np.zeros_like(x)


def decomposition_lp(x, box):
    """The decomposition norm of ``x`` as an LP, solved by the package's simplex and by HiGHS.

    The model is ``min t + w @ u`` subject to ``u_j >= |x_j| - t`` and ``t,
    u >= 0``, with ``w = eps_col / eps_total``: one row per coordinate and
    ``n + 1`` variables. Returns both optima.
    """
    from robust_lexrank.lpsolver import LinearProgram

    x = np.asarray(x, dtype=float)
    n = x.size
    rows = np.hstack([-np.ones((n, 1)), -np.eye(n)])
    program = LinearProgram.build(
        np.concatenate([[1.0], box.eps_col / box.eps_total]),
        [(0.0, None)] * (n + 1),
        zip(rows, ["<="] * n, -np.abs(x)),
    )
    return _both_optima(program)


def simplex_minimum_lp(m, weights):
    """The simplex minimum of the weighted decomposition norm as one joint LP.

    Variables ``y`` (m) on the probability simplex, then ``(t, u)``
    bounding the support of ``y`` over the box of total one and caps
    ``weights``: ``min t + weights @ u`` subject to ``sum(y) = 1``, ``u_j >=
    y_j - t`` and ``y, t, u >= 0``. Solved by the package's simplex and by
    HiGHS; returns both optima.
    """
    from robust_lexrank.lpsolver import LinearProgram

    simplex = np.concatenate([np.ones(m), np.zeros(1 + m)])
    support = np.hstack([np.eye(m), -np.ones((m, 1)), -np.eye(m)])
    program = LinearProgram.build(
        np.concatenate([np.zeros(m), [1.0], weights]),
        [(0.0, None)] * (2 * m + 1),
        zip(np.vstack([simplex, support]), ["="] + ["<="] * m, np.append(1.0, np.zeros(m))),
    )
    return _both_optima(program)


def _both_optima(program):
    """Optimal values of ``program`` from ``lpsolver.solve`` and from HiGHS."""
    from robust_lexrank import lpsolver

    ours = lpsolver.solve(program)
    assert ours.status == "optimal"
    status, value = highs(program)
    assert status == "optimal", status
    return float(ours.objective_value), value


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(program):
    """Status and optimal value (``None`` unless optimal) of a ``LinearProgram``
    from scipy's HiGHS: ``>=`` rows go negated into ``A_ub``, ``=`` rows into
    ``A_eq``. Skips the calling test without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    relations = np.array(program.relations, dtype=object)
    sign = np.where(relations == ">=", -1.0, 1.0)
    inequality = relations != "="
    result = linprog(
        program.objective,
        A_ub=(program.rows * sign[:, None])[inequality],
        b_ub=(program.rhs * sign)[inequality],
        A_eq=program.rows[~inequality],
        b_eq=program.rhs[~inequality],
        bounds=list(zip(program.lower, program.upper)),
        method="highs",
    )
    if result.status not in HIGHS_STATUS:
        raise RuntimeError(f"HiGHS ended with status {result.status}: {result.message}")
    status = HIGHS_STATUS[result.status]
    return status, float(result.fun) if status == "optimal" else None


def decomposition_rank_optimum(p, eps1, eps_col, growth=None, pinned=None):
    """Optimum of a robust rank model in its decomposition form, solved by HiGHS.

    An independent formulation of the package's models: the norm term of
    each block is written as ``min over lam + mu = x`` of
    ``total * ||lam||_inf + caps @ |mu|``, with variables ``(t, r, mu)``
    (``t`` bounds ``|x_j - mu_j|``, ``r`` bounds ``|mu_j|``, ``mu`` free).
    Variables are ``x1``, ``x2``, ``s``, then ``(t, r, mu)`` per block.

    ``growth`` is ``(m, total, caps)``, the support set of a new block
    ``x2``, or ``None``. With ``pinned=None`` all of ``x`` lies on the simplex;
    otherwise the first ``pinned`` entries of ``x1`` are fixed at one, the
    rest lie in ``[0, 1]``, and there is no simplex row.
    """
    from scipy.optimize import linprog

    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    blocks = [(0, n, float(eps1), np.asarray(eps_col, dtype=float))]
    if growth is not None:
        m, total, caps = growth
        blocks.append((n, m, float(total), np.asarray(caps, dtype=float)))
    k = sum(size for _, size, _, _ in blocks)
    width = k + n + sum(1 + 2 * size for _, size, _, _ in blocks)
    cost = np.zeros(width)
    cost[k : k + n] = 1.0
    bounds = [(0.0, None)] * (k + n)
    if pinned is not None:
        bounds[:n] = [(1.0, 1.0)] * pinned + [(0.0, 1.0)] * (n - pinned)
    a_ub = []

    def row(entries):
        out = np.zeros(width)
        for index, value in entries:
            out[index] += value
        a_ub.append(out)

    shifted = p - np.eye(n)
    for i in range(n):
        for sign in (1.0, -1.0):  # +-(P x1 - x1)_i <= s_i
            row([(j, sign * shifted[i, j]) for j in range(n)] + [(k + i, -1.0)])
    col = k + n
    for x_off, size, total, caps in blocks:
        t, r, mu = col, col + 1, col + 1 + size
        cost[t] = total
        cost[r : r + size] = caps
        bounds += [(0.0, None)] * (1 + size) + [(None, None)] * size
        for j in range(size):
            row([(x_off + j, 1.0), (mu + j, -1.0), (t, -1.0)])  # x_j - mu_j <= t
            row([(x_off + j, -1.0), (mu + j, 1.0), (t, -1.0)])  # mu_j - x_j <= t
            row([(mu + j, 1.0), (r + j, -1.0)])  # mu_j <= r_j
            row([(mu + j, -1.0), (r + j, -1.0)])  # -mu_j <= r_j
        col = mu + size
    a_eq = b_eq = None
    if pinned is None:
        a_eq = np.zeros((1, width))
        a_eq[0, :k] = 1.0
        b_eq = [1.0]
    result = linprog(cost, A_ub=np.array(a_ub), b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                     b_eq=b_eq, bounds=bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS ended with status {result.status}: {result.message}")
    return float(result.fun)


def substituted_comparative_program(p, eps1, eps_col, pinned):
    """The comparative rank model with its pinned coordinates substituted by hand.

    The first ``pinned`` coordinates of ``x`` are constants at one and have
    no column: ``x`` keeps its n - pinned free coordinates, boxed into
    ``[0, 1]``, the residual rows take ``-+(P - I)[:, :pinned] @ 1`` as
    right-hand sides, and there is no simplex row. Each pinned support row
    would read ``-t - u_j <= -1``; one row ``-t - w <= -1`` stands for them
    all, and the free coordinates keep theirs. Variables ``(x free, s, t, w,
    u free)``: 3n - 2 * pinned + 2 of them, and 3n - pinned + 1 rows.

    The prices are the budget's clamped form: each cap at most ``eps1``,
    ``eps1`` at most the clamped caps' sum, and ``w`` at the pinned clamped
    caps' sum or ``eps1``, whichever is less.
    """
    from robust_lexrank.lpsolver import LinearProgram

    eps_col = np.minimum(eps_col, eps1)
    with np.errstate(over="ignore"):
        eps1 = min(eps1, eps_col.sum())
        verified_price = min(eps_col[:pinned].sum(), eps1)
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    free = n - pinned
    head = free + n
    width = head + 2 + free
    shifted = p - np.eye(n)
    residual = np.zeros((n, 2, width))
    residual[:, 0, :free] = shifted[:, pinned:]
    residual[:, 1, :free] = -shifted[:, pinned:]
    residual[:, :, free:head] = -np.eye(n)[:, None, :]
    verified = np.zeros((1, width))
    verified[0, head : head + 2] = -1.0
    support = np.hstack(
        [np.eye(free, head), -np.ones((free, 1)), np.zeros((free, 1)), -np.eye(free)]
    )
    rhs = np.outer(shifted[:, :pinned].sum(axis=1), [-1.0, 1.0]).ravel()
    cost = np.concatenate(
        [np.zeros(free), np.ones(n), [eps1, verified_price], eps_col[pinned:]]
    )
    return LinearProgram.build(
        cost,
        [(0.0, 1.0)] * free + [(0.0, None)] * (2 * n + 2 - pinned),
        zip(
            np.vstack([residual.reshape(2 * n, width), verified, support]),
            ["<="] * (3 * n + 1 - pinned),
            np.concatenate([rhs, [-1.0], np.zeros(free)]),
        ),
    )


def unclamped_rank_program(program, eps1, eps_col, pinned=None):
    """``program``, a model of ``build_robust_program``, priced at the raw budget.

    The rows and bounds are ``program``'s; the cost is ``sum(s) + eps1 * t +
    eps_col @ u`` with every cap and ``eps1`` as given, and with ``pinned``
    the folded excess ``w`` at the pinned caps' sum. Where that sum
    leaves the float range ``w`` is held at 0, as an infinite price holds it.
    """
    from robust_lexrank.lpsolver import LinearProgram

    eps_col = np.asarray(eps_col, dtype=float)
    n = eps_col.size
    bounds = list(zip(program.lower, program.upper))
    verified = []
    if pinned is not None:
        with np.errstate(over="ignore"):
            verified = [eps_col[:pinned].sum()]
        if verified[0] == np.inf:
            verified = [0.0]
            bounds[2 * n + 1] = (0.0, 0.0)
    cost = np.concatenate([np.zeros(n), np.ones(n), [eps1], verified, eps_col[pinned:]])
    return LinearProgram.build(
        cost, bounds, zip(program.rows, program.relations, program.rhs)
    )


def _flat_dirichlet(uniforms):
    """One flat Dirichlet draw from a 1-D row of uniforms in [0, 1); the
    uniform split when every uniform is zero."""
    draws = -np.log1p(-uniforms)
    total = draws.sum()
    if total == 0.0:
        return np.full(draws.size, 1.0 / draws.size)
    return draws / total


def reference_perturbation(p, uset, rng):
    """The sampler drawn one sample at a time: ``(xi, psi, zeta, chi, grown)``.

    ``p`` is the transition matrix as an array and ``uset`` an uncertainty
    set whose budget fields are read directly; ``rng`` is a numpy
    ``Generator``. The sample is one ``rng.random(W)`` call, and every
    block is formed from it one column at a time. With new sentences
    ``W = n + n m + m (n + m)``: the column masses, then each existing
    column's new-row split, then each new column's to-existing and
    among-new halves, every split a flat Dirichlet of its own uniforms.
    With no new sentences (and at least two rows) ``W = 2 n``: one pair
    code and then one fraction per column, and each column moves its mass
    from the donor row to the receiver row of its code.
    """
    n, m = p.shape[0], uset.growth.m
    xi = np.zeros((n, n))
    psi = np.zeros((m, n))
    zeta = np.zeros((n, m))
    chi = np.zeros((m, m))
    if not m and n > 1:
        u = rng.random(2 * n)
        rows = []
        masses = np.empty(n)
        for j in range(n):
            donor, receiver = divmod(math.floor(u[j] * (n * (n - 1))), n - 1)
            if receiver >= donor:
                receiver += 1
            rows.append((donor, receiver))
            masses[j] = u[n + j] * min(uset.existing.eps_col[j] / 2.0, p[donor, j])
        moved = 2.0 * masses.sum()
        if moved > 0:
            masses *= min(1.0, uset.existing.eps_total / moved)
        for j, (donor, receiver) in enumerate(rows):
            xi[donor, j] = -masses[j]
            xi[receiver, j] = masses[j]
    if m:
        u = rng.random(n + n * m + m * (n + m))
        masses = np.empty(n)
        for j in range(n):
            cap = min(uset.existing.eps_col[j], uset.new_rows.eps_col[j]) / 2.0
            masses[j] = u[j] * min(cap, 1.0)
        total = masses.sum()
        if total > 0:
            masses *= min(1.0, uset.existing.eps_total / total, uset.new_rows.eps_total / total)
        for j in range(n):
            xi[:, j] = -masses[j] * p[:, j]
            psi[:, j] = masses[j] * _flat_dirichlet(u[n + j * m : n + (j + 1) * m])
        for j in range(m):
            start = n + n * m + j * (n + m)
            zeta[:, j] = uset.growth.to_existing_col[j] * _flat_dirichlet(u[start : start + n])
            chi[:, j] = uset.growth.among_new_col[j] * _flat_dirichlet(u[start + n : start + n + m])
    grown = np.block([[p + xi, zeta], [psi, chi]])
    return xi, psi, zeta, chi, grown


_NESTED = (list, tuple, np.ndarray)
REFERENCE_FINITE_BY_EXTREMES_ENTRIES = 1 << 16


def _reference_is_real_type(kind):
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def reference_real_entries(values):
    """``errors.real_entries`` with its ABC test on every scalar type."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind in "iuf"  # one dtype test
        values = values.flat
    elif not isinstance(values, _NESTED):
        return _reference_is_real_type(type(values))
    values = list(values)
    types = set(map(type, values))
    scalars = types.difference(_NESTED)
    if not all(map(_reference_is_real_type, scalars)):
        return False
    return scalars == types or all(
        map(reference_real_entries, [v for v in values if type(v) in _NESTED])
    )


def reference_real_array(values, what, error, shape=None):
    """``errors.real_array`` as it was with numpy's entrywise finiteness test on
    every array up to ``REFERENCE_FINITE_BY_EXTREMES_ENTRIES`` entries."""
    if not reference_real_entries(values):
        raise error(f"{what} must be real numbers")
    try:
        array = np.asarray(values, dtype=float)
    except ValueError:
        raise error(f"{what} must not be ragged") from None
    if shape is not None and array.shape != shape:
        raise error(f"{what} have shape {array.shape} where {shape} is needed")
    if array.size > REFERENCE_FINITE_BY_EXTREMES_ENTRIES:
        finite = math.isfinite(array.min()) and math.isfinite(array.max())
    else:
        finite = np.isfinite(array).all()
    if not finite:
        raise error(f"{what} must be finite")
    return array


def reference_bounds(var_bounds, n):
    """The ``(lower, upper)`` arrays ``LinearProgram.build`` made of ``n`` bound
    pairs through one object array, or the ``ModelError`` it raised."""
    from robust_lexrank.errors import ModelError

    bounds = list(var_bounds)
    if len(bounds) != n:
        raise ModelError(f"{len(bounds)} bounds for {n} variables")
    try:
        pairs = np.array(bounds, dtype=object).reshape(n, 2)
        unset = np.equal(pairs, None)
        real = reference_real_entries(pairs[~unset])
    except ValueError:
        real = False
    if not real:
        raise ModelError("each bound must be a (low, high) pair of numbers or None")
    lo = np.where(unset[:, 0], -np.inf, pairs[:, 0]).astype(float)
    hi = np.where(unset[:, 1], np.inf, pairs[:, 1]).astype(float)
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ModelError("variable bounds must not be NaN")
    if np.any(lo == np.inf) or np.any(hi == -np.inf):
        raise ModelError("lower bounds must be below +inf and upper bounds above -inf")
    return lo, hi


def reference_check_solution(lp, x):
    """``lpsolver._check_solution`` with its relations as an object array."""
    from robust_lexrank.errors import NumericError
    from robust_lexrank.lpsolver import BOUND_TOL, CONSTRAINT_TOL

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
