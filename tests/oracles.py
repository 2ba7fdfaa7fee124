"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own code paths:
similarity is recomputed with plain dicts and ``math``, and linear
programs are solved by enumerating basic solutions. Slow and simple on
purpose.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

WORD = re.compile(r"[^\W_]+", re.UNICODE)


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

    vecs = [weights(d) for d in docs]
    norms = [math.sqrt(sum(v * v for v in vec.values())) for vec in vecs]
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
            num = sum(vecs[i][w] * vecs[j][w] for w in shared)
            matrix[i][j] = min(num / (norms[i] * norms[j]), 1.0)
    return np.array(matrix)


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


def sampled_box_l2_max(x, eps_total, eps_col, n_samples, rng):
    """Feasible sampling of the l2-ball/box intersection; clipping keeps both."""
    x = np.asarray(x, dtype=float)
    best = 0.0
    best_z = np.zeros_like(x)
    for _ in range(n_samples):
        z = rng.normal(size=x.size)
        norm = np.linalg.norm(z)
        if norm > 0:
            z *= rng.uniform(0.0, eps_total) / norm
        z = np.clip(z, -eps_col, eps_col)
        value = float(z @ x)
        if value > best:
            best, best_z = value, z
    return best, best_z


def decomposition_rank_optimum(p, eps1, eps_col, growth=None, pinned=None):
    """Optimum of a robust rank model in its decomposition form, solved by HiGHS.

    An independent formulation of the package's models: the norm term of
    each block is written as ``min over lam + mu = x`` of
    ``total * ||lam||_inf + caps @ |mu|``, with variables ``(t, r, mu)``
    (``t`` bounds ``|x_j - mu_j|``, ``r`` bounds ``|mu_j|``, ``mu`` free).
    Variables are ``x1``, ``x2``, ``s``, then ``(t, r, mu)`` per block.

    ``growth`` is ``(m, ball_total, ball_col)`` for a new block ``x2`` or
    ``None``. With ``pinned=None`` all of ``x`` lies on the simplex;
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


def reference_perturbation(p, uset, rng):
    """The sampler drawn one column at a time: ``(xi, psi, zeta, chi, grown)``.

    ``p`` is the transition matrix as an array and ``uset`` an uncertainty
    set whose budget fields are read directly; ``rng`` is a numpy
    ``Generator``. Each existing column draws its mass, and each live
    column its new-row split, with a call of its own, in column order.
    """
    n, m = p.shape[0], uset.growth.m
    xi = np.zeros((n, n))
    psi = np.zeros((m, n))
    if m:
        masses = np.empty(n)
        for j in range(n):
            cap = min(uset.existing.eps_col[j], uset.new_rows.eps_col[j]) / 2.0
            masses[j] = rng.uniform(0.0, min(cap, 1.0))
        total = masses.sum()
        scale = 1.0
        if total > 0:
            scale = min(1.0, uset.existing.eps_total / total, uset.new_rows.eps_total / total)
        masses *= scale
        for j in range(n):
            if masses[j] == 0.0:
                continue
            xi[:, j] = -masses[j] * p[:, j]
            psi[:, j] = masses[j] * rng.dirichlet(np.ones(m))
    zeta = np.zeros((n, m))
    chi = np.zeros((m, m))
    for j in range(m):
        zeta[:, j] = uset.growth.to_existing_col[j] * rng.dirichlet(np.ones(n))
        chi[:, j] = uset.growth.among_new_col[j] * rng.dirichlet(np.ones(m))
    grown = np.block([[p + xi, zeta], [psi, chi]])
    return xi, psi, zeta, chi, grown
