"""Simplex solver behaviour against hand cases and a vertex-enumeration oracle."""

import numpy as np
import pytest

from oracles import enumerate_lp_optimum

from robust_lexrank import LinearProgram, solve
from robust_lexrank.errors import ModelError
from robust_lexrank.lpsolver import _StandardForm


def lp(objective, bounds, constraints):
    return LinearProgram.build(objective, bounds, constraints)


class TestHandCases:
    def test_lower_bounded_minimum(self):
        model = lp([1.0], [(None, None)], [([1.0], ">=", 1.0)])
        result = solve(model)
        assert result.status == "optimal"
        assert result.x[0] == pytest.approx(1.0, abs=1e-10)
        assert result.objective_value == pytest.approx(1.0, abs=1e-10)

    def test_unbounded(self):
        model = lp([-1.0], [(0.0, None)], [])
        assert solve(model).status == "unbounded"

    def test_infeasible(self):
        model = lp([1.0], [(0.0, None)], [([1.0], "<=", -1.0)])
        assert solve(model).status == "infeasible"

    def test_crossed_bounds_infeasible(self):
        model = lp([1.0], [(2.0, 1.0)], [])
        assert solve(model).status == "infeasible"

    def test_equality_constraint(self):
        model = lp(
            [1.0, 2.0],
            [(0.0, None), (0.0, None)],
            [([1.0, 1.0], "=", 3.0)],
        )
        result = solve(model)
        assert result.status == "optimal"
        assert result.x == pytest.approx([3.0, 0.0], abs=1e-9)

    def test_free_variable(self):
        # x0 free with x0 >= x1 - 2, x1 in [0, 1]; minimum sits at x1 = 0
        model = lp(
            [1.0, 0.0],
            [(None, None), (0.0, 1.0)],
            [([1.0, -1.0], ">=", -2.0)],
        )
        result = solve(model)
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(-2.0, abs=1e-9)

    def test_fixed_variable(self):
        model = lp([0.0, 1.0], [(2.0, 2.0), (0.0, None)], [([1.0, 1.0], ">=", 5.0)])
        result = solve(model)
        assert result.status == "optimal"
        assert result.x[0] == pytest.approx(2.0, abs=1e-12)
        assert result.x[1] == pytest.approx(3.0, abs=1e-9)

    def test_support_polytope_value(self):
        # maximize 3 z0 + z1 over |z0| + |z1| <= 1.5, |z_j| <= 1,
        # written as minimization of the negated objective
        model = lp(
            [-3.0, -1.0, 0.0, 0.0],
            [(-1.0, 1.0), (-1.0, 1.0), (0.0, None), (0.0, None)],
            [
                ([1.0, 0.0, -1.0, 0.0], "<=", 0.0),
                ([-1.0, 0.0, -1.0, 0.0], "<=", 0.0),
                ([0.0, 1.0, 0.0, -1.0], "<=", 0.0),
                ([0.0, -1.0, 0.0, -1.0], "<=", 0.0),
                ([0.0, 0.0, 1.0, 1.0], "<=", 1.5),
            ],
        )
        result = solve(model)
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(-3.5, abs=1e-9)
        assert result.x[:2] == pytest.approx([1.0, 0.5], abs=1e-9)

    def test_degenerate_cycling_instance_terminates(self):
        # classic cycling example for the most-negative-cost rule; the
        # Bland fallback must still reach the optimum (-0.05)
        model = lp(
            [-0.75, 150.0, -0.02, 6.0],
            [(0.0, None)] * 4,
            [
                ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
                ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
                ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
            ],
        )
        result = solve(model)
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(-0.05, abs=1e-9)


class TestValidation:
    def test_width_mismatch(self):
        with pytest.raises(ModelError):
            lp([1.0, 2.0], [(0, None), (0, None)], [([1.0], "<=", 1.0)])

    def test_bad_relation(self):
        with pytest.raises(ModelError):
            lp([1.0], [(0, None)], [([1.0], "<", 1.0)])

    def test_non_finite_rhs(self):
        with pytest.raises(ModelError):
            lp([1.0], [(0, None)], [([1.0], "<=", np.inf)])

    def test_ragged_constraint_widths(self):
        with pytest.raises(ModelError):
            lp([1.0, 2.0], [(0, None), (0, None)], [([1.0, 1.0], "<=", 1.0), ([1.0], "<=", 1.0)])

    def test_dump_mentions_all_pieces(self):
        model = lp([1.0, -2.0], [(0.0, 1.0), (None, None)], [([1.0, 1.0], "=", 1.0)])
        text = model.dump()
        assert "min" in text and "=" in text and "x1" in text


def random_model(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    objective = rng.integers(-4, 5, size=n).astype(float)
    lower = np.zeros(n)
    upper = np.where(rng.random(n) < 0.5, rng.integers(1, 4, size=n).astype(float), np.inf)
    rows, relations, rhs = [], [], []
    for _ in range(m):
        rows.append(rng.integers(-3, 4, size=n).astype(float))
        relations.append("<=")
        rhs.append(float(rng.integers(0, 6)))
    bounds = [(lo, None if np.isinf(up) else up) for lo, up in zip(lower, upper)]
    model = lp(objective, bounds, list(zip(rows, relations, rhs)))
    return model, (objective, rows, relations, rhs, lower, upper)


class TestAgainstEnumeration:
    def test_random_small_models(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(60):
            model, pieces = random_model(rng)
            objective, rows, relations, rhs, lower, upper = pieces
            result = solve(model)
            if result.status != "optimal":
                # bounded feasible region contains 0, so only unbounded happens
                assert result.status == "unbounded"
                continue
            expected, _ = enumerate_lp_optimum(objective, rows, relations, rhs, lower, upper)
            assert expected is not None
            assert result.objective_value == pytest.approx(expected, abs=1e-8)
            solved += 1
        assert solved >= 20

    def test_weak_duality_against_feasible_samples(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            model, pieces = random_model(rng)
            objective, rows, relations, rhs, lower, upper = pieces
            result = solve(model)
            if result.status != "optimal":
                continue
            for _ in range(200):
                candidate = rng.uniform(0, 3, size=len(objective))
                candidate = np.clip(candidate, lower, np.where(np.isinf(upper), 3, upper))
                feasible = all(
                    np.dot(row, candidate) <= b + 1e-12 for row, b in zip(rows, rhs)
                )
                if feasible:
                    assert result.objective_value <= objective @ candidate + 1e-9

    def test_resolving_is_idempotent(self):
        rng = np.random.default_rng(5)
        model, _ = random_model(rng)
        first = solve(model)
        second = solve(model)
        assert first.status == second.status
        if first.status == "optimal":
            assert abs(first.objective_value - second.objective_value) <= 1e-10
            assert np.array_equal(first.x, second.x)


def loop_standard_form(model):
    """Variable-by-variable and row-by-row rewrite to ``min c @ y, A y <= b, y >= 0``."""
    pieces, shift, caps, k = [], [], [], 0
    for lo, hi in zip(model.lower, model.upper):
        if lo == -np.inf and hi == np.inf:
            pieces.append([(k, 1.0), (k + 1, -1.0)])
            shift.append(0.0)
            k += 2
        elif lo > -np.inf:
            pieces.append([(k, 1.0)])
            shift.append(lo)
            if hi < np.inf:
                caps.append((k, hi - lo))
            k += 1
        else:
            pieces.append([(k, -1.0)])
            shift.append(hi)
            k += 1
    shift = np.array(shift)

    def to_y(row):
        out = np.zeros(k)
        for j, value in enumerate(row):
            for col, sign in pieces[j]:
                out[col] = value * sign
        return out

    rows, rhs = [], []
    for row, rel, b in zip(model.rows, model.relations, model.rhs):
        shifted = b - sum(row[j] * shift[j] for j in range(row.size))
        if rel in ("<=", "="):
            rows.append(to_y(row))
            rhs.append(shifted)
        if rel in (">=", "="):
            rows.append(-to_y(row))
            rhs.append(-shifted)
    for col, cap in caps:
        rows.append(np.eye(k)[col])
        rhs.append(cap)

    def recover(y):
        return np.array([s + sum(sign * y[col] for col, sign in parts)
                         for s, parts in zip(shift, pieces)])

    return np.array(rows).reshape(-1, k), np.array(rhs), to_y(model.objective), recover


class TestStandardForm:
    def test_matches_loop_rewrite(self):
        rng = np.random.default_rng(31)
        kinds = [(0.0, None), (None, None), (None, 2.0), (-1.0, 3.0), (1.5, 1.5), (-2.0, None)]
        for _ in range(30):
            n = int(rng.integers(1, 7))
            bounds = [kinds[i] for i in rng.integers(0, len(kinds), size=n)]
            m = int(rng.integers(0, 5))
            constraints = [
                (rng.normal(size=n), str(rng.choice(["<=", "=", ">="])), float(rng.normal()))
                for _ in range(m)
            ]
            model = lp(rng.normal(size=n), bounds, constraints)
            expected = [
                (-np.inf if lo is None else lo, np.inf if hi is None else hi)
                for lo, hi in bounds
            ]
            assert np.array_equal(np.column_stack([model.lower, model.upper]), expected)
            form = _StandardForm(model)
            rows, rhs, cost, recover = loop_standard_form(model)
            assert np.array_equal(form.A, rows)
            assert np.array_equal(form.c, cost)
            # only the shift products may sum in another order
            np.testing.assert_allclose(form.b, rhs, rtol=1e-12, atol=1e-12)
            y = rng.uniform(0, 2, size=form.A.shape[1])
            np.testing.assert_allclose(form.recover(y), recover(y), rtol=1e-15, atol=1e-15)
