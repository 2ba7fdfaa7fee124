"""Simplex solver behaviour against hand cases and a vertex-enumeration oracle."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from oracles import dense_pivot, enumerate_lp_optimum, reference_run_simplex

from robust_lexrank import LinearProgram, lpsolver, solve
from robust_lexrank.errors import ModelError, NumericError
from robust_lexrank.lpsolver import SPARSE_PIVOT_CELLS, _pivot, _run_simplex, _StandardForm


def lp(objective, bounds, constraints):
    return LinearProgram.build(objective, bounds, constraints)


def beale_model():
    """Beale's instance, on which the most-negative-cost rule cycles."""
    return lp(
        [-0.75, 150.0, -0.02, 6.0],
        [(0.0, None)] * 4,
        [
            ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
            ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
        ],
    )


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

    def test_bounds_only_optimum(self):
        # no rows at all: each variable sits at its cheaper finite bound
        model = lp([2.0, -1.0], [(1.5, None), (None, 2.5)], [])
        result = solve(model)
        assert result.status == "optimal"
        assert result.x == pytest.approx([1.5, 2.5], abs=1e-12)
        assert result.objective_value == pytest.approx(0.5, abs=1e-12)

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

    def test_redundant_equalities(self, monkeypatch):
        # the second equality repeats the first: phase one ends with the
        # auxiliary basic at zero, and it leaves on the first slack in its row
        ends = []
        run = lpsolver._run_simplex

        def recorded(tableau, basis, costs, bland_after):
            status = run(tableau, basis, costs, bland_after)
            ends.append(bool(costs[basis].any()))
            return status

        monkeypatch.setattr(lpsolver, "_run_simplex", recorded)
        model = lp(
            [1.0, 2.0],
            [(0.0, None), (0.0, None)],
            [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0)],
        )
        result = solve(model)
        assert ends[0]
        assert result.status == "optimal"
        assert result.x == pytest.approx([1.0, 0.0], abs=1e-12)

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
        result = solve(beale_model())
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_all_fixed_without_rows(self):
        # an empty tableau: no reduced cost is negative, so it is optimal
        result = solve(lp([1.0], [(1.5, 1.5)], []))
        assert result.status == "optimal"
        assert np.array_equal(result.x, [1.5])
        assert result.objective_value == 1.5

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lpsolver, "HARD_ITERATION_CAP", 1)
        with pytest.raises(NumericError, match="iteration cap"):
            solve(beale_model())


class TestSolutionCheck:
    """The bound check sees the recovered point before any clipping."""

    def model(self):
        return lp([-1.0], [(0.0, 1.0)], [([1.0], "<=", 5.0)])

    def test_out_of_bounds_point_raises(self, monkeypatch):
        monkeypatch.setattr(_StandardForm, "recover", lambda self, y: np.array([2.0]))
        with pytest.raises(NumericError, match="variable bounds"):
            solve(self.model())

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_raises(self, entry):
        model = lp([1.0], [(0.0, 1.0)], [([1.0], "<=", 0.5)])
        with pytest.raises(NumericError, match="^solution violates variable bounds$"):
            lpsolver._check_solution(model, np.array([entry]))

    @pytest.mark.parametrize("relation", ["<=", "=", ">="])
    def test_nan_residual_raises(self, relation):
        # a NaN right-hand side, which only a hand-built model can hold
        model = LinearProgram(
            np.zeros(1), np.zeros(1), np.ones(1), np.ones((1, 1)), (relation,), np.array([np.nan])
        )
        with pytest.raises(NumericError, match="^constraint residual nan exceeds") as raised:
            lpsolver._check_solution(model, np.array([0.5]))
        assert np.isnan(raised.value.gap)

    def test_residue_within_tolerance_is_clipped(self, monkeypatch):
        monkeypatch.setattr(_StandardForm, "recover", lambda self, y: np.array([1.0 + 5e-10]))
        result = solve(self.model())
        assert result.x[0] == 1.0
        assert result.objective_value == -1.0


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

    def test_non_finite_coefficient(self):
        with pytest.raises(ModelError, match="coefficients"):
            lp([1.0, 1.0], [(0, None), (0, None)], [([np.inf, 1.0], "<=", 1.0)])

    @pytest.mark.parametrize(
        "pair", [(10**400, None), (None, -(10**400)), (0, 10**400)], ids=["low", "high", "+high"]
    )
    def test_int_bound_past_the_float_range(self, pair):
        with pytest.raises(ModelError, match="^variable bounds must lie in the float range$"):
            lp([1.0], [pair], [])

    def test_nan_bound(self):
        with pytest.raises(ModelError, match="bounds"):
            lp([1.0], [(np.nan, None)], [([1.0], "<=", 1.0)])
        # infinite bounds stay legal
        model = lp([1.0], [(-np.inf, np.inf)], [([1.0], ">=", 1.0)])
        assert solve(model).objective_value == pytest.approx(1.0)

    def test_lower_bound_of_plus_inf(self):
        with pytest.raises(ModelError, match="lower bounds"):
            lp([1.0], [(np.inf, np.inf)], [])

    def test_upper_bound_of_minus_inf(self):
        with pytest.raises(ModelError, match="upper bounds"):
            lp([1.0], [(-np.inf, -np.inf)], [])

    def test_non_finite_objective(self):
        with pytest.raises(ModelError, match="objective"):
            lp([np.nan], [(0, None)], [([1.0], "<=", 1.0)])

    def test_ragged_constraint_widths(self):
        with pytest.raises(ModelError):
            lp([1.0, 2.0], [(0, None), (0, None)], [([1.0, 1.0], "<=", 1.0), ([1.0], "<=", 1.0)])

    @pytest.mark.parametrize(
        "bound",
        [
            pytest.param((0.0,), id="one-entry"),
            pytest.param(None, id="none"),
            pytest.param((0.0, 1.0, 2.0), id="three-entries"),
            pytest.param(("a", 1.0), id="non-numeric"),
        ],
    )
    def test_malformed_bound(self, bound):
        with pytest.raises(ModelError, match="pair"):
            lp([1.0], [bound], [([1.0], "<=", 1.0)])

    def test_numeric_strings_and_bytes_rejected(self):
        # numpy would read each of these as a number
        with pytest.raises(ModelError):
            lp(["1"], [("0.5", b"2")], [(["1"], "<=", "3")])

    @pytest.mark.parametrize(
        "objective, bound, row, rhs",
        [
            pytest.param(["1"], (0.0, None), [1.0], 1.0, id="string-cost"),
            pytest.param([b"1"], (0.0, None), [1.0], 1.0, id="bytes-cost"),
            pytest.param([True], (0.0, None), [1.0], 1.0, id="bool-cost"),
            pytest.param(np.array([True]), (0.0, None), [1.0], 1.0, id="bool-array-cost"),
            pytest.param([1.0], ("0.5", None), [1.0], 1.0, id="string-bound"),
            pytest.param([1.0], (0.0, b"2"), [1.0], 1.0, id="bytes-bound"),
            pytest.param([1.0], (False, None), [1.0], 1.0, id="bool-bound"),
            pytest.param([1.0], (0.0, None), ["1"], 1.0, id="string-coefficient"),
            pytest.param([1.0], (0.0, None), [np.bool_(True)], 1.0, id="bool-coefficient"),
            pytest.param([1.0], (0.0, None), np.array([True]), 1.0, id="bool-array-row"),
            pytest.param([1.0], (0.0, None), [1.0], "3", id="string-rhs"),
            pytest.param([1.0], (0.0, None), [1.0], True, id="bool-rhs"),
        ],
    )
    def test_non_real_entry_rejected(self, objective, bound, row, rhs):
        with pytest.raises(ModelError):
            lp(objective, [bound], [(row, "<=", rhs)])

    def test_bool_among_floats_rejected(self):
        # numpy would promote the bool to a float alongside the other entries
        with pytest.raises(ModelError, match="objective"):
            lp([True, 1.0], [(0, None)] * 2, [])
        with pytest.raises(ModelError, match="coefficients"):
            lp([1.0, 1.0], [(0, None)] * 2, [([1.0, True], "<=", 1.0)])
        with pytest.raises(ModelError, match="rhs"):
            lp([1.0, 1.0], [(0, None)] * 2, [([1.0, 1.0], "<=", 1.0), ([1.0, 1.0], "<=", True)])

    def test_numpy_scalars_and_ints_accepted(self):
        model = lp(
            np.array([1, 2], dtype=np.int32),
            [(np.float32(0.5), None), (0, np.int64(3))],
            [((np.float64(1.0), 1), ">=", np.int8(2))],
        )
        assert model.objective.dtype == float
        assert solve(model).objective_value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "cost, match",
        [
            pytest.param([1.0], "length", id="short"),
            pytest.param([1.0, 1.0, 1.0], "length", id="long"),
            pytest.param([1.0, np.nan], "finite", id="nan"),
            pytest.param([1.0, np.inf], "finite", id="inf"),
            pytest.param(["1", 1.0], "real", id="string"),
            pytest.param([b"1", 1.0], "real", id="bytes"),
            pytest.param([True, 1.0], "real", id="bool"),
            pytest.param([[1.0, 1.0]], "vector", id="matrix"),
            pytest.param(1.0, "vector", id="scalar"),
        ],
    )
    def test_each_repriced_cost_validated(self, cost, match):
        model = lp([1.0, 1.0], [(0, None)] * 2, [([1.0, 1.0], ">=", 1.0)])
        with pytest.raises(ModelError, match=match):
            solve(model, [[1.0, 2.0], cost])


class TestPivot:
    @pytest.mark.parametrize("rows", [10, 40], ids=["dense", "sparse"])
    def test_matches_dense_update(self, rows):
        # 10 rows fall below the size cut and 40 above it
        width = SPARSE_PIVOT_CELLS // 20
        assert (rows * width < SPARSE_PIVOT_CELLS) == (rows == 10)
        rng = np.random.default_rng(rows)
        tableau = rng.normal(size=(rows, width))
        row, col = 3, 7
        zeros = rng.random(width) < 0.8
        zeros[col] = False
        tableau[row, zeros] = 0.0
        basis = np.arange(rows)
        expected, expected_basis = tableau.copy(), basis.copy()
        dense_pivot(expected, expected_basis, row, col)
        before = tableau.copy()
        _pivot(tableau, basis, row, col)
        assert np.array_equal(tableau, expected)
        assert np.array_equal(basis, expected_basis)
        # a zero in the pivot row leaves its column as it was
        assert np.array_equal(tableau[:, zeros], before[:, zeros])


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
        if lo == hi:
            # a fixed variable is a constant: no column, no cap row
            pieces.append([])
            shift.append(lo)
        elif lo == -np.inf and hi == np.inf:
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

    return np.array(rows).reshape(len(rows), k), np.array(rhs), to_y(model.objective), recover


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
            assert np.array_equal(form._to_y(model.objective), cost)
            # only the shift products may sum in another order
            np.testing.assert_allclose(form.b, rhs, rtol=1e-12, atol=1e-12)
            y = rng.uniform(0, 2, size=form.A.shape[1])
            np.testing.assert_allclose(form.recover(y), recover(y), rtol=1e-15, atol=1e-15)

    def test_fixed_variable_substituted(self):
        # x0 fixed at 0.5 beside a capped x1 and a free x2
        model = lp(
            [1.0, 2.0, -1.0],
            [(0.5, 0.5), (0.0, 1.0), (None, None)],
            [([1.0, 1.0, 1.0], "<=", 2.0), ([2.0, 0.0, -1.0], ">=", -1.0)],
        )
        form = _StandardForm(model)
        # columns x1, x2+, x2-; rows: both constraints, then x1's cap only
        assert form.A.shape == (3, 3)
        assert np.array_equal(form.A[2], [1.0, 0.0, 0.0])
        assert np.array_equal(form.b, [1.5, 2.0, 1.0])
        assert form.recover(np.zeros(3))[0] == 0.5
        result = solve(model)
        assert result.status == "optimal"
        assert result.x[0] == 0.5
        assert result.x[1:] == pytest.approx([0.0, 1.5], abs=1e-12)
        assert result.objective_value == pytest.approx(-1.0, abs=1e-12)

    def test_all_variables_fixed(self):
        model = lp([3.0, 1.0], [(2.0, 2.0), (-1.0, -1.0)], [([1.0, 1.0], "<=", 1.0)])
        assert _StandardForm(model).A.shape == (1, 0)
        result = solve(model)
        assert result.status == "optimal"
        assert np.array_equal(result.x, [2.0, -1.0])
        assert result.objective_value == 5.0

    def test_fixed_variable_breaks_a_row(self):
        # no x1 in [0, 1] makes x0 + x1 <= 1.5 hold with x0 fixed at 2
        model = lp([0.0, 1.0], [(2.0, 2.0), (0.0, 1.0)], [([1.0, 1.0], "<=", 1.5)])
        assert solve(model).status == "infeasible"
        alone = lp([1.0], [(2.0, 2.0)], [([1.0], "<=", 1.0)])
        assert solve(alone).status == "infeasible"


def random_tableau(rng, m, c, density=1.0):
    """A basic feasible tableau on its slack columns; about half its right-hand sides are zero."""
    tableau = np.zeros((m, c + m + 1))
    tableau[:, :c] = rng.integers(-3, 4, size=(m, c)) * (rng.random((m, c)) < density)
    tableau[:, c : c + m] = np.eye(m)
    tableau[:, -1] = np.where(rng.random(m) < 0.5, 0.0, rng.integers(1, 5, size=m))
    costs = np.concatenate([rng.integers(-4, 3, size=c).astype(float), np.zeros(m)])
    return tableau, c + np.arange(m), costs


def random_mixed_model(rng):
    kinds = [(0.0, None), (None, None), (None, 2.0), (-1.0, 3.0), (1.5, 1.5), (0.0, 1.0)]
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    bounds = [kinds[i] for i in rng.integers(0, len(kinds), size=n)]
    constraints = [
        (rng.integers(-3, 4, size=n).astype(float), str(rng.choice(["<=", "=", ">="])),
         float(rng.integers(-3, 4)))
        for _ in range(m)
    ]
    return lp(rng.integers(-4, 5, size=n).astype(float), bounds, constraints)


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs_solve(model):
    """Status and objective of ``model`` from scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    relations = np.array(model.relations)
    sign = np.where(relations == ">=", -1.0, 1.0)
    upper = relations != "="
    result = linprog(
        model.objective,
        A_ub=(model.rows * sign[:, None])[upper],
        b_ub=(model.rhs * sign)[upper],
        A_eq=model.rows[~upper],
        b_eq=model.rhs[~upper],
        bounds=list(zip(model.lower, model.upper)),
        method="highs",
    )
    return HIGHS_STATUS[result.status], result.fun


class TestAgainstHighs:
    def test_random_mixed_models(self):
        # mixed bounds and relations with rhs of either sign reach all three statuses
        rng = np.random.default_rng(31)
        statuses = Counter()
        for _ in range(300):
            model = random_mixed_model(rng)
            expected, value = highs_solve(model)
            result = solve(model)
            assert result.status == expected
            if expected == "optimal":
                assert result.objective_value == pytest.approx(value, abs=1e-8)
            statuses[expected] += 1
        assert min(statuses[s] for s in HIGHS_STATUS.values()) >= 50, statuses


def with_cost(model, cost):
    return dataclasses.replace(model, objective=np.asarray(cost, dtype=float))


class TestRepricedSolve:
    """One tableau and one phase one for a sequence of cost vectors."""

    def test_random_mixed_models_against_highs(self):
        rng = np.random.default_rng(32)
        statuses = Counter()
        unbounded_then_optimal = 0
        for _ in range(300):
            model = random_mixed_model(rng)
            costs = rng.integers(-4, 5, size=(int(rng.integers(3, 6)), model.n_vars)).astype(float)
            results = solve(model, costs)
            assert len(results) == len(costs)
            for cost, result in zip(costs, results):
                expected, value = highs_solve(with_cost(model, cost))
                assert result.status == expected
                if expected == "optimal":
                    assert result.objective_value == pytest.approx(value, abs=1e-8)
                    assert result.objective_value == cost @ result.x
                statuses[expected] += 1
            for before, after in zip(results, results[1:]):
                unbounded_then_optimal += (before.status, after.status) == ("unbounded", "optimal")
        assert min(statuses[s] for s in HIGHS_STATUS.values()) >= 150, statuses
        assert unbounded_then_optimal >= 50

    def test_first_entry_is_the_single_solve(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            model = random_mixed_model(rng)
            costs = [model.objective] + list(rng.integers(-4, 5, size=(2, model.n_vars)))
            first, single = solve(model, costs)[0], solve(model)
            assert (first.status, first.objective_value) == (single.status, single.objective_value)
            assert (first.x is None and single.x is None) or np.array_equal(first.x, single.x)

    def test_beale_instance_repriced_terminates(self):
        # an unbounded cost in the middle leaves a feasible basis behind
        beale = beale_model()
        costs = [beale.objective, [-0.5, 100.0, -0.05, 4.0], [1.0, -2.0, -1.0, 3.0], beale.objective]
        results = solve(beale, costs)
        assert [r.status for r in results] == ["optimal", "optimal", "unbounded", "optimal"]
        for cost, result in zip(costs, results):
            cold = solve(with_cost(beale, cost))
            assert result.status == cold.status
            if cold.status == "optimal":
                assert result.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert results[-1].objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_phase_one_runs_once(self, monkeypatch):
        # phase one prices the auxiliary column, one past the others; each
        # later vector re-prices phase two only
        model = lp([1.0, 1.0], [(0.0, None)] * 2, [([1.0, 1.0], ">=", 1.0)])
        calls = loop_inputs(monkeypatch, model, [[1.0, 2.0], [2.0, 1.0], [-1.0, 0.0]])
        columns = [costs.size for _, _, costs, _ in calls]
        assert columns == [4, 3, 3, 3]

    def test_infeasible_model_makes_every_entry_infeasible(self):
        model = lp([1.0], [(0.0, None)], [([1.0], "<=", -1.0)])
        assert [r.status for r in solve(model, [[1.0], [-1.0]])] == ["infeasible"] * 2
        crossed = lp([1.0], [(2.0, 1.0)], [])
        assert [r.status for r in solve(crossed, [[1.0], [-1.0]])] == ["infeasible"] * 2

    def test_no_cost_vector_gives_no_solution(self):
        model = lp([1.0], [(0.0, None)], [([1.0], "<=", 1.0)])
        assert solve(model, []) == []


def assert_same_pivots(tableau, basis, costs, bland_after):
    """Run the loop and the reference on copies; return the common status."""
    expected, expected_basis = tableau.copy(), basis.copy()
    status = reference_run_simplex(expected, expected_basis, costs, bland_after)
    tableau, basis = tableau.copy(), basis.copy()
    assert _run_simplex(tableau, basis, costs, bland_after) == status
    assert np.array_equal(tableau, expected)
    assert np.array_equal(basis, expected_basis)
    return status


def loop_inputs(monkeypatch, model, objectives=None):
    """Copies of each ``(tableau, basis, costs, bland_after)`` that solving ``model`` loops on."""
    calls = []

    def recorded(tableau, basis, costs, bland_after):
        calls.append((tableau.copy(), basis.copy(), costs.copy(), bland_after))
        return _run_simplex(tableau, basis, costs, bland_after)

    with monkeypatch.context() as patch:
        patch.setattr(lpsolver, "_run_simplex", recorded)
        solve(model, objectives)
    return calls


class TestRunSimplex:
    """The loop pivots exactly as the reference with one branch per rule."""

    def test_random_degenerate_tableaux(self):
        rng = np.random.default_rng(21)
        statuses = Counter()
        for _ in range(100):
            m, c = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            tableau, basis, costs = random_tableau(rng, m, c)
            for bland_after in (0, 1, 3, 2 * (m + c)):
                statuses[assert_same_pivots(tableau, basis, costs, bland_after)] += 1
        assert statuses["optimal"] >= 50 and statuses["unbounded"] >= 50

    def test_tableaux_above_the_sparse_cut(self):
        rng = np.random.default_rng(22)
        for bland_after in (0, 10, 1_000):
            tableau, basis, costs = random_tableau(rng, 40, 500, density=0.2)
            assert tableau.size >= SPARSE_PIVOT_CELLS
            assert_same_pivots(tableau, basis, costs, bland_after)

    def test_phase_one_tableaux_of_random_models(self, monkeypatch):
        rng = np.random.default_rng(23)
        phase_one = 0
        for _ in range(60):
            for tableau, basis, costs, bland_after in loop_inputs(monkeypatch, random_mixed_model(rng)):
                # the auxiliary column in the starting basis marks phase one
                phase_one += bool(costs[basis].any())
                assert_same_pivots(tableau, basis, costs, bland_after)
        assert phase_one >= 20

    def test_phase_one_adds_one_auxiliary_column(self, monkeypatch):
        # both negative right-hand sides share the one auxiliary column
        model = lp(
            [1.0, 1.0],
            [(0.0, None)] * 2,
            [([1.0, 0.0], ">=", 1.0), ([0.0, 1.0], ">=", 2.0), ([1.0, 1.0], "<=", 5.0)],
        )
        form = _StandardForm(model)
        assert np.count_nonzero(form.b < 0) == 2
        m, ny = form.A.shape
        (tableau, *_), _ = loop_inputs(monkeypatch, model)
        assert tableau.shape == (m, ny + m + 2)
        assert solve(model).objective_value == pytest.approx(3.0, abs=1e-12)

    def test_beale_instance_hands_over_to_bland(self, monkeypatch):
        (tableau, basis, costs, bland_after), = loop_inputs(monkeypatch, beale_model())
        pivots = []

        def counted(*args):
            pivots.append(args[2:])
            return _pivot(*args)

        monkeypatch.setattr(lpsolver, "_pivot", counted)
        assert assert_same_pivots(tableau, basis, costs, bland_after) == "optimal"
        assert (len(pivots), bland_after) == (24, 20)

    @pytest.mark.parametrize("cap", [0, 23, 24])
    def test_cap_allows_the_same_pivots(self, monkeypatch, cap):
        # a cap of k allows k + 1 iterations; Beale's instance takes 24
        # pivots and a 25th iteration that finds it optimal
        (tableau, basis, costs, bland_after), = loop_inputs(monkeypatch, beale_model())
        monkeypatch.setattr(lpsolver, "HARD_ITERATION_CAP", cap)
        if cap >= 24:
            assert assert_same_pivots(tableau, basis, costs, bland_after) == "optimal"
            return
        expected, expected_basis = tableau.copy(), basis.copy()
        with pytest.raises(NumericError, match="iteration cap"):
            reference_run_simplex(expected, expected_basis, costs, bland_after)
        with pytest.raises(NumericError, match="iteration cap"):
            _run_simplex(tableau, basis, costs, bland_after)
        assert np.array_equal(tableau, expected)
        assert np.array_equal(basis, expected_basis)
