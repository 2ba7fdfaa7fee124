"""Robust ranking programs: structure, reductions, and cross-solver checks."""

import dataclasses

import numpy as np
import pytest

from conftest import random_stochastic
from oracles import decomposition_rank_optimum

from robust_lexrank import (
    AdjacencyMatrix,
    GrowthModel,
    RobustBudget,
    TransitionMatrix,
    box_l1_support,
    build_growth_program,
    build_robust_program,
    comparative_rank,
    power_iteration,
    simplex_decomposition_min,
    solve,
    solve_growth,
    solve_robust,
    to_transition,
    worst_case_upper_bound,
)
from robust_lexrank import robust
from robust_lexrank.errors import NumericError, ParameterError, SolverError


def uniform_budget(n, eps):
    return RobustBudget.broadcast(n, eps, eps)


def scipy_reference_solve(program):
    """Cross-check oracle: the same model through an unrelated solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rel, rhs in zip(program.rows, program.relations, program.rhs):
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif rel == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [
        (None if lo == -np.inf else lo, None if hi == np.inf else hi)
        for lo, hi in zip(program.lower, program.upper)
    ]
    result = linprog(
        program.objective,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    assert result.status == 0
    return result.fun


class TestProgramStructure:
    def test_two_sentence_model_has_seven_variables_and_rows(self):
        program = build_robust_program(
            TransitionMatrix(np.eye(2)), uniform_budget(2, 1.0)
        )
        # (x, s, t, u): 3n+1 variables
        assert program.n_vars == 3 * 2 + 1
        # residual rows in both directions, the simplex row, one support row per x
        assert program.n_rows == 3 * 2 + 1

    def test_growth_model_shape(self):
        n, m = 3, 2
        program = build_growth_program(
            TransitionMatrix(np.eye(n)), uniform_budget(n, 1.0), GrowthModel.balanced(m)
        )
        # (x1, x2, s, t, u, t2, u2)
        assert program.n_vars == 3 * n + 2 * m + 2
        # residual rows, the simplex row, one support row per x1 and per x2 entry
        assert program.n_rows == 3 * n + m + 1

    def test_budget_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            build_robust_program(TransitionMatrix(np.eye(3)), uniform_budget(2, 1.0))

    def test_zero_growth_program_identical_to_fixed(self):
        p = TransitionMatrix(np.eye(3))
        budget = uniform_budget(3, 0.5)
        fixed = build_robust_program(p, budget)
        grown = build_growth_program(p, budget, GrowthModel.balanced(0))
        assert np.array_equal(fixed.objective, grown.objective)
        assert np.array_equal(fixed.rows, grown.rows)


class TestSolveRobust:
    def test_zero_budget_recovers_eigenvector(self, transition_01):
        result = solve_robust(transition_01, uniform_budget(11, 0.0))
        assert result.objective <= 1e-9
        residual = np.abs(
            transition_01.values @ result.x1.values - result.x1.values
        ).sum()
        assert residual <= 1e-9

    def test_identity_matrix_gives_uniform(self):
        n = 5
        result = solve_robust(TransitionMatrix(np.eye(n)), uniform_budget(n, 2.0))
        assert np.allclose(result.x1.values, 1 / n, atol=1e-9)
        support = box_l1_support(result.x1.values, uniform_budget(n, 2.0).box()).value
        assert result.objective == pytest.approx(support, abs=1e-9)

    def test_small_budget_solution_on_cluster(self, transition_01, cluster_corpus):
        result = solve_robust(transition_01, uniform_budget(11, 0.01), cluster_corpus.ids)
        # zero-residual point: a stationary vector of the reducible chain
        residual = np.abs(transition_01.values @ result.x1.values - result.x1.values).sum()
        assert residual <= 1e-9
        assert result.reported.normalized.max() == 1.0

    def test_objective_matches_reference_solver(self, transition_01, transition_02):
        for transition, eps in ((transition_01, 0.01), (transition_01, 5.0), (transition_02, 10.0)):
            program = build_robust_program(transition, uniform_budget(11, eps))
            ours = solve_robust(transition, uniform_budget(11, eps)).objective
            assert ours == pytest.approx(scipy_reference_solve(program), abs=1e-8)

    def test_objective_identity(self, transition_02):
        budget = uniform_budget(11, 0.7)
        result = solve_robust(transition_02, budget)
        residual = np.abs(transition_02.values @ result.x1.values - result.x1.values).sum()
        support = box_l1_support(result.x1.values, budget.box()).value
        assert result.objective == pytest.approx(residual + support, abs=1e-7)


def random_adjacency(n, density, rng):
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T | np.eye(n, dtype=bool)).astype(float)


def adversarial_cases():
    """Graphs and budgets that stress the model, each with n <= 60."""
    rng = np.random.default_rng(2509)
    disconnected = np.zeros((12, 12))
    disconnected[:7, :7] = random_adjacency(7, 0.6, rng)
    disconnected[7:, 7:] = random_adjacency(5, 0.6, rng)
    isolated = random_adjacency(10, 0.5, rng)
    isolated[3, :] = isolated[:, 3] = 0.0
    isolated[3, 3] = 1.0
    duplicate = random_adjacency(9, 0.4, rng)
    duplicate[1, :] = duplicate[0, :]
    duplicate[:, 1] = duplicate[:, 0]
    duplicate[[0, 1], [1, 0]] = duplicate[0, 0] = duplicate[1, 1] = 1.0
    mixed_caps = np.tile([0.0, 0.5], 6)
    cases = [
        ("disconnected", disconnected, 0.3, np.full(12, 0.3)),
        ("isolated", isolated, 0.5, np.full(10, 0.5)),
        ("duplicate", duplicate, 0.2, np.full(9, 0.2)),
        ("zero-budget", random_adjacency(15, 0.3, rng), 0.0, np.zeros(15)),
        ("above-4(n-1)", random_adjacency(10, 0.4, rng), 37.5, np.full(10, 37.5)),
        ("zero-caps", random_adjacency(12, 0.4, rng), 1.0, np.zeros(12)),
        ("mixed-caps", random_adjacency(12, 0.4, rng), 0.8, mixed_caps),
        ("sparse-60", random_adjacency(60, 0.08, rng), 0.01, np.full(60, 0.01)),
    ]
    return [pytest.param(a, e, c, id=name) for name, a, e, c in cases]


class TestAgainstDecompositionForm:
    """The compact models against the decomposition form of the same objective."""

    @pytest.mark.parametrize("adjacency, eps1, eps_col", adversarial_cases())
    def test_objectives_match(self, adjacency, eps1, eps_col):
        pytest.importorskip("scipy.optimize")
        p = to_transition(AdjacencyMatrix(adjacency, 0.0))
        n = p.size
        budget = RobustBudget(eps1, eps_col)
        reference = decomposition_rank_optimum(p.values, eps1, eps_col)
        assert solve_robust(p, budget).objective == pytest.approx(reference, abs=1e-8)

        growth = GrowthModel.balanced(3)
        if eps1 < 4 * (n - 1):
            grown = solve_growth(p, budget, growth).objective
        else:
            # The optimum leaves the existing block empty, so there are no
            # ranks to report; the model itself still has its optimum.
            with pytest.raises(SolverError):
                solve_growth(p, budget, growth)
            grown = solve(build_growth_program(p, budget, growth)).objective_value
        grown_reference = decomposition_rank_optimum(
            p.values, eps1, eps_col, growth=(growth.m, growth.ball_total, growth.ball_col)
        )
        assert grown == pytest.approx(grown_reference, abs=1e-8)
        # Both terms are positively homogeneous, so the growth optimum is the
        # cheaper of the fixed optimum and the new block's simplex minimum
        # (2 for balanced growth): it equals the fixed objective in every
        # case here but the budget above 4 (n - 1).
        block_min = growth.ball_total * simplex_decomposition_min(
            growth.m, growth.ball_col / growth.ball_total
        )
        assert grown == pytest.approx(min(reference, block_min), abs=1e-8)
        if eps1 < 4 * (n - 1):
            assert grown == pytest.approx(reference, abs=1e-8)

        pinned = n // 2
        comparative = comparative_rank(p, pinned, budget).objective
        assert comparative == pytest.approx(
            decomposition_rank_optimum(p.values, eps1, eps_col, pinned=pinned), abs=1e-8
        )


class TestGrowthIndependence:
    def test_cluster_optimum_ignores_growth(self, transition_01):
        budget = uniform_budget(11, 0.01)
        base = solve_robust(transition_01, budget)
        for m in (1, 2, 5):
            grown = solve_growth(transition_01, budget, GrowthModel.balanced(m))
            assert np.abs(grown.x2).sum() <= 1e-7
            assert grown.objective == pytest.approx(base.objective, abs=1e-7)

    def test_random_matrix_optimum_ignores_growth(self):
        rng = np.random.default_rng(17)
        p = TransitionMatrix(random_stochastic(4, rng))
        budget = uniform_budget(4, 0.3)
        base = solve_robust(p, budget)
        for m in (1, 2, 5):
            grown = solve_growth(p, budget, GrowthModel.balanced(m))
            assert np.abs(grown.x2).sum() <= 1e-7
            assert grown.objective == pytest.approx(base.objective, abs=1e-7)

    def test_growth_model_validation(self):
        with pytest.raises(ParameterError):
            GrowthModel(2, 1.0, 1.0, np.array([0.5, 0.7]), np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            GrowthModel(1, 1.0, 1.0, np.array([0.5]), np.array([0.5]))


class TestComparativeRank:
    def test_all_verified_pins_everything(self):
        p = TransitionMatrix(np.eye(3))
        result = comparative_rank(p, 3, uniform_budget(3, 0.5))
        assert result.reported.scores == pytest.approx(np.ones(3), abs=1e-12)
        assert result.simplex_point == pytest.approx(np.full(3, 1 / 3), abs=1e-12)

    def test_block_isolated_generated_sentence(self):
        p = TransitionMatrix(
            np.array(
                [
                    [0.5, 0.5, 0.0],
                    [0.5, 0.5, 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
        )
        budget = uniform_budget(3, 0.5)
        result = comparative_rank(p, 2, budget)
        program = build_robust_program(p, budget)
        lower = program.lower.copy()
        upper = program.upper.copy()
        lower[:2] = 1.0
        upper[:3] = 1.0
        from robust_lexrank import LinearProgram

        keep = [
            (row, rel, rhs)
            for row, rel, rhs in zip(program.rows, program.relations, program.rhs)
            if rel != "="
        ]
        reference = scipy_reference_solve(
            LinearProgram.build(program.objective, list(zip(lower, upper)), keep)
        )
        assert result.objective == pytest.approx(reference, abs=1e-8)
        assert result.reported.scores[2] <= 1.0 + 1e-12

    def test_generated_never_beats_verified(self, transition_01):
        result = comparative_rank(transition_01, 8, uniform_budget(11, 0.01))
        scores = result.reported.scores
        assert scores[:8] == pytest.approx(np.ones(8), abs=1e-12)
        assert np.all(scores[8:] <= 1.0 + 1e-12)
        assert np.all(scores[8:] >= -1e-12)

    def test_objective_identity_failure_raises(self, transition_01, monkeypatch):
        def off_by_one(program):
            solution = solve(program)
            return dataclasses.replace(solution, objective_value=solution.objective_value + 1.0)

        monkeypatch.setattr(robust, "solve", off_by_one)
        with pytest.raises(NumericError):
            comparative_rank(transition_01, 8, uniform_budget(11, 0.01))

    def test_verified_count_validated(self, transition_01):
        with pytest.raises(ParameterError):
            comparative_rank(transition_01, 0, uniform_budget(11, 1.0))
        with pytest.raises(ParameterError):
            comparative_rank(transition_01, 12, uniform_budget(11, 1.0))


class TestWorstCaseUpperBound:
    def test_robust_solution_reproduces_objective(self, transition_01):
        budget = uniform_budget(11, 0.4)
        result = solve_robust(transition_01, budget)
        value = worst_case_upper_bound(result.x1.values, transition_01, budget)
        assert value == pytest.approx(result.objective, abs=1e-9)

    def test_padded_solution_adds_nothing(self, transition_01):
        budget = uniform_budget(11, 0.4)
        result = solve_robust(transition_01, budget)
        padded = np.concatenate([result.x1.values, np.zeros(3)])
        value = worst_case_upper_bound(padded, transition_01, budget, GrowthModel.balanced(3))
        assert value == pytest.approx(result.objective, abs=1e-9)

    def test_eigenvector_leaves_only_norm_term(self, transition_01):
        budget = uniform_budget(11, 0.9)
        ranks = power_iteration(transition_01)
        value = worst_case_upper_bound(ranks.values, transition_01, budget)
        support = box_l1_support(ranks.values, budget.box()).value
        assert value == pytest.approx(support, abs=1e-10)

    def test_budget_scaling_is_affine(self, transition_02):
        base = uniform_budget(11, 0.8)
        x = np.full(11, 1 / 11)
        values = [
            worst_case_upper_bound(x, transition_02, base.scaled(c)) for c in (0.0, 1.0, 2.0)
        ]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], abs=1e-10)

    def test_off_simplex_rejected(self, transition_01):
        with pytest.raises(ParameterError):
            worst_case_upper_bound(np.full(11, 0.2), transition_01, uniform_budget(11, 1.0))
