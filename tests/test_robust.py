"""Robust ranking programs: structure, reductions, and cross-solver checks."""

import dataclasses

import numpy as np
import pytest

from conftest import random_stochastic, uniform_budget
from oracles import (
    decomposition_rank_optimum,
    dense_pivot,
    highs,
    substituted_comparative_program,
    unclamped_rank_program,
)

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
    solve_robust_budgets,
    to_transition,
    worst_case_upper_bound,
)
from robust_lexrank import lpsolver, robust
from robust_lexrank.errors import NumericError, ParameterError, SolverError
from robust_lexrank.lpsolver import _StandardForm
from robust_lexrank.robust import OBJECTIVE_IDENTITY_TOL


# The uneven model splits its new columns differently between the two blocks.
GROWTH_MODELS = [GrowthModel.balanced(3), GrowthModel([0.2, 0.5, 0.5])]


def growth_support_set(to_col):
    """Total and caps of the new block's support set, from the paper's definition.

    The per-column split is ``to_col`` into the existing sentences and
    ``1 - to_col`` among the new ones; each block total is the sum of its
    caps. The support set adds one per column (and m in total) for the new
    rows' unit mass.
    """
    to_col = np.asarray(to_col, dtype=float)
    among_col = 1.0 - to_col
    m = to_col.size
    return to_col.sum() + among_col.sum() + m, to_col + among_col + 1.0


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
        # (x1, s, t, u): the new block has no columns, solve_growth prices it
        assert program.n_vars == 3 * n + 1
        # residual rows, the simplex row, one support row per x1 entry
        assert program.n_rows == 3 * n + 1

    def test_growth_model_prices_new_block_on_fixed_rows(self):
        rng = np.random.default_rng(5)
        n = 4
        p = TransitionMatrix(random_stochastic(n, rng))
        budget = RobustBudget(0.7, rng.uniform(0.0, 0.5, size=n))
        fixed = build_robust_program(p, budget)
        base = solve_robust(p, budget)
        for growth in GROWTH_MODELS:
            m = growth.m
            grown = build_growth_program(p, budget, growth)
            for field in ("objective", "lower", "upper", "rows", "rhs"):
                assert np.array_equal(getattr(grown, field), getattr(fixed, field)), field
            assert grown.relations == fixed.relations
            # the new block costs 2 per unit of mass, whatever its split
            on_new = np.concatenate([np.zeros(n), np.full(m, 1.0 / m)])
            assert worst_case_upper_bound(on_new, p, budget, growth) == pytest.approx(2.0)
            on_fixed = np.concatenate([base.x1.values, np.zeros(m)])
            assert worst_case_upper_bound(on_fixed, p, budget, growth) == pytest.approx(
                base.objective, abs=1e-8
            )

    def test_comparative_model_shape(self):
        rng = np.random.default_rng(8)
        n = 5
        p = TransitionMatrix(random_stochastic(n, rng))
        budget = RobustBudget(0.5, rng.uniform(0.0, 1.0, size=n))
        for pinned in (1, 3, n):
            program = build_robust_program(p, budget, pinned=pinned)
            # (x, s, t, w, u of the generated sentences), the pinned
            # coordinates fixed at one
            assert program.n_vars == 3 * n - pinned + 2
            fixed = program.lower == program.upper
            assert fixed.sum() == pinned
            assert np.all(fixed[:pinned]) and np.all(program.lower[:pinned] == 1.0)
            # the budget's clamped form: each cap at most eps1, eps1 at most
            # the caps' sum, and w, which costs what the pinned excesses it
            # replaces cost together, at most eps1
            caps = np.minimum(budget.eps_col, budget.eps_total)
            eps1 = min(budget.eps_total, caps.sum())
            assert program.objective[2 * n] == eps1
            assert program.objective[2 * n + 1] == min(caps[:pinned].sum(), eps1)
            assert np.array_equal(program.objective[2 * n + 2 :], caps[pinned:])
            # residual rows in both directions, the verified block's one
            # support row t + w >= 1, and one support row per generated x
            assert program.n_rows == 3 * n - pinned + 1
            assert program.relations[2 * n] == ">=" and program.rhs[2 * n] == 1.0
            assert np.flatnonzero(program.rows[2 * n]).tolist() == [2 * n, 2 * n + 1]
            # the fixed coordinates take no column and no cap row; the free
            # ones' [0, 1] boxes add one cap row each
            form = _StandardForm(program)
            assert form.A.shape == (3 * n - pinned + 1 + n - pinned, 3 * n - 2 * pinned + 2)

    def test_comparative_standard_form_matches_substitution(
        self, transition_01, transition_02, transition_03
    ):
        cases = solve_cases((transition_01, transition_02, transition_03), [0.01, 5.0])
        wide = random_adjacency(70, 0.1, np.random.default_rng(71))
        cases.append((to_transition(AdjacencyMatrix(wide, 0.0)), uniform_budget(70, 0.01)))
        for p, budget in cases:
            n = p.size
            for pinned in sorted({1, n // 2, n - 1, n}):
                model = build_robust_program(p, budget, pinned=pinned)
                reference_model = substituted_comparative_program(
                    p.values, budget.eps_total, budget.eps_col, pinned
                )
                form, reference = _StandardForm(model), _StandardForm(reference_model)
                assert np.array_equal(form.A, reference.A), (n, pinned)
                assert np.array_equal(
                    form._to_y(model.objective), reference._to_y(reference_model.objective)
                ), (n, pinned)
                # only the pinned right-hand sides may sum in another order
                np.testing.assert_allclose(form.b, reference.b, rtol=0.0, atol=1e-15)

    def test_every_solve_builds_through_the_public_builder(self, transition_01, monkeypatch):
        calls = []

        def counting(p, budget, pinned=None):
            calls.append(pinned)
            return build_robust_program(p, budget, pinned)

        monkeypatch.setattr(robust, "build_robust_program", counting)
        budget = uniform_budget(11, 0.01)
        for run, pinned in (
            (lambda: solve_robust(transition_01, budget), None),
            (lambda: solve_growth(transition_01, budget, GrowthModel.balanced(2)), None),
            (lambda: comparative_rank(transition_01, 6, budget), 6),
        ):
            calls.clear()
            run()
            assert calls == [pinned]

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
        support = box_l1_support(result.x1.values, uniform_budget(n, 2.0)).value
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
            assert highs(program) == ("optimal", pytest.approx(ours, abs=1e-8))

    def test_objective_identity(self, transition_02):
        budget = uniform_budget(11, 0.7)
        result = solve_robust(transition_02, budget)
        residual = np.abs(transition_02.values @ result.x1.values - result.x1.values).sum()
        support = box_l1_support(result.x1.values, budget).value
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


def solve_cases(cluster, eps_values):
    """The cluster matrices at each uniform budget, then every adversarial case."""
    cases = [(p, uniform_budget(p.size, eps)) for p in cluster for eps in eps_values]
    for case in adversarial_cases():
        adjacency, eps1, eps_col = case.values
        cases.append((to_transition(AdjacencyMatrix(adjacency, 0.0)), RobustBudget(eps1, eps_col)))
    return cases


# The cluster's first budget breakpoint at threshold 0.2 (see test_02 in test_acceptance).
BREAKPOINT_02 = 341 / 33


def sweep_cases():
    """The cluster at threshold 0.2 and the disconnected, isolated and duplicate graphs."""
    cases = [pytest.param(None, id="cluster-0.2")]
    for case in adversarial_cases():
        if case.id in ("disconnected", "isolated", "duplicate"):
            cases.append(pytest.param(case.values[0], id=case.id))
    return cases


def budget_sweep(n):
    """Zero, small, either side of the breakpoint, and past saturation at 4 (n - 1)."""
    return [0.0, 0.01, BREAKPOINT_02 * (1 - 1e-6), BREAKPOINT_02 * (1 + 1e-6), 4 * n + 1.0]


def sweep_transition(adjacency, transition_02):
    return transition_02 if adjacency is None else to_transition(AdjacencyMatrix(adjacency, 0.0))


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

        for growth in GROWTH_MODELS:
            total, caps = growth_support_set(growth.to_existing_col)
            grown_reference = decomposition_rank_optimum(
                p.values, eps1, eps_col, growth=(growth.m, total, caps)
            )
            # Both terms are positively homogeneous, so the growth optimum is
            # the cheaper of the fixed optimum and the new block's simplex
            # minimum, 2 for every growth model: HiGHS on the growth
            # decomposition form confirms it. It is the fixed objective in
            # every case here but the budget above 4 (n - 1), where the
            # optimum leaves the existing block empty and there are no ranks.
            block_min = total * simplex_decomposition_min(growth.m, caps / total)
            assert block_min == pytest.approx(2.0, abs=1e-12)
            assert grown_reference == pytest.approx(min(reference, block_min), abs=1e-8)
            if eps1 < 4 * (n - 1):
                grown = solve_growth(p, budget, growth).objective
                assert grown == pytest.approx(grown_reference, abs=1e-8)
            else:
                with pytest.raises(SolverError):
                    solve_growth(p, budget, growth)

        # the pinned coordinates are constants of the model; with all n
        # pinned no free coordinate is left
        for pinned in (1, n // 2, n - 1, n):
            comparative = comparative_rank(p, pinned, budget)
            assert comparative.objective == pytest.approx(
                decomposition_rank_optimum(p.values, eps1, eps_col, pinned=pinned), abs=1e-8
            ), pinned
            scores = comparative.reported.scores
            assert np.all(scores[:pinned] == 1.0), pinned
            assert np.all((scores[pinned:] >= 0.0) & (scores[pinned:] <= 1.0)), pinned

    @pytest.mark.parametrize("adjacency", sweep_cases())
    def test_budget_sweeps_match(self, adjacency, transition_02):
        pytest.importorskip("scipy.optimize")
        p = sweep_transition(adjacency, transition_02)
        eps_values = budget_sweep(p.size)
        results = solve_robust_budgets(p, [uniform_budget(p.size, eps) for eps in eps_values])
        for eps, result in zip(eps_values, results):
            reference = decomposition_rank_optimum(p.values, eps, np.full(p.size, eps))
            assert result.objective == pytest.approx(reference, abs=1e-8), eps


class TestSolveRobustBudgets:
    """One model re-priced across budgets against a cold solve per budget."""

    @pytest.mark.parametrize("adjacency", sweep_cases())
    def test_each_budget_matches_its_cold_solve(self, adjacency, transition_02):
        p = sweep_transition(adjacency, transition_02)
        for order in (1, -1):
            eps_values = budget_sweep(p.size)[::order]
            budgets = [uniform_budget(p.size, eps) for eps in eps_values]
            results = solve_robust_budgets(p, budgets)
            assert len(results) == len(budgets)
            for eps, budget, result in zip(eps_values, budgets, results):
                cold = solve_robust(p, budget)
                assert result.objective == pytest.approx(cold.objective, abs=1e-9), eps
                bound = worst_case_upper_bound(result.x1.values, p, budget)
                assert abs(bound - result.objective) <= OBJECTIVE_IDENTITY_TOL, eps
                assert result.x1.values.sum() == pytest.approx(1.0, abs=1e-12)
                assert result.reported.normalized.max() == 1.0

    def test_breakpoint_bracketed_on_the_cluster(self, transition_02):
        # below the breakpoint the objective is linear in the budget; past
        # it the optimum leaves that line
        below, above = solve_robust_budgets(
            transition_02, [uniform_budget(11, BREAKPOINT_02 * s) for s in (1 - 1e-6, 1 + 1e-6)]
        )
        small = solve_robust(transition_02, uniform_budget(11, 1.0)).objective
        assert below.objective == pytest.approx(small * BREAKPOINT_02 * (1 - 1e-6), rel=1e-9)
        assert above.objective < small * BREAKPOINT_02 * (1 + 1e-6)

    def test_one_model_for_every_budget(self, transition_01, monkeypatch):
        builds, solves = [], []

        def counting_build(p, budget, pinned=None):
            builds.append(pinned)
            return build_robust_program(p, budget, pinned)

        def counting_solve(program, objectives=None):
            solves.append(objectives)
            return lpsolver.solve(program, objectives)

        monkeypatch.setattr(robust, "build_robust_program", counting_build)
        monkeypatch.setattr(robust, "solve", counting_solve)
        solve_robust_budgets(transition_01, [uniform_budget(11, eps) for eps in (0.01, 5.0, 10.0)])
        assert builds == [None]
        assert len(solves) == 1 and len(solves[0]) == 3

    def test_budget_list_validated(self, transition_01):
        with pytest.raises(ParameterError):
            solve_robust_budgets(transition_01, [])
        with pytest.raises(ParameterError):
            solve_robust_budgets(transition_01, [uniform_budget(11, 0.1), uniform_budget(10, 0.1)])
        with pytest.raises(ParameterError):
            solve_robust_budgets(transition_01, [uniform_budget(10, 0.1), uniform_budget(11, 0.1)])


def solve_counting_pivots(program, kernel, monkeypatch):
    """Solve ``program`` pivoting with ``kernel``: the solution and each pivot's tableau size."""
    sizes = []

    def counted(tableau, basis, row, col):
        sizes.append(tableau.size)
        kernel(tableau, basis, row, col)

    monkeypatch.setattr(lpsolver, "_pivot", counted)
    return lpsolver.solve(program), sizes


class TestPivotKernel:
    """The column-sparse pivot against the dense rank-one update, bit for bit."""

    @pytest.mark.parametrize("model", ["fixed", "pinned"])
    def test_matches_dense_pivot(
        self, model, monkeypatch, transition_01, transition_02, transition_03
    ):
        cases = solve_cases((transition_01, transition_02, transition_03), [0.01])
        wide = random_adjacency(70, 0.1, np.random.default_rng(70))
        cases.append((to_transition(AdjacencyMatrix(wide, 0.0)), uniform_budget(70, 0.01)))
        package_pivot = lpsolver._pivot
        sizes = []
        for p, budget in cases:
            pinned = p.size // 2 if model == "pinned" else None
            program = build_robust_program(p, budget, pinned)
            dense, dense_sizes = solve_counting_pivots(program, dense_pivot, monkeypatch)
            sparse, sparse_sizes = solve_counting_pivots(program, package_pivot, monkeypatch)
            assert sparse_sizes == dense_sizes, p.size
            assert sparse.status == dense.status == "optimal"
            assert np.array_equal(sparse.x, dense.x), p.size
            assert np.array_equal(np.signbit(sparse.x), np.signbit(dense.x)), p.size
            assert sparse.objective_value == dense.objective_value, p.size
            sizes += sparse_sizes
        # both branches of the kernel ran
        assert min(sizes) < lpsolver.SPARSE_PIVOT_CELLS <= max(sizes)


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

    def test_growth_solve_is_one_fixed_solve(
        self, monkeypatch, transition_01, transition_02, transition_03
    ):
        cases = solve_cases((transition_01, transition_02, transition_03), [0.01, 5.0])
        solves = []

        def counted(program, objectives=None):
            solves.append(program)
            return lpsolver.solve(program, objectives)

        monkeypatch.setattr(robust, "solve", counted)
        for p, budget in cases:
            base = solve_robust(p, budget)
            for m in (0, 1, 2, 5, 10):
                solves.clear()
                # with no new block there is nothing to price
                if m > 0 and base.objective > 2.0:
                    with pytest.raises(SolverError):
                        solve_growth(p, budget, GrowthModel.balanced(m))
                else:
                    grown = solve_growth(p, budget, GrowthModel.balanced(m))
                    assert np.array_equal(grown.x1.values, base.x1.values)
                    assert np.array_equal(grown.x2, np.zeros(m))
                    assert grown.objective == base.objective
                assert len(solves) == 1

    def test_growth_model_validation(self):
        growth = GrowthModel([0.2, 0.5, 1.0])
        assert growth.m == 3
        assert np.array_equal(growth.among_new_col, [0.8, 0.5, 0.0])
        assert growth.to_existing_total + growth.among_new_total == pytest.approx(3.0)
        for to_col in ([0.5, 1.2], [-0.1], 0.5, [[0.5]]):
            with pytest.raises(ParameterError):
                GrowthModel(to_col)
        with pytest.raises(ParameterError):
            GrowthModel.balanced(-1)

    @pytest.mark.parametrize(
        "to_col",
        [
            pytest.param([np.nan], id="nan"),
            pytest.param([0.5, np.nan], id="nan-cap"),
            pytest.param([np.inf], id="inf-cap"),
            pytest.param([-np.inf, 0.5], id="minus-inf-cap"),
        ],
    )
    def test_non_finite_growth_budgets_rejected(self, to_col):
        with pytest.raises(ParameterError, match="^growth budgets must be finite$"):
            GrowthModel(np.array(to_col))


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
        reference = highs(LinearProgram.build(program.objective, list(zip(lower, upper)), keep))
        assert reference == ("optimal", pytest.approx(result.objective, abs=1e-8))
        assert result.reported.scores[2] <= 1.0 + 1e-12

    def test_generated_never_beats_verified(self, transition_01):
        result = comparative_rank(transition_01, 8, uniform_budget(11, 0.01))
        scores = result.reported.scores
        assert scores[:8] == pytest.approx(np.ones(8), abs=1e-12)
        assert np.all(scores[8:] <= 1.0 + 1e-12)
        assert np.all(scores[8:] >= -1e-12)

    def test_objective_identity_failure_raises(self, transition_01, monkeypatch):
        def off_by_one(program, objectives=None):
            return [
                dataclasses.replace(solution, objective_value=solution.objective_value + 1.0)
                for solution in solve(program, objectives)
            ]

        monkeypatch.setattr(robust, "solve", off_by_one)
        with pytest.raises(NumericError):
            comparative_rank(transition_01, 8, uniform_budget(11, 0.01))

    @pytest.mark.parametrize("eps1", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("v", [2, 4, 11])
    def test_verified_price_past_the_float_range(self, transition_01, eps1, v):
        # the verified caps sum past the float range, but clamped to eps1
        # first they price the folded excess w at eps1, a finite price (the
        # suite turns numpy's overflow warning into an error); any price at or
        # above eps1 gives the optimum that verified caps lowered to eps1 give
        budget = RobustBudget.broadcast(11, eps1, 1e308)
        result = comparative_rank(transition_01, v, budget)
        caps = np.full(11, 1e308)
        caps[:v] = eps1
        lowered = comparative_rank(transition_01, v, RobustBudget(eps1, caps))
        assert abs(result.objective - lowered.objective) <= 1e-12 * abs(lowered.objective)
        program = build_robust_program(transition_01, budget, v)
        w = 2 * 11 + 1  # after x, s and t
        assert program.objective[w] == eps1
        assert (program.lower[w], program.upper[w]) == (0.0, np.inf)

    def test_verified_count_validated(self, transition_01):
        with pytest.raises(ParameterError):
            comparative_rank(transition_01, 0, uniform_budget(11, 1.0))
        with pytest.raises(ParameterError):
            comparative_rank(transition_01, 12, uniform_budget(11, 1.0))


def verified_block_budgets(n, v, rng):
    """Budgets that stress the verified block's one support row, by name.

    Zero and uneven caps on the verified block, and caps whose sum over it
    exceeds the total budget, so that ``t >= 1`` and ``w = 0``: once at a
    small total and once past saturation at 4 (n - 1).
    """
    zero = rng.uniform(0.0, 0.5, size=n)
    zero[:v] = 0.0
    uneven = rng.uniform(0.0, 0.5, size=n)
    uneven[: v : 2] = 0.0
    return {
        "zero-verified-caps": RobustBudget(0.3, zero),
        "uneven-caps": RobustBudget(0.7, uneven),
        "caps-above-total": RobustBudget(0.2, np.full(n, 0.5)),
        "saturated": RobustBudget(4.0 * n, np.full(n, 4.0 * n + 1.0)),
    }


def comparative_graphs():
    rng = np.random.default_rng(34)
    disconnected = np.zeros((9, 9))
    disconnected[:5, :5] = random_adjacency(5, 0.7, rng)
    disconnected[5:, 5:] = random_adjacency(4, 0.7, rng)
    return [
        pytest.param(random_adjacency(12, 0.3, rng), id="random-12"),
        pytest.param(disconnected, id="disconnected-9"),
        pytest.param(random_adjacency(30, 0.15, rng), id="random-30"),
    ]


class TestComparativeModel:
    """The comparative model, whose v pinned support rows are one row ``t + w >= 1``."""

    @pytest.mark.parametrize("adjacency", comparative_graphs())
    def test_matches_decomposition_form(self, adjacency):
        pytest.importorskip("scipy.optimize")
        p = to_transition(AdjacencyMatrix(adjacency, 0.0))
        n = p.size
        for v in sorted({1, 2, n // 2, n}):
            for name, budget in verified_block_budgets(n, v, np.random.default_rng(v)).items():
                result = comparative_rank(p, v, budget)
                reference = decomposition_rank_optimum(
                    p.values, budget.eps_total, budget.eps_col, pinned=v
                )
                assert result.objective == pytest.approx(reference, abs=1e-8), (v, name)
                scores = result.reported.scores
                assert np.all(scores[:v] == 1.0), (v, name)
                assert np.all((scores[v:] >= 0.0) & (scores[v:] <= 1.0)), (v, name)

    @pytest.mark.parametrize("adjacency", comparative_graphs())
    def test_verified_row_slack_when_caps_exceed_total(self, adjacency):
        # below the verified caps' sum the total is the cheaper price: t
        # covers the pinned coordinates and w = max(0, 1 - t) is zero
        p = to_transition(AdjacencyMatrix(adjacency, 0.0))
        n = p.size
        for v in sorted({1, n // 2, n}):
            for name in ("caps-above-total", "saturated"):
                budget = verified_block_budgets(n, v, np.random.default_rng(v))[name]
                solution = solve(build_robust_program(p, budget, pinned=v))
                assert solution.status == "optimal"
                t, w = solution.x[2 * n], solution.x[2 * n + 1]
                assert t >= 1.0 - 1e-12 and w == 0.0, (v, name, t, w)

    @pytest.mark.parametrize("adjacency", comparative_graphs())
    def test_repriced_solves_match_separate_solves(self, adjacency):
        # one comparative model re-priced for each budget, against one
        # comparative_rank per budget: the re-priced costs keep the pinned
        # layout. A re-priced solve starts from the previous optimal vertex,
        # so where the optimum is not unique it may end on another optimal
        # point; each point must still attain its budget's optimum.
        p = to_transition(AdjacencyMatrix(adjacency, 0.0))
        n = p.size
        for v in sorted({1, n // 2, n}):
            budgets = list(verified_block_budgets(n, v, np.random.default_rng(v)).values())
            budgets.insert(1, uniform_budget(n, 0.01))
            for order in (1, -1):
                runs = robust._solve_rank(p, budgets[::order], pinned=v)
                for k, (budget, (x, objective)) in enumerate(zip(budgets[::order], runs)):
                    alone = comparative_rank(p, v, budget)
                    assert objective == pytest.approx(alone.objective, rel=1e-12, abs=1e-12), v
                    assert robust._bound(p, budget, x) == pytest.approx(objective, abs=1e-9), v
                    assert np.all(x[:v] == 1.0) and np.all((x >= 0.0) & (x <= 1.0)), v
                    if k == 0:  # the first budget's solve is the cold one
                        assert np.array_equal(x, alone.reported.scores), v


def clamp_budgets(n, v, rng):
    """Budgets on which the clamps of the rank model's prices bind, by name.

    Caps above the total, the verified ones summing to 0.4, below it, so
    that only the caps' clamp binds while a generated cap is left; a total
    above the caps' sum; verified caps summing past the total; and verified
    caps summing past the float range, once with the caps' clamp binding too
    and once alone, under a total of 1.5e308. ``v`` is the number of pinned
    coordinates, 0 for none.
    """
    above = rng.uniform(0.6, 3.0, size=n)
    above[:v] = 0.4 / n
    verified = np.arange(n) < v
    return {
        "caps-above-total": RobustBudget(0.5, above),
        "total-above-caps": RobustBudget(0.5, rng.uniform(0.0, 0.4 / n, size=n)),
        "verified-past-total": RobustBudget(0.5, np.full(n, 0.3)),
        "verified-past-float-range": RobustBudget(0.3, np.where(verified, 1e308, 0.2)),
        "verified-sum-past-float-range": RobustBudget(1.5e308, np.where(verified, 1e308, 0.01)),
    }


def clamp_binds(budget, pinned):
    """Whether clamping changes any price of the rank model, from plain sums."""
    caps, eps1 = budget.eps_col.tolist(), budget.eps_total
    verified_past_total = pinned is not None and sum(caps[:pinned]) > eps1
    return max(caps) > eps1 or eps1 > sum(caps) or verified_past_total


class TestExactClamps:
    """Caps above the total, a total above the caps' sum, and verified caps
    summing past the total leave the budget set as it is, so the clamped
    prices give every unclamped optimum."""

    @pytest.mark.parametrize("adjacency, eps1, eps_col", adversarial_cases())
    def test_clamped_optimum_is_the_unclamped_one(self, adjacency, eps1, eps_col):
        pytest.importorskip("scipy.optimize")
        p = to_transition(AdjacencyMatrix(adjacency, 0.0))
        n = p.size
        for pinned in [None] + sorted({1, 2, n // 2, n}):
            v = pinned or 0
            budgets = {"own": RobustBudget(eps1, eps_col)}
            budgets.update(clamp_budgets(n, v, np.random.default_rng(v)))
            for name, budget in budgets.items():
                label = (pinned, name)
                program = build_robust_program(p, budget, pinned)
                raw = unclamped_rank_program(program, budget.eps_total, budget.eps_col, pinned)
                # the raw prices bit for bit where no clamp binds, other ones where one does
                same = np.array_equal(program.objective, raw.objective)
                assert same == (not clamp_binds(budget, pinned)), label
                clamped, unclamped = solve(program), solve(raw)
                assert clamped.status == unclamped.status == "optimal", label
                objective = clamped.objective_value
                scale = max(1.0, abs(unclamped.objective_value))
                assert abs(objective - unclamped.objective_value) <= 1e-12 * scale, label
                # HiGHS reads a cost of 1e20 or more as infinite, so it cannot
                # price a total of 1.5e308; the unclamped solve covers that one
                if budget.eps_total < 1e20:
                    reference = decomposition_rank_optimum(
                        p.values, budget.eps_total, budget.eps_col, pinned=pinned
                    )
                    assert abs(objective - reference) <= 1e-8 * max(1.0, abs(reference)), label


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
        support = box_l1_support(ranks.values, budget).value
        assert value == pytest.approx(support, abs=1e-10)

    def test_budget_scaling_is_affine(self, transition_02):
        base = uniform_budget(11, 0.8)
        x = np.full(11, 1 / 11)
        values = [
            worst_case_upper_bound(
                x, transition_02, RobustBudget(base.eps_total * c, base.eps_col * c)
            )
            for c in (0.0, 1.0, 2.0)
        ]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], abs=1e-10)

    def test_off_simplex_rejected(self, transition_01):
        with pytest.raises(ParameterError):
            worst_case_upper_bound(np.full(11, 0.2), transition_01, uniform_budget(11, 1.0))
