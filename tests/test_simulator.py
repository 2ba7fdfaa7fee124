"""Perturbation sampling, set membership, and empirical bound domination."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import random_stochastic
from oracles import reference_perturbation

from robust_lexrank import (
    BudgetedBox,
    GrowthModel,
    PerturbationSample,
    TransitionMatrix,
    UncertaintySet,
    empirical_max_residual,
    fixed_size_residual_check,
    power_iteration,
    residual,
    sample_fixed_size_shift,
    sample_perturbation,
    solve_robust,
    worst_case_upper_bound,
)
from robust_lexrank.errors import ParameterError, SetDefinitionError


def make_uset(n, m, eps_xi=0.3, eps_xi_col=0.2, eps_psi=0.3, eps_psi_col=0.2):
    return UncertaintySet(
        existing=BudgetedBox.uniform(n, eps_xi, eps_xi_col),
        new_rows=BudgetedBox.uniform(n, eps_psi, eps_psi_col),
        growth=GrowthModel.balanced(m),
    )


class TestSamplePerturbation:
    def test_zero_budgets_no_growth_reproduces_matrix(self):
        p = TransitionMatrix(np.eye(3))
        uset = make_uset(3, 0, eps_xi=0.0, eps_xi_col=0.0, eps_psi=0.0, eps_psi_col=0.0)
        sample = sample_perturbation(p, uset, seed=1)
        assert np.array_equal(sample.grown, p.values)

    def test_every_sample_is_column_stochastic(self):
        rng = np.random.default_rng(6)
        p = TransitionMatrix(random_stochastic(4, rng))
        uset = make_uset(4, 2)
        for seed in range(50):
            sample = sample_perturbation(p, uset, seed=seed)
            assert sample.grown.min() >= 0.0
            assert np.abs(sample.grown.sum(axis=0) - 1.0).max() <= 1e-12

    def test_budget_membership_recomputed_independently(self):
        rng = np.random.default_rng(10)
        p = TransitionMatrix(random_stochastic(4, rng))
        uset = make_uset(4, 2)
        for seed in range(1000):
            s = sample_perturbation(p, uset, seed=seed)
            # independent recomputation of every norm in the membership conditions
            assert np.abs(s.existing_delta).sum(axis=0).max() <= uset.existing.eps_col.max() + 1e-9
            assert np.abs(s.existing_delta).sum() <= uset.existing.eps_total + 1e-9
            assert np.abs(s.new_rows).sum(axis=0).max() <= uset.new_rows.eps_col.max() + 1e-9
            assert np.abs(s.new_rows).sum() <= uset.new_rows.eps_total + 1e-9
            for j in range(uset.m):
                assert np.abs(s.new_cols[:, j]).sum() <= uset.growth.to_existing_col[j] + 1e-9
                assert np.abs(s.new_corner[:, j]).sum() <= uset.growth.among_new_col[j] + 1e-9
            assert np.all(s.existing_delta >= -p.values - 1e-15)
            assert s.new_rows.min() >= 0 and s.new_cols.min() >= 0 and s.new_corner.min() >= 0
            # paired column sums: what leaves the existing block enters the new rows
            shift = s.existing_delta.sum(axis=0) + s.new_rows.sum(axis=0)
            assert np.abs(shift).max() <= 1e-12
            grown_cols = s.new_cols.sum(axis=0) + s.new_corner.sum(axis=0)
            if uset.m:
                assert np.abs(grown_cols - 1.0).max() <= 1e-12

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        p = TransitionMatrix(random_stochastic(5, rng))
        uset = make_uset(5, 3)
        first = sample_perturbation(p, uset, seed=99)
        second = sample_perturbation(p, uset, seed=99)
        assert np.array_equal(first.grown, second.grown)

    @pytest.mark.parametrize(
        "n, m, eps_total, eps_col",
        [
            pytest.param(4, 0, 0.3, np.full(4, 0.2), id="no-growth"),
            pytest.param(4, 1, 0.3, np.full(4, 0.2), id="one-new"),
            pytest.param(5, 3, 0.3, np.full(5, 0.2), id="three-new"),
            pytest.param(4, 2, 0.3, np.array([0.0, 0.2, 0.0, 0.3]), id="zero-caps"),
            pytest.param(5, 2, 0.05, np.full(5, 0.4), id="binding-total"),
            pytest.param(4, 2, 50.0, np.full(4, 5.0), id="caps-above-2"),
        ],
    )
    def test_matches_per_column_reference(self, n, m, eps_total, eps_col):
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(n + m)))
        box = BudgetedBox(eps_total, eps_col)
        uset = UncertaintySet(existing=box, new_rows=box, growth=GrowthModel.balanced(m))
        for seed in range(5):
            sample = sample_perturbation(p, uset, seed=seed)
            expected = reference_perturbation(p.values, uset, np.random.default_rng(seed))
            actual = (
                sample.existing_delta,
                sample.new_rows,
                sample.new_cols,
                sample.new_corner,
                sample.grown,
            )
            for got, want in zip(actual, expected):
                assert np.array_equal(got, want)
            # zero-cap columns are skipped, a binding total scales the masses
            # down to it, and caps above 2 clip at a unit mass per column
            skipped = eps_col == 0.0
            assert not sample.existing_delta[:, skipped].any()
            assert not sample.new_rows[:, skipped].any()
            if eps_total == 0.05:
                assert np.abs(sample.existing_delta).sum() == pytest.approx(eps_total, abs=1e-12)
            if eps_col.max() > 2.0:
                assert np.abs(sample.existing_delta).sum(axis=0).max() <= 1.0

    def test_inconsistent_growth_split_rejected(self):
        growth = GrowthModel(2, 1.5, 0.5, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        uset = UncertaintySet(
            existing=BudgetedBox.uniform(3, 0.1, 0.1),
            new_rows=BudgetedBox.uniform(3, 0.1, 0.1),
            growth=growth,
        )
        with pytest.raises(SetDefinitionError):
            sample_perturbation(TransitionMatrix(np.eye(3)), uset, seed=0)


def uneven_growth_uset(to_existing_total):
    """Two new columns with caps of one half each and uneven block totals."""
    half = np.full(2, 0.5)
    growth = GrowthModel(2, to_existing_total, 2.0 - to_existing_total, half, half)
    box = BudgetedBox.uniform(3, 0.3, 0.2)
    return UncertaintySet(existing=box, new_rows=box, growth=growth)


class TestWithinBudgets:
    """Each block breaches its column cap, or its total, on its own."""

    # (block, uncertainty set): every column cap is below the block total
    # and the caps add up to more than it, so each breach comes alone.
    CASES = [
        ("existing_delta", make_uset(3, 2)),
        ("new_rows", make_uset(3, 2)),
        ("new_cols", uneven_growth_uset(0.8)),
        ("new_corner", uneven_growth_uset(1.2)),
    ]

    @staticmethod
    def quiet_sample(n, m):
        zeros = np.zeros
        grown = np.full((n + m, n + m), 1.0 / (n + m))
        return PerturbationSample(zeros((n, n)), zeros((m, n)), zeros((n, m)), zeros((m, m)), grown)

    @staticmethod
    def caps_of(block, uset):
        return {
            "existing_delta": uset.existing.eps_col,
            "new_rows": uset.new_rows.eps_col,
            "new_cols": uset.growth.to_existing_col,
            "new_corner": uset.growth.among_new_col,
        }[block]

    @pytest.mark.parametrize("block, uset", CASES, ids=[c[0] for c in CASES])
    def test_column_cap_breach(self, block, uset):
        quiet = self.quiet_sample(3, 2)
        assert quiet.within_budgets(uset)
        values = np.zeros_like(getattr(quiet, block))
        values[0, 0] = self.caps_of(block, uset)[0] + 0.01
        sign = -1.0 if block == "existing_delta" else 1.0
        assert not dataclasses.replace(quiet, **{block: sign * values}).within_budgets(uset)

    @pytest.mark.parametrize("block, uset", CASES, ids=[c[0] for c in CASES])
    def test_total_breach(self, block, uset):
        quiet = self.quiet_sample(3, 2)
        values = np.zeros_like(getattr(quiet, block))
        values[0, :] = 0.99 * self.caps_of(block, uset)
        sign = -1.0 if block == "existing_delta" else 1.0
        assert not dataclasses.replace(quiet, **{block: sign * values}).within_budgets(uset)

    def test_no_growth_passes(self):
        uset = make_uset(3, 0)
        assert self.quiet_sample(3, 0).within_budgets(uset)
        p = TransitionMatrix(random_stochastic(3, np.random.default_rng(3)))
        assert sample_perturbation(p, uset, seed=0).within_budgets(uset)


class TestResidual:
    def test_eigenvector_residual_zero(self, transition_01):
        ranks = power_iteration(transition_01)
        assert residual(transition_01.values, ranks.values) <= 1e-12

    def test_identity_matrix(self):
        assert residual(np.eye(4), np.array([0.1, 0.2, 0.3, 0.4])) == 0.0

    def test_swap_matrix(self):
        assert residual(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            residual(np.eye(3), np.ones(2))


class TestEmpiricalMaxResidual:
    def test_zero_budget_at_eigenvector(self, transition_01):
        uset = make_uset(11, 0, eps_xi=0.0, eps_xi_col=0.0, eps_psi=0.0, eps_psi_col=0.0)
        ranks = power_iteration(transition_01)
        report = empirical_max_residual(transition_01, ranks.values, uset, 50, seed=3)
        assert report.max_residual <= 1e-12
        assert report.violations == 0
        assert report.bound_value >= 0.0

    def test_robust_solution_never_violates(self, transition_01):
        uset = make_uset(11, 2)
        result = solve_robust(transition_01, uset.to_robust_budget())
        report = empirical_max_residual(transition_01, result.x1.values, uset, 1000, seed=4)
        assert report.violations == 0
        assert report.max_residual <= report.bound_value + 1e-9

    def test_uniform_candidate_never_violates(self, transition_02):
        uset = make_uset(11, 3)
        report = empirical_max_residual(transition_02, np.full(11, 1 / 11), uset, 1000, seed=5)
        assert report.violations == 0

    def test_shorter_candidate_is_zero_extended(self):
        rng = np.random.default_rng(20)
        p = TransitionMatrix(random_stochastic(3, rng))
        uset = make_uset(3, 2)
        x = np.array([0.5, 0.25, 0.25])
        report = empirical_max_residual(p, x, uset, 10, seed=6)
        padded = np.concatenate([x, np.zeros(2)])
        assert report.bound_value == pytest.approx(
            worst_case_upper_bound(padded, p, uset.to_robust_budget(), uset.growth), abs=1e-12
        )


class TestFixedSizeShifts:
    def test_zero_budget_reduces_to_plain_residual(self, transition_01):
        box = BudgetedBox.uniform(11, 0.0, 0.0)
        x = np.full(11, 1 / 11)
        report = fixed_size_residual_check(transition_01, x, box, 20, seed=7)
        base = residual(transition_01.values, x)
        assert report.max_fixed_residual == pytest.approx(base, abs=1e-12)
        assert report.grown_max_residual == pytest.approx(base, abs=1e-12)
        assert report.passed

    def test_shifted_matrices_stay_column_stochastic(self):
        rng = np.random.default_rng(8)
        p = TransitionMatrix(random_stochastic(5, rng))
        box = BudgetedBox.uniform(5, 0.6, 0.3)
        for seed in range(200):
            xi = sample_fixed_size_shift(p, box, seed=seed)
            assert np.abs(xi.sum(axis=0)).max() <= 1e-12
            shifted = p.values + xi
            assert shifted.min() >= -1e-15
            assert np.abs(xi).sum(axis=0).max() <= box.eps_col.max() + 1e-12
            assert np.abs(xi).sum() <= box.eps_total + 1e-12

    def test_eigenvector_report_passes(self, transition_01):
        box = BudgetedBox.uniform(11, 0.4, 0.2)
        ranks = power_iteration(transition_01)
        report = fixed_size_residual_check(transition_01, ranks.values, box, 300, seed=9)
        assert report.passed
        assert report.max_fixed_residual <= report.bound_value + 1e-9

    def test_exhaustive_grid_small_matrix(self):
        # every paired one-column shift on a grid, all columns jointly
        p = np.array(
            [
                [0.6, 0.2, 0.2],
                [0.2, 0.6, 0.2],
                [0.2, 0.2, 0.6],
            ]
        )
        transition = TransitionMatrix(p)
        box = BudgetedBox.uniform(3, 0.9, 0.3)
        x = np.array([0.5, 0.3, 0.2])
        bound = worst_case_upper_bound(x, transition, make_uset(3, 0, 0.9, 0.3, 0.0, 0.0).to_robust_budget())
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        column_options = []
        for j in range(3):
            options = [np.zeros(3)]
            for gain, lose in pairs:
                for mass_fraction in (0.5, 1.0):
                    mass = mass_fraction * min(box.eps_col[j] / 2, p[lose, j])
                    column = np.zeros(3)
                    column[gain] += mass
                    column[lose] -= mass
                    options.append(column)
            column_options.append(options)
        worst_seen = 0.0
        for combo in itertools.product(*column_options):
            xi = np.column_stack(combo)
            if np.abs(xi).sum() > box.eps_total + 1e-12:
                continue
            value = residual(p + xi, x)
            worst_seen = max(worst_seen, value)
            assert value <= bound + 1e-9
        assert worst_seen > 0.0
