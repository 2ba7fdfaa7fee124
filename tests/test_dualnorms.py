"""Support functions, decomposition norms, and their duality identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerated_box_l1_max, sampled_box_l1_max, sampled_box_l2_max

from robust_lexrank import (
    BudgetedBox,
    box_l1_support,
    box_l2_support,
    decomposition_norm,
    decomposition_norm_l2,
    frobenius_worst_case,
    simplex_decomposition_min,
    weighted_decomposition_norm,
)
from robust_lexrank.errors import DegenerateBudgetError, ParameterError


def box(total, cols):
    return BudgetedBox(total, np.asarray(cols, dtype=float))


class TestBoxL1Support:
    def test_known_allocation(self):
        certificate = box_l1_support(np.array([3.0, 1.0]), box(1.5, [1.0, 1.0]))
        assert certificate.value == pytest.approx(3.5, abs=1e-12)
        assert certificate.z == pytest.approx([1.0, 0.5], abs=1e-12)

    def test_zero_vector(self):
        certificate = box_l1_support(np.zeros(3), box(2.0, [1.0, 1.0, 1.0]))
        assert certificate.value == 0.0

    def test_box_binds_everywhere(self):
        certificate = box_l1_support(np.array([1.0, 2.0]), box(10.0, [1.0, 1.0]))
        assert certificate.value == pytest.approx(3.0, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            x = rng.normal(size=n) * 2
            b = box(rng.uniform(0, 3), rng.uniform(0, 2, size=n))
            expected = enumerated_box_l1_max(x, b.eps_total, b.eps_col)
            assert box_l1_support(x, b).value == pytest.approx(expected, abs=1e-12)

    def test_dominates_sampled_feasible_points(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        b = box(1.7, rng.uniform(0, 1, size=5))
        sampled = sampled_box_l1_max(x, b.eps_total, b.eps_col, 20_000, rng)
        assert box_l1_support(x, b).value >= sampled - 1e-12

    def test_zero_cap_forces_zero_coordinate(self):
        certificate = box_l1_support(np.array([5.0, 1.0]), box(3.0, [0.0, 1.0]))
        assert certificate.z[0] == 0.0

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.floats(0, 4),
        st.floats(0.001, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_positive_homogeneity(self, values, scale, total):
        x = np.array(values)
        b = box(total, np.full(x.size, 0.7))
        direct = box_l1_support(scale * x, b).value
        assert direct == pytest.approx(scale * box_l1_support(x, b).value, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_budgets(self, values, total, bump):
        x = np.array(values)
        small = box(total, np.full(x.size, 0.5))
        bigger_total = box(total + bump, np.full(x.size, 0.5))
        bigger_cols = box(total, np.full(x.size, 0.5 + bump))
        base = box_l1_support(x, small).value
        assert box_l1_support(x, bigger_total).value >= base - 1e-12
        assert box_l1_support(x, bigger_cols).value >= base - 1e-12


class TestDecompositionNorm:
    def test_known_value(self):
        result = decomposition_norm(np.array([3.0, 1.0]), box(1.5, [1.0, 1.0]))
        assert result.value == pytest.approx(3.5 / 1.5, abs=1e-9)

    def test_basis_vector_with_wide_box(self):
        x = np.array([1.0, 0.0, 0.0])
        result = decomposition_norm(x, box(1.0, [2.0, 2.0, 2.0]))
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.lam == pytest.approx(x, abs=1e-9)
        assert result.mu == pytest.approx(np.zeros(3), abs=1e-9)

    def test_zero_vector(self):
        result = decomposition_norm(np.zeros(4), box(2.0, [1.0] * 4))
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_zero_budget_rejected(self):
        with pytest.raises(DegenerateBudgetError):
            decomposition_norm(np.ones(2), box(0.0, [1.0, 1.0]))

    def test_split_reconstructs_input(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        result = decomposition_norm(x, box(1.2, rng.uniform(0.1, 2, size=5)))
        assert result.lam + result.mu == pytest.approx(x, abs=1e-9)

    def test_duality_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n) * rng.uniform(0.5, 3)
            b = box(rng.uniform(1e-6, 3), rng.uniform(0, 3, size=n))
            support = box_l1_support(x, b).value
            value = decomposition_norm(x, b).value
            assert b.eps_total * value == pytest.approx(support, abs=1e-8)


class TestBoxL2Support:
    def test_ball_binds_single_axis(self):
        certificate = box_l2_support(np.array([1.0, 0.0]), box(0.5, [2.0, 2.0]))
        assert certificate.value == pytest.approx(0.5, abs=1e-9)
        assert certificate.z == pytest.approx([0.5, 0.0], abs=1e-9)

    def test_box_binds(self):
        certificate = box_l2_support(np.array([1.0, 1.0]), box(10.0, [1.0, 1.0]))
        assert certificate.value == pytest.approx(2.0, abs=1e-12)

    def test_matches_sampling_and_refinement_oracle(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(23)
        for _ in range(12):
            x = rng.normal(size=4)
            b = box(rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.5, size=4))
            sampled, z0 = sampled_box_l2_max(x, b.eps_total, b.eps_col, 50_000, rng)
            refined = scipy_optimize.minimize(
                lambda z: -z @ x,
                z0,
                bounds=[(-c, c) for c in b.eps_col],
                constraints=[
                    {"type": "ineq", "fun": lambda z: b.eps_total**2 - z @ z}
                ],
                method="SLSQP",
            )
            oracle = max(sampled, -float(refined.fun))
            assert box_l2_support(x, b).value == pytest.approx(oracle, abs=1e-6)

    def test_certificate_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=n)
            b = box(rng.uniform(0, 2), rng.uniform(0, 2, size=n))
            certificate = box_l2_support(x, b)
            assert np.linalg.norm(certificate.z) <= b.eps_total + 1e-9
            assert np.all(np.abs(certificate.z) <= b.eps_col + 1e-9)


class TestDecompositionNormL2:
    def test_zero_vector(self):
        assert decomposition_norm_l2(np.zeros(3), box(1.0, [1.0] * 3)) == 0.0

    def test_single_axis_case(self):
        value = decomposition_norm_l2(np.array([1.0, 0.0]), box(0.5, [2.0, 2.0]))
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_duality_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=n) * rng.uniform(0.3, 2)
            b = box(rng.uniform(0.05, 2.5), rng.uniform(0.0, 2.5, size=n))
            value = decomposition_norm_l2(x, b)
            support = box_l2_support(x, b).value
            assert value == pytest.approx(support, abs=1e-6)


class TestFrobeniusWorstCase:
    def test_known_value(self):
        best = frobenius_worst_case(np.array([1.0, 0.0]), [np.array([0.0, 3.0])], [2.0])
        assert best.value == pytest.approx(7.0, abs=1e-12)

    def test_no_blocks(self):
        best = frobenius_worst_case(np.array([3.0, 4.0]), [], [])
        assert best.value == pytest.approx(5.0, abs=1e-12)

    def test_zero_center_uses_unit_direction(self):
        best = frobenius_worst_case(np.zeros(3), [np.array([2.0, 0.0])], [1.5])
        assert best.value == pytest.approx(3.0, abs=1e-12)
        attained = best.maximizers[0] @ np.array([2.0, 0.0])
        assert np.linalg.norm(attained) == pytest.approx(3.0, abs=1e-12)

    def test_monte_carlo_domination(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a0 = rng.normal(size=3)
            directions = [rng.normal(size=int(rng.integers(1, 4))) for _ in range(2)]
            radii = rng.uniform(0, 2, size=2)
            best = frobenius_worst_case(a0, directions, radii)
            for _ in range(1000):
                total = a0.copy()
                for radius, direction in zip(radii, directions):
                    xi = rng.normal(size=(a0.size, direction.size))
                    norm = np.linalg.norm(xi)
                    if norm > 0:
                        xi *= rng.uniform(0, radius) / norm
                    total = total + xi @ direction
                assert np.linalg.norm(total) <= best.value + 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            frobenius_worst_case(np.ones(2), [np.ones(2)], [-1.0])


class TestWeightedDecompositionNorm:
    def test_basis_vector_unit_weights(self):
        result = weighted_decomposition_norm(np.array([1.0, 0.0, 0.0]), np.ones(3))
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_uniform_point_small_weights(self):
        m = 4
        result = weighted_decomposition_norm(np.full(m, 1 / m), np.full(m, 1 / m))
        assert result.value == pytest.approx(1 / m, abs=1e-9)

    def test_zero_vector(self):
        result = weighted_decomposition_norm(np.zeros(3), np.full(3, 0.5))
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ParameterError):
            weighted_decomposition_norm(np.ones(2), np.array([0.5, -0.5]))


RECOVERY_CASES = [
    pytest.param(np.array([1.5, -2.0, 0.3, -0.1, 0.0]), 1.2,
                 np.array([0.5, 0.0, 1.0, 0.0, 0.3]), id="mixed-sign-zero-caps"),
    pytest.param(np.array([-0.4, 0.4, -3.0, 2.5]), 2.0,
                 np.array([0.7, 0.7, 0.2, 1.5]), id="mixed-sign"),
    pytest.param(np.zeros(4), 1.0, np.array([0.0, 0.5, 1.0, 0.0]), id="zero-vector"),
    pytest.param(np.array([0.0, -1.0, 2.0]), 0.5, np.zeros(3), id="all-caps-zero"),
]


class TestDecompositionRecovery:
    """The split returned with each norm value: sum, value, and support duality."""

    @staticmethod
    def assert_split(result, x, weights):
        np.testing.assert_allclose(result.lam + result.mu, x, rtol=0, atol=1e-12)
        split_value = np.abs(result.lam).max(initial=0.0) + weights @ np.abs(result.mu)
        assert split_value == pytest.approx(result.value, abs=1e-9)

    @pytest.mark.parametrize("x, total, caps", RECOVERY_CASES)
    def test_decomposition_norm_split(self, x, total, caps):
        budget = box(total, caps)
        result = decomposition_norm(x, budget)
        self.assert_split(result, x, caps / total)
        support = box_l1_support(x, budget).value
        assert total * result.value == pytest.approx(support, abs=1e-9)

    @pytest.mark.parametrize("x, total, caps", RECOVERY_CASES)
    def test_weighted_decomposition_norm_split(self, x, total, caps):
        result = weighted_decomposition_norm(x, caps)
        self.assert_split(result, x, caps)
        support = box_l1_support(x, box(1.0, caps)).value
        assert result.value == pytest.approx(support, abs=1e-9)


class TestSimplexDecompositionMin:
    def test_uniform_weights(self):
        assert simplex_decomposition_min(3, np.full(3, 1 / 3)) == pytest.approx(1 / 3, abs=1e-12)

    def test_small_weight_branch(self):
        value = simplex_decomposition_min(3, np.array([0.2, 0.5, 0.6]))
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_single_point_simplex(self):
        assert simplex_decomposition_min(1, np.array([1.3])) == pytest.approx(1.0, abs=1e-12)

    def test_empty_simplex_convention(self):
        assert simplex_decomposition_min(0, np.zeros(0)) == 0.0

    def test_agrees_with_direct_minimization(self):
        # the closed form is asserted against the joint LP inside the call
        rng = np.random.default_rng(64)
        for m in range(1, 7):
            for _ in range(8):
                weights = rng.uniform(0, 2, size=m)
                value = simplex_decomposition_min(m, weights)
                expected = 1 / m if np.all(weights >= 1 / m) else weights.min()
                assert value == pytest.approx(expected, abs=1e-12)
