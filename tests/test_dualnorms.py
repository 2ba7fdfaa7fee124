"""Support functions, decomposition norms, and their duality identities."""

import builtins
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    compensated_sum,
    decomposition_lp,
    enumerated_box_l1_max,
    reference_box_l1_greedy,
    reference_box_l1_support,
    reference_box_l2_support,
    reference_decomposition_norm,
    reference_decomposition_norm_l2,
    reference_frobenius_worst_case,
    sampled_box_l1_max,
    sampled_box_l2_max,
    simplex_minimum_lp,
)

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
from robust_lexrank import dualnorms, lpsolver, robust
from robust_lexrank.errors import DegenerateBudgetError, NumericError, ParameterError


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

    def test_matches_numpy_loop_bit_for_bit(self):
        # ties, zero entries, zero caps and binding totals
        rng = np.random.default_rng(44)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = np.round(rng.normal(size=n) * 2) * rng.choice([1.0, 0.1])
            caps = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0, 2, size=n))
            b = box(rng.choice([rng.uniform(0, 3), caps.sum(), 0.0]), caps)
            certificate = box_l1_support(x, b)
            expected = reference_box_l1_greedy(x, b.eps_total, b.eps_col)
            assert np.array_equal(certificate.z, expected)
            assert np.array_equal(np.signbit(certificate.z), np.signbit(expected))
            assert certificate.value == float(expected @ x)

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


def test_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(31)
    for size in range(40):
        v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9)
        assert dualnorms._norm(v) == np.linalg.norm(v)
    assert dualnorms._norm(np.float64(-3.0)) == 3.0


class TestBoxL2Support:
    def test_ball_binds_single_axis(self):
        certificate = box_l2_support(np.array([1.0, 0.0]), box(0.5, [2.0, 2.0]))
        assert certificate.value == pytest.approx(0.5, abs=1e-9)
        assert certificate.z == pytest.approx([0.5, 0.0], abs=1e-9)

    def test_box_binds(self):
        certificate = box_l2_support(np.array([1.0, 1.0]), box(10.0, [1.0, 1.0]))
        assert certificate.value == pytest.approx(2.0, abs=1e-12)
        assert certificate.clamped
        # the fully clamped point lies strictly inside the ball
        certificate = box_l2_support(np.array([1.0, -2.0]), box(1.0, [0.5, 0.5]))
        assert certificate.value == pytest.approx(1.5, abs=1e-14)
        assert certificate.z == pytest.approx([0.5, -0.5], abs=1e-14)
        assert certificate.clamped
        assert not box_l2_support(np.array([1.0, -2.0]), box(0.6, [0.5, 0.5])).clamped

    def test_one_clamped_coordinate_exact(self):
        # z = (1, sqrt(3)): the first coordinate clamps, the second takes the rest of the ball
        certificate = box_l2_support(np.array([3.0, 4.0]), box(2.0, [1.0, 10.0]))
        assert certificate.value == pytest.approx(3.0 + 4.0 * np.sqrt(3.0), abs=1e-14)
        assert certificate.z == pytest.approx([1.0, np.sqrt(3.0)], abs=1e-14)

    def test_zero_total_budget(self):
        certificate = box_l2_support(np.array([1.0, -2.0, 0.5]), box(0.0, [1.0, 1.0, 1.0]))
        assert certificate.value == 0.0
        assert np.all(certificate.z == 0.0)

    def test_zero_entry_gets_no_budget(self):
        # the ray through (0, 3, 4) meets the sphere of radius 5 before any cap
        certificate = box_l2_support(np.array([0.0, 3.0, 4.0]), box(5.0, [2.0, 10.0, 10.0]))
        assert certificate.value == pytest.approx(25.0, abs=1e-14)
        assert certificate.z == pytest.approx([0.0, 3.0, 4.0], abs=1e-14)

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
        assert decomposition_norm_l2(np.zeros(3), box(1.0, [1.0] * 3)).value == 0.0

    def test_single_axis_case(self):
        value = decomposition_norm_l2(np.array([1.0, 0.0]), box(0.5, [2.0, 2.0])).value
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_duality_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=n) * rng.uniform(0.3, 2)
            b = box(rng.uniform(0.05, 2.5), rng.uniform(0.0, 2.5, size=n))
            value = decomposition_norm_l2(x, b).value
            support = box_l2_support(x, b).value
            assert value == pytest.approx(support, abs=1e-6)

    @pytest.mark.parametrize(
        "x, total, caps, expected",
        [
            # an ordinary instance on which a capped coordinate descent never settled
            pytest.param(
                [1.0504331194603869, 0.8668281763733094, -2.9306559071081226,
                 2.49033255600089, -0.24881021003907974, -1.1091043775295955],
                2.9981121739234613,
                [1.614172288609879, 0.9776563819668163, 0.35391060573368693,
                 0.5618868762735005, 0.6686709680439824, 2.1301688145539237],
                7.50846724033104,
                id="six-entries",
            ),
            # the third l2 instance of `verify --seed 237`
            pytest.param(
                [-0.1135746293638891, 0.4155284539542566, -1.2553846169107012,
                 0.4362307498929178, -1.471303063374547],
                1.503544626318012,
                [0.6278644566667592, 0.1289704025914581, 0.4286018427873095,
                 1.1282976436158147, 0.625910586176142],
                2.0760627951825956,
                id="verify-seed-237",
            ),
        ],
    )
    def test_slowly_converging_instances(self, x, total, caps, expected):
        result = decomposition_norm_l2(np.array(x), box(total, caps))
        assert result.value == pytest.approx(expected, rel=1e-14)

    def test_checked_against_support_dual(self, monkeypatch):
        real = dualnorms.box_l2_support

        def off_by_one(x, budget):
            certificate = real(x, budget)
            return dataclasses.replace(certificate, value=certificate.value + 1.0)

        monkeypatch.setattr(dualnorms, "box_l2_support", off_by_one)
        with pytest.raises(NumericError):
            decomposition_norm_l2(np.array([0.3, -0.7, 1.2]), box(0.8, [0.5, 0.2, 0.4]))


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


BAD_ENTRIES = [pytest.param(np.nan, id="nan"), pytest.param(np.inf, id="inf")]
VECTOR_EVALUATORS = [
    pytest.param(box_l1_support, id="l1-support"),
    pytest.param(box_l2_support, id="l2-support"),
    pytest.param(decomposition_norm, id="decomposition"),
    pytest.param(decomposition_norm_l2, id="l2-decomposition"),
]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    @pytest.mark.parametrize("evaluate", VECTOR_EVALUATORS)
    def test_vector_entry_rejected(self, evaluate, bad):
        with pytest.raises(ParameterError, match="finite"):
            evaluate(np.array([1.0, bad, -0.5]), box(1.0, [0.5, 0.5, 0.5]))

    @pytest.mark.parametrize(
        "a0, directions, radii",
        [
            pytest.param(np.array([1.0, np.nan]), [np.ones(2)], [1.0], id="nan-in-a0"),
            pytest.param(np.ones(2), [np.array([np.inf, 1.0])], [1.0], id="inf-in-direction"),
            pytest.param(np.ones(2), [np.ones(2)], [np.nan], id="nan-radius"),
            pytest.param(np.zeros(0), [np.ones(2)], [1.0], id="empty-a0"),
            pytest.param(np.ones((2, 2)), [np.ones(4)], [1.0], id="matrix-a0"),
            pytest.param(np.ones(2), [np.ones((3, 2))], [1.0], id="matrix-direction"),
            pytest.param(np.ones(2), 2.0, [1.0], id="number-directions"),
            pytest.param(np.ones(2), np.array(2.0), [1.0], id="0d-directions"),
            pytest.param(np.ones(2), (x for x in [np.ones(2)]), [1.0], id="generator-directions"),
        ],
    )
    def test_frobenius_inputs_rejected(self, a0, directions, radii):
        with pytest.raises(ParameterError):
            frobenius_worst_case(a0, directions, radii)

    @pytest.mark.parametrize(
        "total",
        [10**400, -(10**400), np.float32(np.inf), np.longdouble("1e400"), np.nan],
        ids=["int-past-float-range", "negative-int", "float32-inf", "longdouble-past-float-range",
             "nan"],
    )
    def test_total_budget_outside_the_float_range_rejected(self, total):
        # a ParameterError, not the OverflowError of converting the total to a float
        with pytest.raises(ParameterError, match="^total budget must be finite and nonnegative$"):
            BudgetedBox(total, [1.0])

    def test_float32_totals_convert_without_warning(self):
        # the largest float32 is a finite float; the suite turns warnings into errors
        largest = np.finfo(np.float32).max
        assert BudgetedBox(largest, [1.0]).eps_total == float(largest)
        assert type(BudgetedBox(np.float32(0.5), [1.0]).eps_total) is float


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

    def test_checked_against_support_dual(self, monkeypatch):
        real = dualnorms.box_l1_support

        def off_by_one(x, budget):
            certificate = real(x, budget)
            return dataclasses.replace(certificate, value=certificate.value + 1.0)

        monkeypatch.setattr(dualnorms, "box_l1_support", off_by_one)
        with pytest.raises(NumericError):
            weighted_decomposition_norm(np.array([0.3, 0.7]), np.array([0.5, 0.2]))


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
    def assert_split(result, x, split_value, budget):
        np.testing.assert_allclose(result.lam + result.mu, x, rtol=0, atol=1e-12)
        assert split_value == pytest.approx(result.value, abs=1e-9)
        z = result.certificate.z
        radius = np.abs(z).sum() if result.certificate.ball == "l1" else np.linalg.norm(z)
        assert radius <= budget.eps_total + 1e-12
        assert np.all(np.abs(z) <= budget.eps_col + 1e-12)

    @staticmethod
    def l1_split_value(result, weights):
        return np.abs(result.lam).max(initial=0.0) + weights @ np.abs(result.mu)

    @pytest.mark.parametrize("x, total, caps", RECOVERY_CASES)
    def test_decomposition_norm_split(self, x, total, caps):
        budget = box(total, caps)
        result = decomposition_norm(x, budget)
        self.assert_split(result, x, self.l1_split_value(result, caps / total), budget)
        support = box_l1_support(x, budget).value
        assert total * result.value == pytest.approx(support, abs=1e-9)

    @pytest.mark.parametrize("x, total, caps", RECOVERY_CASES)
    def test_weighted_decomposition_norm_split(self, x, total, caps):
        budget = box(1.0, caps)
        result = weighted_decomposition_norm(x, caps)
        self.assert_split(result, x, self.l1_split_value(result, caps), budget)
        support = box_l1_support(x, budget).value
        assert result.value == pytest.approx(support, abs=1e-9)

    @pytest.mark.parametrize("x, total, caps", RECOVERY_CASES)
    def test_decomposition_norm_l2_split(self, x, total, caps):
        budget = box(total, caps)
        result = decomposition_norm_l2(x, budget)
        split_value = total * np.linalg.norm(result.lam) + caps @ np.abs(result.mu)
        self.assert_split(result, x, split_value, budget)
        support = box_l2_support(x, budget).value
        assert result.value == pytest.approx(support, abs=1e-9)


ORACLE_CASES = [
    pytest.param([1.5, 0.0, -2.0, 0.0], 1.0, [0.4, 0.9, 0.3, 0.2], id="zero-entries"),
    pytest.param([0.0, 0.0, 0.0], 1.3, [0.5, 1.0, 2.0], id="all-zero-x"),
    pytest.param([0.7, -1.2, 2.5], 0.8, [0.0, 0.6, 0.0], id="zero-caps"),
    pytest.param([0.7, -1.2, 2.5], 0.8, [0.0, 0.0, 0.0], id="all-caps-zero"),
    pytest.param([1.0, -1.0, 0.5, 1.0], 1.0, [0.3, 0.2, 0.9, 0.1], id="ties"),
    # cumulative weight reaches exactly one after two entries: a flat minimum
    pytest.param([3.0, -2.0, 1.0], 1.0, [0.5, 0.5, 0.25], id="flat-minimum"),
    pytest.param([0.4, -1.1, 0.9], 1e-9, [0.5, 1.0, 2.0], id="tiny-total"),
    pytest.param([-1.7], 0.6, [0.4], id="one-entry"),
]


class TestDecompositionOracle:
    """The closed forms against the decomposition LP that they replaced."""

    @pytest.mark.parametrize("x, total, caps", ORACLE_CASES)
    def test_closed_form_matches_lp(self, x, total, caps):
        pytest.importorskip("scipy.optimize")
        x, budget = np.array(x), box(total, caps)
        value = decomposition_norm(x, budget).value
        for optimum in decomposition_lp(x, budget):
            assert abs(optimum - value) <= 1e-12 * max(1.0, abs(value))

    def test_random_instances_match_lp(self):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            x[rng.random(n) < 0.3] = 0.0
            caps = rng.uniform(0.0, 3.0, size=n)
            caps[rng.random(n) < 0.3] = 0.0
            budget = box(rng.uniform(0.0, 3.0) + 1e-9, caps)
            value = decomposition_norm(x, budget).value
            for optimum in decomposition_lp(x, budget):
                assert abs(optimum - value) <= 1e-12 * max(1.0, abs(value))

    def test_no_solver_call(self, monkeypatch):
        def refuse(program):
            raise AssertionError("dual-norm evaluators must not call the LP solver")

        assert not hasattr(dualnorms, "solve")
        for module in (lpsolver, robust):
            monkeypatch.setattr(module, "solve", refuse)
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n)
            budget = box(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0, size=n))
            decomposition_norm(x, budget)
            weighted_decomposition_norm(x, budget.eps_col)
            decomposition_norm_l2(x, budget)
            simplex_decomposition_min(n, budget.eps_col)


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

    @pytest.mark.parametrize(
        "weights, expected",
        [
            pytest.param([0.25, 0.5, 1.0, 0.25], 0.25, id="tie-min-weight-1/m"),
            pytest.param([0.0, 0.0, 0.0], 0.0, id="all-zero"),
        ],
    )
    def test_edge_weights_match_the_lp(self, weights, expected):
        weights = np.array(weights)
        m = weights.size
        assert simplex_decomposition_min(m, weights) == expected
        for optimum in simplex_minimum_lp(m, weights):
            assert optimum == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_direct_minimization(self):
        # the closed form against the joint LP, solved by the package and by HiGHS
        rng = np.random.default_rng(64)
        for m in range(1, 7):
            for _ in range(8):
                weights = rng.uniform(0, 2, size=m)
                value = simplex_decomposition_min(m, weights)
                expected = 1 / m if np.all(weights >= 1 / m) else weights.min()
                assert value == pytest.approx(expected, abs=1e-12)
                for optimum in simplex_minimum_lp(m, weights):
                    assert value == pytest.approx(optimum, abs=1e-12)

    def test_ties_and_zeros_match_the_lp(self):
        # weights at 0 and at 1/m exactly, where the two closed-form branches meet
        rng = np.random.default_rng(26)
        for m in range(1, 9):
            for _ in range(6):
                weights = rng.choice([0.0, 1.0 / m, rng.uniform(0, 2)], size=m)
                value = simplex_decomposition_min(m, weights)
                assert value == min(1.0 / m, weights.min())
                for optimum in simplex_minimum_lp(m, weights):
                    assert value == pytest.approx(optimum, abs=1e-12)


class TestCarriedGaps:
    """Each result carries the gap its check measured, bit for bit the recomputed one."""

    def test_l1_gap(self):
        rng = np.random.default_rng(261)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            budget = box(rng.uniform(0.0, 3.0) + 1e-9, rng.uniform(0.0, 3.0, size=n))
            result = decomposition_norm(x, budget)
            assert result.gap == abs(budget.eps_total * result.value - result.certificate.value)

    def test_l2_gap(self):
        rng = np.random.default_rng(262)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n)
            budget = box(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0, size=n))
            result = decomposition_norm_l2(x, budget)
            assert result.gap == abs(result.value - result.certificate.value)

    def test_frobenius_gap(self):
        rng = np.random.default_rng(263)
        for _ in range(300):
            blocks = int(rng.integers(1, 4))
            a0 = rng.normal(size=int(rng.integers(1, 5)))
            directions = [rng.normal(size=int(rng.integers(1, 5))) for _ in range(blocks)]
            best = frobenius_worst_case(a0, directions, rng.uniform(0.0, 2.0, size=blocks))
            attained = a0.copy()
            for xi, a in zip(best.maximizers, directions):
                attained = attained + xi @ a
            assert best.gap == abs(np.linalg.norm(attained) - best.value)

    def test_overflow_is_not_certified(self):
        # finite entries whose squares overflow: the water-fill raises before
        # any numpy arithmetic, and the Frobenius check's NaN gap fails
        x = np.array([1e308, 1e308])
        with pytest.raises(NumericError, match="their squares overflow"):
            decomposition_norm_l2(x, box(1.0, [1.0, 1.0]))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="attain"):
                frobenius_worst_case(x, [x], [1.0])

    def test_norm_is_numpys(self):
        rng = np.random.default_rng(264)
        for shape in [(0,), (1,), (7,), (3, 4), (5, 1)]:
            for _ in range(50):
                v = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100)
                assert dualnorms._norm(v) == np.linalg.norm(v)


def random_dual_norm_instance(rng):
    """``(x, box)`` with n in 1..70: ties, zero and negative-zero entries, zero and
    rounded caps, and totals that bind, that the caps exhaust, at the l2 norm of
    the caps and above it (where the l2 water-fill stays clamped), or zero."""
    n = int(rng.integers(1, 71))
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
    if rng.random() < 0.5:
        x = np.round(x * 4.0) / 4.0
    x[rng.random(n) < 0.2] = 0.0
    if rng.random() < 0.1:
        x[rng.random(n) < 0.3] = -0.0
    caps = rng.uniform(0.0, 2.0, size=n)
    if rng.random() < 0.5:
        caps = np.round(caps * 2.0) / 2.0
    caps[rng.random(n) < 0.2] = 0.0
    total = [
        rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.1), caps.sum(), np.sqrt(caps @ caps),
        np.sqrt(caps @ caps) * rng.uniform(1.0, 2.0), 0.0,
    ][int(rng.choice(6, p=[0.3, 0.15, 0.2, 0.15, 0.15, 0.05]))]
    return x, box(float(total), caps)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def assert_same_certificate(got, expected):
    assert_same_bits(got.z, expected.z)
    assert got.value == expected.value and got.ball == expected.ball
    assert got.clamped == expected.clamped


def assert_same_decomposition(got, expected):
    assert_same_bits(got.lam, expected.lam)
    assert_same_bits(got.mu, expected.mu)
    assert got.value == expected.value and got.gap == expected.gap
    assert_same_certificate(got.certificate, expected.certificate)


def compare_with_references(rng, count):
    """Evaluate ``count`` random instances with the package and with the numpy
    references and assert equal bits; return how often the l2 support clamped."""
    clamped = 0
    for _ in range(count):
        x, b = random_dual_norm_instance(rng)
        assert_same_certificate(box_l1_support(x, b), reference_box_l1_support(x, b))
        certificate = box_l2_support(x, b)
        assert_same_certificate(certificate, reference_box_l2_support(x, b))
        clamped += certificate.clamped
        if b.eps_total > 0:
            assert_same_decomposition(decomposition_norm(x, b), reference_decomposition_norm(x, b))
            assert_same_decomposition(
                decomposition_norm_l2(x, b), reference_decomposition_norm_l2(x, b)
            )
        blocks = int(rng.integers(0, 4))
        a0 = rng.normal(size=int(rng.integers(1, 8))) * (rng.random() > 0.1)
        directions = [rng.normal(size=int(rng.integers(1, 8))) * (rng.random() > 0.1)
                      for _ in range(blocks)]
        radii = rng.uniform(0.0, 2.0, size=blocks) * (rng.random(blocks) > 0.1)
        got = frobenius_worst_case(a0, directions, radii)
        expected = reference_frobenius_worst_case(a0, directions, radii)
        assert got.value == expected.value and got.gap == expected.gap
        assert len(got.maximizers) == len(expected.maximizers)
        for xi, reference_xi in zip(got.maximizers, expected.maximizers):
            assert_same_bits(xi, reference_xi)
    return clamped


class TestMatchesNumpyReference:
    """Every field of every evaluator equals the earlier whole-array numpy code's
    bit for bit (``tests/oracles``), signs of zeros included."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances(self, seed):
        count = 1000
        clamped = compare_with_references(np.random.default_rng(7000 + seed), count)
        # both branches of the l2 water-fill are covered
        assert 0.05 * count < clamped < 0.95 * count

    def test_under_compensated_sum(self, monkeypatch):
        # builtin sum over floats is compensated from Python 3.12 on; no
        # evaluator may reach it, so the bits hold under the emulated one
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        compare_with_references(np.random.default_rng(7100), 500)

    def test_budgets_whose_power_and_product_differ(self):
        # ``eps ** 2`` goes through the platform's ``pow``, which rounds a few
        # squares apart from ``eps * eps``; the water-fill keeps ``pow``
        rng = np.random.default_rng(7200)
        budgets = [t for t in rng.uniform(0.1, 3.0, size=20_000).tolist() if t**2 != t * t]
        if not budgets:
            pytest.skip("this platform's pow squares every budget as a product does")
        for total in budgets[:20]:
            x = rng.normal(size=6)
            b = box(total, np.full(6, 2.0 * total))
            assert not box_l2_support(x, b).clamped
            assert_same_certificate(box_l2_support(x, b), reference_box_l2_support(x, b))
            assert_same_decomposition(
                decomposition_norm_l2(x, b), reference_decomposition_norm_l2(x, b)
            )

    def test_underflowed_squares(self):
        # the squares of these entries underflow to zero, so the water-fill's
        # scaling is infinite and the zero entry's reach NaN; the numpy code
        # returned that NaN certificate, the package rejects it
        x = np.array([1e-200, -3e-200, 0.0])
        b = box(0.5, [1.0, 1.0, 1.0])
        with np.errstate(all="ignore"):
            reference = reference_box_l2_support(x, b)
        assert np.isnan(reference.value) and np.isnan(reference.z[2])
        with pytest.raises(NumericError, match="leaves the l2 ball") as raised:
            box_l2_support(x, b)
        assert np.isnan(raised.value.gap)


class TestBudgetOverflow:
    """Caps and budgets past the square root of the float range, under the
    suite's ``filterwarnings = error``: no numpy warning escapes."""

    @pytest.mark.parametrize("evaluate", [box_l2_support, decomposition_norm_l2])
    @pytest.mark.parametrize(
        "total, caps",
        [(1e160, [1e160, 1e160]), (1.5e154, [1e154, 1e154]), (1e300, [1e300, 1.0])],
        ids=["both", "just-above", "one-cap"],
    )
    def test_squared_budget_overflow_is_a_numeric_error(self, evaluate, total, caps):
        with pytest.raises(NumericError, match="too large for the l2 water-fill") as raised:
            evaluate(np.array([1.0, 2.0]), box(total, caps))
        assert raised.value.exit_code == 6

    @pytest.mark.parametrize("evaluate", [box_l2_support, decomposition_norm_l2])
    def test_overflowing_entries_leave_no_scaling(self, evaluate):
        # every free sum of squares is infinite, which left ``kappa`` at zero
        # and the certificate ``z = 0`` with value 0.0
        with pytest.raises(NumericError, match="their squares overflow") as raised:
            evaluate(np.array([1e308, -1e308]), box(1.0, [1.0, 1.0]))
        assert raised.value.exit_code == 6

    def test_one_overflowing_square_keeps_its_scaling(self):
        # the infinite sum belongs to the entry that clamps first; the
        # other entry's finite sum sets ``kappa``
        certificate = box_l2_support(np.array([1e308, 1.0]), box(1.0, [1e-300, 1.0]))
        assert certificate.z.tolist() == [1e-300, 1.0]
        certificate = box_l2_support(np.array([1e308, 1.0, 1.0]), box(1.0, [1e-300, 1.0, 1.0]))
        assert not certificate.clamped
        assert certificate.z.tolist() == pytest.approx([1e-300, 0.5**0.5, 0.5**0.5])

    @pytest.mark.parametrize("total", [1.0, 1e150, 1.3e154])
    def test_overflowing_caps_with_a_finite_squared_budget(self, total):
        # the clamped point's norm overflows, so it cannot fit the ball; the
        # water-fill runs as the numpy code ran it, without its overflow warning
        x, b = np.array([1.0, -2.0, 0.0]), box(total, [1e160, 1e160, 1e300])
        with np.errstate(all="ignore"):
            certificate = reference_box_l2_support(x, b)
            decomposition = reference_decomposition_norm_l2(x, b)
        assert not certificate.clamped
        assert_same_certificate(box_l2_support(x, b), certificate)
        assert_same_decomposition(decomposition_norm_l2(x, b), decomposition)


class TestFeasibilityTolerance:
    """The certificate check's tolerance scales with the ball's radius and each
    cap once they exceed one, as the duality check scales with the support."""

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9])
    def test_large_budgets_pass(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)))
        for _ in range(500):
            n = int(rng.integers(1, 71))
            x = rng.normal(size=n)
            caps = rng.uniform(0.0, 3.0, size=n) * scale
            b = box(rng.choice([rng.uniform(0.0, 3.0) * scale, caps.sum()]), caps)
            box_l1_support(x, b)
            box_l2_support(x, b)
            if b.eps_total > 0:
                decomposition_norm(x, b)
                decomposition_norm_l2(x, b)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1e6, 1e9])
    @pytest.mark.parametrize("ball", ["l1", "l2"])
    def test_outside_ball_raises(self, scale, ball):
        tolerance = dualnorms.FEASIBILITY_TOL * max(1.0, scale)
        b = box(scale, [2.0 * scale])
        dualnorms._check_certificate([scale + 0.5 * tolerance], b, ball)
        with pytest.raises(NumericError, match=f"leaves the {ball} ball") as raised:
            dualnorms._check_certificate([scale + 2.0 * tolerance], b, ball)
        assert raised.value.gap == pytest.approx(2.0 * tolerance, rel=1e-6)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1e6, 1e9])
    def test_outside_box_raises(self, scale):
        tolerance = dualnorms.FEASIBILITY_TOL * max(1.0, scale)
        b = box(4.0 * scale, [0.25, scale])
        dualnorms._check_certificate([0.0, -(scale + 0.5 * tolerance)], b, "l1")
        with pytest.raises(NumericError, match="leaves the box") as raised:
            dualnorms._check_certificate([0.0, -(scale + 2.0 * tolerance)], b, "l1")
        assert raised.value.gap == pytest.approx(2.0 * tolerance, rel=1e-6)
