"""Checks that test small arrays over Python floats, against their numpy forms.

Every check with a small-input path (``errors.SMALL_ARRAY_ENTRIES``) must
run the same test as its numpy path: the same inputs pass, and the same
inputs fail with the same error class and message, on either side of the
cut. The earlier all-numpy checks are kept in ``oracles`` as references.
"""

import math

import numpy as np
import pytest

from oracles import reference_bounds, reference_check_solution, reference_real_array

from robust_lexrank import (
    BudgetedBox,
    GrowthModel,
    LinearProgram,
    RankVector,
    SimilarityMatrix,
    TransitionMatrix,
    UncertaintySet,
    lpsolver,
    simulator,
    solve,
)
from robust_lexrank.errors import (
    SMALL_ARRAY_ENTRIES,
    ConstructionError,
    ModelError,
    NumericError,
    ParameterError,
    SetDefinitionError,
    all_within,
    real_array,
)

CUT = SMALL_ARRAY_ENTRIES
# entry counts on both sides of the cut and at it, and one past the reference's
# own cut (1 << 16 entries), above which it tests finiteness by the extremes
AROUND_THE_CUT = [0, 1, 2, CUT - 1, CUT, CUT + 1, 2 * CUT + 3, 65_537]
# one size at or below the small-input cut and sizes above it
TINY_AND_ABOVE = [2, CUT, CUT + 1, 4 * CUT]


def outcome(call, *args, **kwargs):
    """``("value", result)`` or ``("raised", class, message)``."""
    try:
        return ("value", call(*args, **kwargs))
    except Exception as exc:  # every class is compared, not only the package's
        return ("raised", type(exc), str(exc))


def assert_real_array_matches(values, *args, **kwargs):
    got = outcome(real_array, values, "weights", ParameterError, *args, **kwargs)
    expected = outcome(reference_real_array, values, "weights", ParameterError, *args, **kwargs)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "raised":
        assert got[1:] == expected[1:]
        return
    got, expected = got[1], expected[1]
    if isinstance(values, np.ndarray) and values.dtype == float:
        assert got is values and expected is values
    else:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


HAND_PICKED = [
    np.nan, np.inf, -np.inf, -0.0, 1.5, 3, True, "1", b"1", None,
    np.float64(np.nan), np.array(np.inf), np.array(-0.0), np.array(2),
    [], [np.nan], [np.inf, 1.0], [1.0, -np.inf], [-0.0, 0.0], [1, 2], [True, 1.0], ["1"], ["1.5", 2.0],
    (1.0, 2.0), ((1.0, np.nan), (2.0, 3.0)),
    np.array([1.0, np.nan]), np.array([-0.0]), np.array([1, 2]), np.array([True]),
    np.array(["1.0"]), np.array([1, 2.5], dtype=object), np.array([1.0, None], dtype=object),
    np.array([np.nan, 1], dtype=object), np.array([[1.0, np.inf]]), np.empty((0, 3)),
    np.array([1.0, 2.0], dtype=np.float32), np.array([np.nan], dtype=np.float32),
    np.array([1, 2], dtype=np.uint8),
    [[1.0], [1.0, 2.0]], [1, [2.0, np.array([3])]], [[1.0, 2.0], [3.0, np.nan]],
]


class TestRealArrayMatchesReference:
    @pytest.mark.parametrize("values", HAND_PICKED, ids=repr)
    def test_hand_picked(self, values):
        assert_real_array_matches(values)
        # a wrong shape and, for arrays, the right one
        assert_real_array_matches(values, (7,))
        shape = getattr(values, "shape", None)
        if shape is not None:
            assert_real_array_matches(values, shape)

    @pytest.mark.parametrize("size", AROUND_THE_CUT)
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf, -0.0], ids=repr)
    def test_sizes_around_the_cut(self, size, bad):
        rng = np.random.default_rng(size)
        base = rng.normal(size=size)
        places = {0, size // 2, size - 1} if size else set()
        for where in sorted(places) or [None]:
            values = base.copy()
            if bad is not None and where is not None:
                values[where] = bad
            for shaped in (values, values.reshape(size, 1), values.reshape(1, size)):
                assert_real_array_matches(shaped)
                assert_real_array_matches(shaped, shaped.shape)
            assert_real_array_matches(values[::-1])  # not contiguous
            if size <= 4 * CUT:
                assert_real_array_matches(values.tolist())
                assert_real_array_matches(values.astype(object))
                assert_real_array_matches(values.astype(np.float32))

    def test_random_inputs(self):
        rng = np.random.default_rng(32)
        kinds = ["float", "list", "int", "object", "float32", "bool", "string"]
        for _ in range(3000):
            size = int(rng.choice([rng.integers(0, 3 * CUT), CUT, CUT + 1, CUT - 1]))
            values = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
            for bad in (np.nan, np.inf, -np.inf, -0.0):
                if size and rng.random() < 0.15:
                    values[rng.integers(size)] = bad
            if size and size % 2 == 0 and rng.random() < 0.3:
                values = values.reshape(2, size // 2)
            kind = kinds[rng.integers(len(kinds))]
            converted = {
                "float": lambda v: v,
                "list": lambda v: v.tolist(),
                "int": lambda v: np.nan_to_num(v, posinf=0.0, neginf=0.0).astype(np.int64),
                "object": lambda v: v.astype(object),
                "float32": lambda v: v.astype(np.float32),
                "bool": lambda v: v > 0,
                "string": lambda v: v.astype(str),
            }[kind](values)
            shape = None if rng.random() < 0.7 else np.shape(converted)
            assert_real_array_matches(converted, shape)


class TestRangeHelpers:
    """``all_within`` against the numpy expressions it replaces, also as the
    distance test ``all_within(a - target, -tol, tol)``."""

    @pytest.mark.parametrize("size", [0, 1, CUT - 1, CUT, CUT + 1, 5 * CUT])
    def test_against_numpy(self, size):
        rng = np.random.default_rng(size + 100)
        for _ in range(200):
            values = rng.uniform(-0.5, 1.5, size=size)
            for bad in (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1.0 + 1e-13, -1e-13):
                if size and rng.random() < 0.2:
                    values[rng.integers(size)] = bad
            if rng.random() < 0.5:
                values = np.clip(values, 0.0, 1.0) if rng.random() < 0.5 else values
            shaped = values.reshape(size, 1) if rng.random() < 0.3 else values
            for low, high in ((0.0, 1.0), (0.0, math.inf), (-1e-12, math.inf), (-0.5, 1.5)):
                assert all_within(shaped, low, high) == bool(
                    np.all((values >= low) & (values <= high))
                )
            for target, tol in ((1.0, 1e-12), (0.5, 0.5), (0.0, 0.0)):
                expected = bool(np.abs(values - target).max(initial=0.0) <= tol)
                assert all_within(shaped - target, -tol, tol) == expected

    def test_integer_bounds_read_as_floats(self):
        assert all_within(np.array([0.5]), 0, 1) and not all_within(np.array([-0.5]), 0, 1)


def raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def assert_same_failure(make, sizes, error, message):
    """``make(size)`` fails with ``error`` and exactly ``message`` at every size."""
    for size in sizes:
        assert raised(make, size) == (error, message), size


def stochastic(n, rng):
    values = rng.uniform(0.1, 1.0, size=(n, n))
    return values / values.sum(axis=0)


def symmetric(n, rng):
    values = rng.uniform(0.0, 1.0, size=(n, n))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 1.0)
    return values


class TestNoCheckDropped:
    """A failing input raises the same class and message below and above the cut."""

    def test_budgeted_box(self):
        def caps(size, bad):
            values = np.full(size, 0.1)
            values[size // 2] = bad
            return BudgetedBox(1.0, values)

        message = "per-coordinate caps must be finite"
        assert_same_failure(lambda k: caps(k, np.nan), TINY_AND_ABOVE, ParameterError, message)
        assert_same_failure(lambda k: caps(k, np.inf), TINY_AND_ABOVE, ParameterError, message)
        message = "per-coordinate caps must be finite and nonnegative"
        assert_same_failure(lambda k: caps(k, -1e-300), TINY_AND_ABOVE, ParameterError, message)
        assert_same_failure(lambda k: caps(k, -1.0), TINY_AND_ABOVE, ParameterError, message)
        for size in TINY_AND_ABOVE:
            assert caps(size, -0.0).size == size  # a negative zero is not negative

    def test_transition_matrix(self):
        rng = np.random.default_rng(1)
        # 2 x 2 and 4 x 4 lie at or below the cut, 5 x 5 above it with its five
        # column sums below it, 20 x 20 above it with its sums too
        sizes = [2, 4, 5, 20]

        def off_by(n, shift):
            values = stochastic(n, rng)
            values[0, n - 1] += shift
            return TransitionMatrix(values)

        message = "every transition column must sum to one"
        assert_same_failure(lambda n: off_by(n, 1e-9), sizes, ConstructionError, message)
        assert_same_failure(lambda n: off_by(n, np.inf), sizes, ConstructionError,
                            "transition entries must be finite")

        def negative(n):
            values = stochastic(n, rng)
            values[n - 1, 0] = -1e-300
            return TransitionMatrix(values)

        assert_same_failure(negative, sizes, ConstructionError,
                            "transition entries must be nonnegative")
        for n in sizes:
            TransitionMatrix(stochastic(n, rng))

    def test_similarity_matrix(self):
        rng = np.random.default_rng(2)
        sizes = [2, 4, 5, 20, 70]  # 70 spans two symmetry blocks

        def changed(n, where, value):
            values = symmetric(n, rng)
            values[where(n)] = value
            return SimilarityMatrix(values)

        assert_same_failure(lambda n: changed(n, lambda n: (0, n - 1), 0.75), sizes,
                            ParameterError, "similarity matrix must be symmetric")
        assert_same_failure(lambda n: changed(n, lambda n: (n - 1, 0), 0.75), sizes,
                            ParameterError, "similarity matrix must be symmetric")

        def out_of_range(n, value):
            values = symmetric(n, rng)
            values[0, n - 1] = values[n - 1, 0] = value
            return SimilarityMatrix(values)

        for value in (-1e-9, 1.0 + 1e-9):
            assert_same_failure(lambda n: out_of_range(n, value), sizes, ParameterError,
                                "similarities must lie in [0, 1]")
        assert_same_failure(lambda n: changed(n, lambda n: (n - 1, n - 1), 0.5), sizes,
                            ParameterError, "similarity diagonal must be one")
        for n in sizes:
            SimilarityMatrix(symmetric(n, rng))

    def test_rank_vector(self):
        def point(size, value):
            values = np.full(size, 1.0 / size)
            values[size - 1] = value
            return RankVector(values)

        message = "rank entries must be finite"
        for value in (np.nan, np.inf, -np.inf):
            assert_same_failure(lambda k: point(k, value), TINY_AND_ABOVE, ParameterError, message)
        assert_same_failure(lambda k: point(k, -1e-3), TINY_AND_ABOVE, ParameterError,
                            "rank entries must be nonnegative numbers")
        assert_same_failure(lambda k: point(k, 0.9), TINY_AND_ABOVE, ParameterError,
                            "rank entries must sum to one")
        for size in TINY_AND_ABOVE:
            RankVector(np.full(size, 1.0 / size))

    def test_growth_model(self):
        def budgets(size, value):
            values = np.full(size, 0.5)
            values[0] = value
            return GrowthModel(values)

        message = "growth budgets must be a vector of entries in [0, 1]"
        for value in (-1e-300, 1.0 + 1e-15):
            assert_same_failure(lambda k: budgets(k, value), TINY_AND_ABOVE, ParameterError,
                                message)
        for value in (np.nan, np.inf, -np.inf):
            assert_same_failure(lambda k: budgets(k, value), TINY_AND_ABOVE, ParameterError,
                                "growth budgets must be finite")
        for size in TINY_AND_ABOVE:
            assert budgets(size, 1.0).m == budgets(size, 0.0).m == size

    def test_linear_program_bounds(self):
        def model(n, low, high):
            bounds = [(0.0, None)] * n
            bounds[n // 2] = (low, high)
            return LinearProgram.build(np.ones(n), bounds, [])

        assert_same_failure(lambda n: model(n, np.nan, None), TINY_AND_ABOVE, ModelError,
                            "variable bounds must not be NaN")
        assert_same_failure(lambda n: model(n, 0.0, float("nan")), TINY_AND_ABOVE, ModelError,
                            "variable bounds must not be NaN")
        message = "lower bounds must be below +inf and upper bounds above -inf"
        assert_same_failure(lambda n: model(n, np.inf, None), TINY_AND_ABOVE, ModelError, message)
        assert_same_failure(lambda n: model(n, None, -np.inf), TINY_AND_ABOVE, ModelError, message)
        message = "each bound must be a (low, high) pair of numbers or None"
        assert_same_failure(lambda n: model(n, "0", None), TINY_AND_ABOVE, ModelError, message)

    @staticmethod
    def uset(n, m):
        return UncertaintySet(
            BudgetedBox.uniform(n, 0.5, 0.1),
            BudgetedBox.uniform(n, 0.5, 0.1),
            GrowthModel.balanced(m),
        )

    # (n, m, samples): a single tiny sample, and stacks whose blocks lie above the cut
    STACKS = [(2, 0, 1), (2, 1, 1), (11, 2, 1), (11, 2, 50), (30, 3, 2)]

    def draw(self, n, m, count, seed=0):
        rng = np.random.default_rng(seed)
        p = TransitionMatrix(stochastic(n, rng))
        return p, self.uset(n, m), simulator._draw_checked(p, self.uset(n, m), rng, count)

    def test_out_of_budget_stack(self):
        for n, m, count in self.STACKS:
            _, uset, (blocks, _) = self.draw(n, m, count)
            assert simulator._within_budgets(blocks, uset)
            for index in range(4):
                if not blocks[index].size:
                    continue
                for bump in (1.0, np.nan):
                    inflated = list(blocks)
                    inflated[index] = blocks[index].copy()
                    inflated[index][-1, -1, -1] += bump
                    assert not simulator._within_budgets(inflated, uset)

    def test_stack_over_its_totals(self):
        # every column within its cap, the block totals over their budgets
        for n, m, count in self.STACKS:
            _, uset, (blocks, _) = self.draw(n, m, count)
            for existing, new_rows in ((1e-3, 0.5), (0.5, 1e-3)):
                tight = UncertaintySet(
                    BudgetedBox(existing, uset.existing.eps_col),
                    BudgetedBox(new_rows, uset.new_rows.eps_col),
                    uset.growth,
                )
                within = simulator._within_budgets(blocks, tight)
                assert within == (m == 0 and existing == 0.5), (n, m, count, existing)

    def test_out_of_budget_draw_raises(self, monkeypatch):
        # blocks drawn under budgets forty times wider stay stochastic and
        # nonnegative, but leave the set they are checked against
        draw_blocks = simulator._draw_blocks

        def wide(p, uset, rng, count):
            loose = UncertaintySet(
                BudgetedBox.uniform(p.size, 20.0, 0.4), uset.new_rows, uset.growth
            )
            return draw_blocks(p, loose, rng, count)

        monkeypatch.setattr(simulator, "_draw_blocks", wide)
        for n, m, count in self.STACKS:
            rng = np.random.default_rng(n + m + count)
            p = TransitionMatrix(stochastic(n, rng))
            tight = UncertaintySet(
                BudgetedBox.uniform(n, 0.5, 0.01), BudgetedBox.uniform(n, 0.5, 0.4),
                GrowthModel.balanced(m),
            )
            assert raised(simulator._draw_checked, p, tight, rng, count) == (
                SetDefinitionError, "sampler produced an out-of-budget perturbation",
            ), (n, m, count)

    def test_non_stochastic_stack(self):
        for n, m, count in self.STACKS:
            _, _, (blocks, grown) = self.draw(n, m, count)
            _, psi, zeta, chi = blocks
            simulator._check_stochastic(psi, zeta, chi, grown)
            for shift, message in (
                (1e-9, "grown matrix columns must sum to one"),
                (-10.0, "grown matrix must be nonnegative"),
                (np.nan, "grown matrix must be nonnegative"),
            ):
                bad = grown.copy()
                bad[-1, 0, -1] += shift
                assert raised(simulator._check_stochastic, psi, zeta, chi, bad) == (
                    SetDefinitionError, message,
                ), (n, m, count)
            for name, block in (("new_rows", psi), ("new_cols", zeta), ("new_corner", chi)):
                if not block.size:
                    continue
                bad = block.copy()
                bad[-1, -1, 0] = -1e-300
                blocks = {"new_rows": psi, "new_cols": zeta, "new_corner": chi, name: bad}
                assert raised(simulator._check_stochastic, *blocks.values(), grown) == (
                    SetDefinitionError, f"{name} block must be nonnegative",
                )


def random_bounds(rng, n):
    """Bound pairs of every kind: free, lower, upper, boxed, fixed, infinite sides."""
    kinds = [
        (None, None), (0.0, None), (None, 1.0), (-1.0, 2.0), (0.5, 0.5), (-np.inf, np.inf),
        (-2, None), (np.float64(0.25), np.float64(0.25)), (np.int64(-1), 3), (None, -0.0),
        (-0.0, None), np.array([0.0, 1.0]), [1.0, None],
    ]
    return [kinds[i] for i in rng.integers(0, len(kinds), size=n)]


class TestLinearProgramMatchesReference:
    def test_bound_arrays(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            n = int(rng.integers(0, 3 * CUT))
            bounds = random_bounds(rng, n)
            if n and rng.random() < 0.3:
                bounds[rng.integers(n)] = [
                    (np.nan, None), (np.inf, None), (None, -np.inf), ("1", None), (0.0,),
                    (0.0, 1.0, 2.0), None, (True, None), 0.5, np.array([0.0, np.nan]),
                    np.array(0.5),
                ][rng.integers(11)]
            got = outcome(LinearProgram.build, np.ones(n), bounds, [])
            expected = outcome(reference_bounds, bounds, n)
            assert got[0] == expected[0], (bounds, got, expected)
            if got[0] == "raised":
                assert got[1:] == expected[1:]
                continue
            for array, reference in zip((got[1].lower, got[1].upper), expected[1]):
                assert array.dtype == reference.dtype == float
                assert np.array_equal(array, reference)
                assert np.array_equal(np.signbit(array), np.signbit(reference))

    @pytest.mark.parametrize("pair", [np.array([[0.0, 1.0]]), np.array([[0.0], [1.0]])],
                             ids=["1x2", "2x1"])
    def test_two_dimensional_pair_rejected(self, pair):
        # the object-array route read a lone two-entry 2-D array as the pair
        # of a one-variable model; a pair is a 1-D sequence of two entries
        assert reference_bounds([pair], 1)[1] == np.array([1.0])
        with pytest.raises(ModelError, match=r"^each bound must be a \(low, high\) pair"):
            LinearProgram.build([1.0], [pair], [])

    def test_solutions(self):
        # free, upper-bounded and fixed variables reach the solver as before
        rng = np.random.default_rng(34)
        statuses = set()
        for _ in range(300):
            n = int(rng.integers(1, 7))
            bounds = random_bounds(rng, n)
            rows = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), n)).astype(float)
            relations = [("<=", "=", ">=")[i] for i in rng.integers(0, 3, size=len(rows))]
            rhs = rng.integers(-3, 6, size=len(rows)).astype(float)
            cost = rng.normal(size=n)
            model = LinearProgram.build(cost, bounds, zip(rows, relations, rhs))
            lower, upper = reference_bounds(bounds, n)
            reference = LinearProgram(cost, lower, upper, rows, tuple(relations), rhs)
            got, expected = solve(model), solve(reference)
            statuses.add(got.status)
            assert got.status == expected.status
            if got.status == "optimal":
                assert np.array_equal(got.x, expected.x)
                assert got.objective_value == expected.objective_value
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_check_solution(self):
        rng = np.random.default_rng(35)
        raised_kinds = set()
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(0, 2 * CUT))
            model = LinearProgram(
                np.zeros(n),
                np.full(n, -1.0),
                np.full(n, 1.0),
                rng.integers(-2, 3, size=(k, n)).astype(float),
                tuple(("<=", "=", ">=")[i] for i in rng.integers(0, 3, size=k)),
                rng.integers(-2, 3, size=k).astype(float),
            )
            x = rng.integers(-1, 2, size=n).astype(float)
            x += rng.choice([0.0, 5e-9, -5e-9, 2e-8, -2e-8, 1e-10, np.nan], size=n)
            got = outcome(lpsolver._check_solution, model, x)
            expected = outcome(reference_check_solution, model, x)
            if np.isnan(x).any():  # the reference lets a NaN entry pass every test
                expected = ("raised", NumericError, "solution violates variable bounds")
            assert got == expected
            if got[0] == "raised":
                raised_kinds.add(got[2].split()[0])
        assert raised_kinds == {"solution", "constraint"}

    def test_check_solution_carries_the_first_gap(self):
        model = LinearProgram(
            np.zeros(1), np.full(1, -np.inf), np.full(1, np.inf),
            np.ones((3, 1)), ("<=", ">=", "="), np.array([0.0, 2.0, 1.0]),
        )
        with pytest.raises(NumericError, match=r"^constraint residual 1\.000e\+00 exceeds") as info:
            lpsolver._check_solution(model, np.array([1.0]))
        assert info.value.gap == 1.0
