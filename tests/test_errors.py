"""The one numeric rule: every public numeric input rejects what is not a real number."""

import numpy as np
import pytest

from robust_lexrank import (
    AdjacencyMatrix,
    BudgetedBox,
    GrowthModel,
    LinearProgram,
    RankVector,
    RobustBudget,
    SimilarityMatrix,
    TransitionMatrix,
    UncertaintySet,
    box_l1_support,
    box_l2_support,
    build_robust_program,
    comparative_rank,
    decomposition_norm,
    decomposition_norm_l2,
    empirical_max_residual,
    fixed_size_residual_check,
    frobenius_worst_case,
    normalize_max_one,
    power_iteration,
    residual,
    simplex_decomposition_min,
    solve,
    threshold_adjacency,
    weighted_decomposition_norm,
    worst_case_upper_bound,
)
from robust_lexrank.errors import (
    SMALL_ARRAY_ENTRIES,
    ConstructionError,
    ModelError,
    NormalizationError,
    ParameterError,
    as_count,
    real_array,
    real_entries,
    real_number,
)

P = TransitionMatrix(np.full((2, 2), 0.5))
BOX = BudgetedBox(1.0, [0.5, 0.5])
BUDGET = RobustBudget(0.1, [0.1, 0.1])
USET = UncertaintySet(BOX, BudgetedBox(0.0, [0.0, 0.0]), GrowthModel.balanced(0))
MODEL = LinearProgram.build([1.0], [(0.0, None)], [([1.0], ">=", 1.0)])
SIMILARITY = SimilarityMatrix(np.eye(2))
X = [0.5, 0.5]

# numpy reads each of these as a number; none of them is one
NOT_NUMBERS = ["1", b"1", True, None]
HOLE = object()


def fill(template, value):
    """``template`` with ``value`` in place of ``HOLE``."""
    if template is HOLE:
        return value
    if isinstance(template, list):
        return [fill(t, value) for t in template]
    return template


# entry point -> (documented error class, call, an input with a HOLE for the bad value).
# Read as the number numpy makes of it, the bad value fills most templates into a valid
# input, so a rule that converted it would let the call pass.
ENTRY_POINTS = {
    "LinearProgram.build objective": (
        ModelError, lambda v: LinearProgram.build(v, [(0.0, None)], []), [HOLE]
    ),
    # None is a valid bound, so the bad value stands for the whole (low, high) pair
    "LinearProgram.build bound": (
        ModelError, lambda v: LinearProgram.build([1.0], [v], []), [HOLE]
    ),
    "LinearProgram.build coefficients": (
        ModelError, lambda v: LinearProgram.build([1.0], [(0.0, None)], [(v, "<=", 1.0)]), [HOLE]
    ),
    "LinearProgram.build rhs": (
        ModelError, lambda v: LinearProgram.build([1.0], [(0.0, None)], [([1.0], "<=", v)]), [HOLE]
    ),
    "solve cost": (ModelError, lambda v: solve(MODEL, [v]), [HOLE]),
    "BudgetedBox total": (ParameterError, lambda v: BudgetedBox(v, [0.5]), [HOLE]),
    "BudgetedBox caps": (ParameterError, lambda v: BudgetedBox(1.0, v), [HOLE, 0.5]),
    "BudgetedBox.uniform caps": (
        ParameterError, lambda v: BudgetedBox.uniform(2, 1.0, v), [HOLE]
    ),
    "TransitionMatrix": (ConstructionError, TransitionMatrix, [[HOLE, 0.0], [0.0, 1.0]]),
    "AdjacencyMatrix": (
        ParameterError, lambda v: AdjacencyMatrix(v, 0.5), [[HOLE, 0.0], [0.0, 1.0]]
    ),
    "SimilarityMatrix": (ParameterError, SimilarityMatrix, [[HOLE, 0.0], [0.0, 1.0]]),
    "RankVector": (ParameterError, RankVector, [HOLE, 0.0]),
    "GrowthModel": (ParameterError, GrowthModel, [HOLE]),
    "normalize_max_one": (NormalizationError, normalize_max_one, [HOLE, 0.5]),
    "worst_case_upper_bound": (
        ParameterError, lambda v: worst_case_upper_bound(v, P, BUDGET), [HOLE, 0.0]
    ),
    "residual matrix": (ParameterError, lambda v: residual(v, X), [[HOLE, 0.0], [0.0, 1.0]]),
    "residual vector": (ParameterError, lambda v: residual(P.values, v), [HOLE, 0.0]),
    "empirical_max_residual candidate": (
        ParameterError, lambda v: empirical_max_residual(P, v, USET, 10), [HOLE, 0.0]
    ),
    "fixed_size_residual_check candidate": (
        ParameterError, lambda v: fixed_size_residual_check(P, v, BOX, 10), [HOLE, 0.0]
    ),
    "box_l1_support": (ParameterError, lambda v: box_l1_support(v, BOX), [HOLE, 0.5]),
    "box_l2_support": (ParameterError, lambda v: box_l2_support(v, BOX), [HOLE, 0.5]),
    "decomposition_norm": (ParameterError, lambda v: decomposition_norm(v, BOX), [HOLE, 0.5]),
    "decomposition_norm_l2": (
        ParameterError, lambda v: decomposition_norm_l2(v, BOX), [HOLE, 0.5]
    ),
    "weighted_decomposition_norm weights": (
        ParameterError, lambda v: weighted_decomposition_norm(X, v), [HOLE, 0.5]
    ),
    "frobenius_worst_case a0": (
        ParameterError, lambda v: frobenius_worst_case(v, [X], [1.0]), [HOLE, 0.5]
    ),
    "frobenius_worst_case directions": (
        ParameterError, lambda v: frobenius_worst_case(X, v, [1.0]), [[HOLE, 0.5]]
    ),
    "frobenius_worst_case radii": (
        ParameterError, lambda v: frobenius_worst_case(X, [X], v), [HOLE]
    ),
    "simplex_decomposition_min weights": (
        ParameterError, lambda v: simplex_decomposition_min(1, v), [HOLE]
    ),
    "threshold_adjacency threshold": (
        ParameterError, lambda v: threshold_adjacency(SIMILARITY, v), [HOLE]
    ),
    "power_iteration tol": (ParameterError, lambda v: power_iteration(P, tol=v), [HOLE]),
}


@pytest.mark.parametrize("in_list", [False, True], ids=["bare", "in-list"])
@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_numeric_entry_point_rejects_non_numbers(entry, bad, in_list):
    error, call, template = ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(fill(template, bad) if in_list else bad)


# entry point -> call with the bad count in place; each raises ParameterError
COUNTS = {
    "power_iteration max_iter": lambda k: power_iteration(P, max_iter=k),
    "comparative_rank n_verified": lambda k: comparative_rank(P, k, BUDGET),
    "build_robust_program pinned": lambda k: build_robust_program(P, BUDGET, k),
    "GrowthModel.balanced": GrowthModel.balanced,
    "fixed_size_residual_check n_samples": lambda k: fixed_size_residual_check(P, X, BOX, k),
    "empirical_max_residual n_samples": lambda k: empirical_max_residual(P, X, USET, k),
    "BudgetedBox.uniform n": lambda k: BudgetedBox.uniform(k, 1.0, 1.0),
    "simplex_decomposition_min m": lambda k: simplex_decomposition_min(k, [1.0]),
}


# a bool is not a count, though Python treats it as the int 1; a None ``pinned``
# builds the unpinned model, so that one pair is not a bad count
BAD_COUNTS = [
    pytest.param(entry, bad, id=f"{entry}-{bad!r}")
    for bad in [2.5, np.float64(1.0), True, np.True_, "1", None]
    for entry in COUNTS
    if not (entry == "build_robust_program pinned" and bad is None)
]


@pytest.mark.parametrize("entry, bad", BAD_COUNTS)
def test_counts_must_be_integers(entry, bad):
    with pytest.raises(ParameterError, match="integer"):
        COUNTS[entry](bad)


@pytest.mark.parametrize("kind", [int, np.int8, np.int64, np.uint16], ids=lambda t: t.__name__)
@pytest.mark.parametrize("entry", list(COUNTS))
def test_integer_counts_accepted(entry, kind):
    COUNTS[entry](kind(1))


@pytest.mark.parametrize("pinned", [0, -1, 3], ids=["zero", "negative", "n+1"])
def test_pinned_outside_one_to_n_rejected(pinned):
    with pytest.raises(ParameterError, match=rf"^n_verified {pinned} outside 1\.\.2$"):
        build_robust_program(P, BUDGET, pinned)


def test_negative_budget_width_rejected():
    with pytest.raises(ParameterError, match="budget width"):
        BudgetedBox.uniform(-1, 1.0, 1.0)


@pytest.mark.parametrize(
    "make, what",
    [(RankVector, "rank entries"), (GrowthModel, "growth budgets")],
    ids=["RankVector", "GrowthModel"],
)
def test_ragged_input_rejected(make, what):
    with pytest.raises(ParameterError, match=f"^{what} must not be ragged$"):
        make([[0.5], [0.5, 0.5]])


class TestRule:
    @pytest.mark.parametrize(
        "values",
        [1, 2.5, np.float32(0.5), np.int64(3), [], [1, [2.0, np.array([3])]], np.array([[1.0]]),
         np.array([1, 2.5], dtype=object)],
        ids=repr,
    )
    def test_real_entries(self, values):
        assert real_entries(values)

    @pytest.mark.parametrize(
        "values",
        ["1", b"1", True, np.bool_(False), None, 1j, {1.0}, [1.0, [None]],
         np.array(["1"]), np.array([True]), np.array([1.0, "1"], dtype=object)],
        ids=repr,
    )
    def test_not_real_entries(self, values):
        assert not real_entries(values)

    def test_real_number_is_one_number(self):
        assert real_number(1) and real_number(np.float64(0.5)) and real_number(float("nan"))
        assert not any(map(real_number, [[1.0], np.array(1.0), "1", True, None]))

    def test_real_array_checks_in_order(self):
        with pytest.raises(ModelError, match="^weights must be real numbers$"):
            real_array([1.0, "2"], "weights", ModelError, (3,))
        with pytest.raises(ModelError, match="^weights must not be ragged$"):
            real_array([[1.0], [1.0, 2.0]], "weights", ModelError)
        with pytest.raises(ModelError, match=r"^weights have shape \(2,\) where \(3,\) is needed$"):
            real_array([1.0, np.nan], "weights", ModelError, (3,))
        with pytest.raises(ModelError, match="^weights must be finite$"):
            real_array([1.0, np.inf], "weights", ModelError, (2,))
        values = np.array([1.0, 2.0])
        assert real_array(values, "weights", ModelError) is values
        assert real_array([1, 2], "weights", ModelError).dtype == float

    @pytest.mark.parametrize("size", [7, 65_537], ids=["floats", "numpy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_real_array_rejects_non_finite_at_either_end(self, size, bad, where):
        values = np.linspace(-1.0, 1.0, size)
        assert real_array(values, "weights", ModelError) is values
        values[where] = bad
        with pytest.raises(ModelError, match="^weights must be finite$"):
            real_array(values, "weights", ModelError)
        with pytest.raises(ModelError, match="^weights must be finite$"):
            real_array(values.reshape(size, 1), "weights", ModelError)

    @pytest.mark.parametrize(
        "values", [[10**400], [1.0, -(10**400)], [[1.0], [10**400]],
                   np.array([1.0, 10**400], dtype=object)],
        ids=["int", "negative", "nested", "object-array"],
    )
    def test_int_past_the_float_range_is_not_finite(self, values):
        with pytest.raises(ModelError, match="^weights must be finite$"):
            real_array(values, "weights", ModelError)

    def test_real_array_accepts_empty(self):
        assert real_array([], "weights", ModelError).shape == (0,)
        assert real_array(np.empty((0, 3)), "weights", ModelError, (0, 3)).shape == (0, 3)

    def test_as_count(self):
        assert as_count(np.int64(3), "n") == 3 and type(as_count(np.int64(3), "n")) is int
        with pytest.raises(ParameterError, match="^n must be an integer, not True$"):
            as_count(True, "n")


def test_sample_count_reported_as_int():
    report = empirical_max_residual(P, X, USET, np.int64(3))
    assert type(report.samples) is int


def wide(v):
    """A box as wide as the vector ``v``."""
    return BudgetedBox.uniform(v.size, 1.0, 0.5)


# array input -> (error class, what its message names, call with the array in place).
# Each call reads its array through ``real_array`` before any length test.
NON_FINITE_INPUTS = {
    "BudgetedBox caps": (ParameterError, "per-coordinate caps", lambda v: BudgetedBox(1.0, v)),
    "RankVector": (ParameterError, "rank entries", RankVector),
    "GrowthModel": (ParameterError, "growth budgets", GrowthModel),
    "SimilarityMatrix": (ParameterError, "similarities", SimilarityMatrix),
    "TransitionMatrix": (ConstructionError, "transition entries", TransitionMatrix),
    "AdjacencyMatrix": (ParameterError, "adjacency entries", lambda v: AdjacencyMatrix(v, 0.5)),
    "LinearProgram.build objective": (
        ModelError, "objective entries", lambda v: LinearProgram.build(v, [], [])
    ),
    "LinearProgram.build coefficients": (
        ModelError, "constraint coefficients",
        lambda v: LinearProgram.build([1.0], [(0.0, None)], [(v, "<=", 1.0)]),
    ),
    "LinearProgram.build rhs": (
        ModelError, "constraint rhs",
        lambda v: LinearProgram.build([1.0], [(0.0, None)], [([1.0], "<=", r) for r in v]),
    ),
    "solve cost": (ModelError, "objective entries", lambda v: solve(MODEL, [v])),
    "box_l1_support": (ParameterError, "vector entries", lambda v: box_l1_support(v, wide(v))),
    "box_l2_support": (ParameterError, "vector entries", lambda v: box_l2_support(v, wide(v))),
    "decomposition_norm": (
        ParameterError, "vector entries", lambda v: decomposition_norm(v, wide(v))
    ),
    "decomposition_norm_l2": (
        ParameterError, "vector entries", lambda v: decomposition_norm_l2(v, wide(v))
    ),
    "frobenius_worst_case a0": (
        ParameterError, "a0 entries", lambda v: frobenius_worst_case(v, [X], [1.0])
    ),
    "frobenius_worst_case directions": (
        ParameterError, "direction entries", lambda v: frobenius_worst_case(X, [v], [1.0])
    ),
    "simplex_decomposition_min weights": (
        ParameterError, "weights", lambda v: simplex_decomposition_min(v.size, v)
    ),
    "normalize_max_one": (NormalizationError, "scores", normalize_max_one),
    "residual matrix": (ParameterError, "matrix entries", lambda v: residual(v, X)),
    "residual vector": (ParameterError, "vector entries", lambda v: residual(P.values, v)),
    "worst_case_upper_bound candidate": (
        ParameterError, "candidate entries",
        lambda v: worst_case_upper_bound(v, P, BUDGET, GrowthModel.balanced(v.size - P.size)),
    ),
    "empirical_max_residual candidate": (
        ParameterError, "candidate entries", lambda v: empirical_max_residual(P, v, USET, 10)
    ),
    "fixed_size_residual_check candidate": (
        ParameterError, "candidate entries", lambda v: fixed_size_residual_check(P, v, BOX, 10)
    ),
}
# inputs read as matrices get a square of about the same number of entries
SQUARE = {"SimilarityMatrix", "TransitionMatrix", "AdjacencyMatrix", "residual matrix"}
CUT = SMALL_ARRAY_ENTRIES
# (vector entries, square side): below, at and above the small-input cut, and large
SIZES = [(CUT - 1, 3), (CUT, 4), (CUT + 1, 5), (65_537, 257)]


@pytest.mark.parametrize("entries, side", SIZES, ids=["below-cut", "at-cut", "above-cut", "65537"])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", list(NON_FINITE_INPUTS))
def test_every_array_input_rejects_non_finite(entry, bad, where, entries, side):
    error, what, call = NON_FINITE_INPUTS[entry]
    values = np.eye(side) if entry in SQUARE else np.full(entries, 1.0 / entries)
    values.flat[where] = bad
    with pytest.raises(error, match=f"^{what} must be finite$"):
        call(values)
