"""Perturbation sampling, set membership, and empirical bound domination."""

import copy
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_stochastic
from oracles import reference_perturbation

from robust_lexrank import (
    AdjacencyMatrix,
    BudgetedBox,
    GrowthModel,
    PerturbationSample,
    RankVector,
    RobustBudget,
    SimilarityMatrix,
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
from robust_lexrank import simulator
from robust_lexrank.errors import ParameterError, SetDefinitionError


class CountingGenerator:
    """A ``Generator`` that counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class EdgeGenerator:
    """A generator stub for the zero-growth layout: every pair-code uniform
    is ``edge`` and every fraction one half."""

    def __init__(self, edge):
        self.edge = edge

    def random(self, size):
        count, width = size
        return np.hstack([np.full((count, width // 2), self.edge), np.full((count, width // 2), 0.5)])


class ZeroGenerator:
    """A generator stub whose every uniform is 0.0."""

    def random(self, size):
        return np.zeros(size)


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
            # rows of eight or more entries, which numpy sums pairwise: a
            # chunk's row sums must still equal the reference's 1-D sums
            pytest.param(11, 9, 0.3, np.r_[0.0, np.full(10, 0.2)], id="wide"),
            pytest.param(20, 17, 0.3, np.r_[np.full(19, 0.2), 0.0], id="wider"),
        ],
    )
    def test_matches_per_column_reference(self, n, m, eps_total, eps_col):
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(n + m)))
        box = BudgetedBox(eps_total, eps_col)
        uset = UncertaintySet(existing=box, new_rows=box, growth=GrowthModel.balanced(m))
        for seed in range(5):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sample = sample_perturbation(p, uset, seed=rng)
            expected = reference_perturbation(p.values, uset, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
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

    @pytest.mark.parametrize("m", [0, 2])
    def test_one_generator_call_per_chunk(self, m):
        p = TransitionMatrix(random_stochastic(5, np.random.default_rng(1)))
        rng = CountingGenerator(np.random.default_rng(0))
        simulator._draw_blocks(p, make_uset(5, m), rng, 10)
        assert rng.calls == 1

    def test_growth_blocks_pinned(self):
        # entry (i, j) of the grown matrix counts with weight (i + 1)(7 - j),
        # so moving mass between two rows of any column of any block, as a
        # change to any split of the seeded stream does, moves this value
        p = TransitionMatrix(random_stochastic(5, np.random.default_rng(1)))
        sample = sample_perturbation(p, make_uset(5, 2), seed=7)
        rows = np.arange(1.0, 8.0)
        assert float(rows @ sample.grown @ rows[::-1]) == 94.9121882010308

    @pytest.mark.parametrize("n", [2, 11])
    @pytest.mark.parametrize("edge", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "below-one"])
    def test_pair_codes_at_uniform_edges(self, n, edge):
        # pair codes at both ends of [0, 1); fractions of one half make every
        # column's donor and receiver visible in the shift
        rng = EdgeGenerator(edge)
        p = TransitionMatrix(np.full((n, n), 1.0 / n))
        xi = simulator._draw_blocks(p, make_uset(n, 0, eps_xi=10.0), rng, 3)[0]
        donor, receiver = (0, 1) if edge == 0.0 else (n - 1, n - 2)
        rows = np.arange(n)[None, :, None]
        assert np.array_equal(xi < 0, np.broadcast_to(rows == donor, xi.shape))
        assert np.array_equal(xi > 0, np.broadcast_to(rows == receiver, xi.shape))

    def test_all_zero_uniforms_split_evenly(self):
        # -log1p(-0) = 0, so every split row sums to zero and takes the even
        # split; at m = 1 each new-row split is the single entry 1.0
        p = TransitionMatrix(random_stochastic(3, np.random.default_rng(8)))
        uset = make_uset(3, 1)
        blocks, grown = simulator._draw_checked(p, uset, ZeroGenerator(), 2)
        _, psi, zeta, chi = blocks
        simulator._check_stochastic(psi, zeta, chi, grown)
        assert simulator._within_budgets(blocks, uset)
        assert np.array_equal(simulator._dirichlet_rows(np.zeros((2, 3, 1))), np.ones((2, 3, 1)))
        assert np.all(zeta == uset.growth.to_existing_col * (1 / 3))
        assert np.all(chi == uset.growth.among_new_col)
        reference = reference_perturbation(p.values, uset, ZeroGenerator())
        for block, expected in zip(blocks + (grown,), reference):
            assert np.array_equal(block[0], expected)
            assert np.array_equal(block[1], expected)

    @pytest.mark.parametrize("m", [0, 2])
    def test_scale_down_at_the_top_of_the_float_range(self, m):
        # a total budget of 1e308 over a moved mass below 0.5, so 1e308 over
        # that mass leaves the float range: the scale-down divides only where
        # the mass exceeds the budget, so no quotient overflows (the suite
        # turns numpy's warning into an error), and the draw is the one a
        # smaller budget that also binds nowhere gives
        p = TransitionMatrix(random_stochastic(11, np.random.default_rng(3)))
        top = make_uset(11, m, 1e308, 0.02, 1e308, 0.02)
        below = make_uset(11, m, 1e300, 0.02, 1e300, 0.02)
        for seed in range(5):
            drawn = sample_perturbation(p, top, seed=seed)
            assert np.array_equal(drawn.grown, sample_perturbation(p, below, seed=seed).grown)
            assert 0.0 < np.abs(drawn.existing_delta).sum() < 0.5

    def test_combined_budget_past_the_float_range_rejected(self):
        # each budget is finite, their sums are not
        for total, cap in ((1e308, 0.1), (0.1, 1e308)):
            uset = make_uset(3, 1, total, cap, total, cap)
            with pytest.raises(ParameterError, match="combined existing and new-row budget"):
                uset.to_robust_budget()
            with pytest.raises(ParameterError, match="combined existing and new-row budget"):
                empirical_max_residual(TransitionMatrix(np.eye(3)), np.full(3, 1 / 3), uset, 5)

    def test_width_mismatch_rejected(self):
        p = TransitionMatrix(np.eye(3))
        uset = make_uset(4, 1)
        with pytest.raises(ParameterError, match="width"):
            sample_perturbation(p, uset, seed=0)
        with pytest.raises(ParameterError, match="width"):
            empirical_max_residual(p, np.full(3, 1 / 3), uset, 5, seed=0)

    def test_negative_seed_rejected(self):
        p = TransitionMatrix(np.eye(3))
        with pytest.raises(ParameterError, match="seed"):
            sample_perturbation(p, make_uset(3, 1), seed=-1)


class TestWithinBudgets:
    """Each block breaches its column cap, or its total, on its own."""

    # Every column cap is below its block total, so each cap breach comes
    # alone. The existing and new-row caps add up to more than their
    # totals; the growth blocks' totals are the sums of their caps, so only
    # a cap breach can exceed them.
    USET = make_uset(3, 2)
    BLOCKS = ["existing_delta", "new_rows", "new_cols", "new_corner"]

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

    @pytest.mark.parametrize("block", BLOCKS)
    def test_column_cap_breach(self, block):
        uset = self.USET
        quiet = self.quiet_sample(3, 2)
        assert quiet.within_budgets(uset)
        values = np.zeros_like(getattr(quiet, block))
        values[0, 0] = self.caps_of(block, uset)[0] + 0.01
        sign = -1.0 if block == "existing_delta" else 1.0
        assert not dataclasses.replace(quiet, **{block: sign * values}).within_budgets(uset)

    @pytest.mark.parametrize("block", BLOCKS[:2])
    def test_total_breach(self, block):
        uset = self.USET
        quiet = self.quiet_sample(3, 2)
        values = np.zeros_like(getattr(quiet, block))
        values[0, :] = 0.99 * self.caps_of(block, uset)
        sign = -1.0 if block == "existing_delta" else 1.0
        assert not dataclasses.replace(quiet, **{block: sign * values}).within_budgets(uset)

    def test_nan_grown_rejected(self):
        quiet = self.quiet_sample(2, 0)
        grown = np.array([[np.nan, 0.5], [0.5, 0.5]])
        with pytest.raises(SetDefinitionError, match="grown matrix"):
            dataclasses.replace(quiet, grown=grown)

    @pytest.mark.parametrize("block", BLOCKS[1:])
    def test_nan_block_rejected(self, block):
        quiet = self.quiet_sample(3, 2)
        values = np.zeros_like(getattr(quiet, block))
        values[0, 0] = np.nan
        with pytest.raises(SetDefinitionError, match=f"{block} block"):
            dataclasses.replace(quiet, **{block: values})

    def test_no_growth_passes(self):
        uset = make_uset(3, 0)
        assert self.quiet_sample(3, 0).within_budgets(uset)
        p = TransitionMatrix(random_stochastic(3, np.random.default_rng(3)))
        assert sample_perturbation(p, uset, seed=0).within_budgets(uset)


VALUE_TYPES = {
    "growth-model": lambda: GrowthModel.balanced(2),
    "budgeted-box": lambda: BudgetedBox.uniform(2, 1.0, 1.0),
    "robust-budget": lambda: RobustBudget.broadcast(2, 1.0, 1.0),
    "uncertainty-set": lambda: make_uset(2, 1),
    "transition": lambda: TransitionMatrix(np.eye(2)),
    "adjacency": lambda: AdjacencyMatrix(np.eye(2), 0.5),
    "similarity": lambda: SimilarityMatrix(np.eye(2)),
    "rank-vector": lambda: RankVector(np.full(2, 0.5)),
    "sample": lambda: TestWithinBudgets.quiet_sample(2, 1),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_array_holders_compare_by_identity(make):
    # array fields make field-wise equality ambiguous and hashing impossible
    value = make()
    assert value == value
    assert value != copy.deepcopy(value)
    assert {value: 1}[value] == 1


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

    def test_numpy_integer_seed_reports_plain_int(self, transition_01):
        uset = make_uset(11, 1)
        x = np.full(11, 1 / 11)
        report = empirical_max_residual(transition_01, x, uset, 5, seed=np.int64(3))
        assert type(report.seed) is int and report.seed == 3
        json.dumps(report.as_dict())
        box = BudgetedBox.uniform(11, 0.4, 0.2)
        fixed = fixed_size_residual_check(transition_01, x, box, 5, seed=np.int64(3))
        assert type(fixed.seed) is int and fixed.seed == 3
        json.dumps(fixed.as_dict())

    @pytest.mark.parametrize(
        "seed",
        [np.random.SeedSequence(3), np.random.PCG64(3)],
        ids=["seed-sequence", "bit-generator"],
    )
    def test_non_integer_seed_reports_none(self, transition_01, seed):
        uset = make_uset(11, 1)
        x = np.full(11, 1 / 11)
        report = empirical_max_residual(transition_01, x, uset, 5, seed=seed)
        assert report.seed is None
        json.dumps(report.as_dict())
        box = BudgetedBox.uniform(11, 0.4, 0.2)
        fixed = fixed_size_residual_check(transition_01, x, box, 5, seed=seed)
        assert fixed.seed is None
        json.dumps(fixed.as_dict())

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


def chunk_of(n, m):
    """Samples per chunk of the batched simulator at width ``n + m``."""
    return max(1, simulator.CHUNK_ELEMENTS // (n + m) ** 2)


def reference_residuals(p, uset, x, rng, count):
    """Per-sample residuals of ``count`` reference draws, one matrix at a time."""
    values = []
    for _ in range(count):
        q = reference_perturbation(p.values, uset, rng)[4]
        values.append(np.abs(q @ x - x).sum())
    return values


class TestBatchedAgainstReference:
    """The chunked draw-check-score path equals a loop over single samples."""

    N = 10

    @staticmethod
    def binding_uset(n, m):
        # a block total below the sum of the caps, and two zero-cap columns
        caps = np.full(n, 0.4)
        caps[[1, 4]] = 0.0
        box = BudgetedBox(0.05, caps)
        return UncertaintySet(existing=box, new_rows=box, growth=GrowthModel.balanced(m))

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("offset", ["one", "chunk-1", "chunk", "chunk+1", "3chunk+7"])
    def test_matches_per_sample_loop(self, monkeypatch, m, offset):
        n = self.N
        chunk = chunk_of(n, m)
        n_samples = {
            "one": 1,
            "chunk-1": chunk - 1,
            "chunk": chunk,
            "chunk+1": chunk + 1,
            "3chunk+7": 3 * chunk + 7,
        }[offset]
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(40 + m)))
        uset = self.binding_uset(n, m)
        x = np.full(n + m, 1.0 / (n + m))
        expected = reference_residuals(p, uset, x, np.random.default_rng(12), n_samples)
        # a bound at the median residual makes the violation count informative
        bound = float(np.median(expected))
        monkeypatch.setattr(simulator, "worst_case_upper_bound", lambda *args: bound)
        report = empirical_max_residual(p, x, uset, n_samples, seed=12)
        assert report.max_residual == max(expected)
        assert report.violations == sum(v > bound + simulator.VIOLATION_TOL for v in expected)
        if n_samples > 2:
            assert 0 < report.violations < n_samples

    @pytest.mark.parametrize("m", [0, 2])
    def test_shared_generator_continues_stream(self, m):
        n = self.N
        chunk = chunk_of(n, m)
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(50)))
        uset = self.binding_uset(n, m)
        x = np.full(n, 1.0 / n)
        x_full = np.concatenate([x, np.zeros(m)])
        rng = np.random.default_rng(21)
        first = empirical_max_residual(p, x, uset, chunk + 3, rng)
        second = empirical_max_residual(p, x, uset, 5, rng)
        reference = np.random.default_rng(21)
        assert first.max_residual == max(reference_residuals(p, uset, x_full, reference, chunk + 3))
        assert second.max_residual == max(reference_residuals(p, uset, x_full, reference, 5))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestChunkSize:
    """Sample ``k`` reads the same stream words whatever the chunking, so a
    report does not depend on ``CHUNK_ELEMENTS``."""

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n, n_samples", [(3, 600), (12, 400), (200, 15)])
    def test_reports_do_not_depend_on_chunk_size(self, monkeypatch, n, m, n_samples):
        # each chunk size's one-sample-per-chunk cut (widths 8, 90, 181 and 512)
        # has widths on both sides among n + m in {3, 5, 12, 14, 200, 202}
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(70 + n)))
        uset = make_uset(n, m)
        x = np.full(n, 1.0 / n)
        # a bound below the sampled maximum makes the violation count informative
        top = empirical_max_residual(p, x, uset, n_samples, seed=5).max_residual
        monkeypatch.setattr(simulator, "worst_case_upper_bound", lambda *args: 0.9 * top)
        reports = []
        for elements in (2**6, 2**13, 2**15, 2**18):
            monkeypatch.setattr(simulator, "CHUNK_ELEMENTS", elements)
            report = empirical_max_residual(p, x, uset, n_samples, seed=5)
            reports.append((report.max_residual, report.bound_value, report.violations))
        assert reports == [(top, 0.9 * top, reports[0][2])] * 4
        assert reports[0][2] > 0


class TestBatchedChecks:
    """A bad sample in the middle of a chunk still stops the simulation."""

    @staticmethod
    def setup_case():
        n, m = 5, 2
        p = TransitionMatrix(np.full((n, n), 1.0 / n))
        box = BudgetedBox.uniform(n, 10.0, 0.1)
        uset = UncertaintySet(existing=box, new_rows=box, growth=GrowthModel.balanced(m))
        return p, uset, np.full(n, 1.0 / n), chunk_of(n, m)

    @staticmethod
    def break_second_chunk(monkeypatch, spoil):
        """Let ``spoil`` edit the middle sample of the second drawn chunk."""
        draw = simulator._draw_blocks
        chunks = []

        def spoiled(p, uset, rng, count):
            blocks = [block.copy() for block in draw(p, uset, rng, count)]
            chunks.append(count)
            if len(chunks) == 2:
                spoil(*(block[count // 2] for block in blocks))
            return tuple(blocks)

        monkeypatch.setattr(simulator, "_draw_blocks", spoiled)
        return chunks

    def test_column_cap_breach_raises(self, monkeypatch):
        p, uset, x, chunk = self.setup_case()

        def widen(xi, psi, zeta, chi):
            # a zero-sum shift inside column 0: sums hold, its cap does not
            xi[0, 0] -= 0.1
            xi[1, 0] += 0.1

        chunks = self.break_second_chunk(monkeypatch, widen)
        with pytest.raises(SetDefinitionError, match="out-of-budget"):
            empirical_max_residual(p, x, uset, 3 * chunk, seed=1)
        assert chunks == [chunk, chunk]

    def test_column_sum_breach_raises(self, monkeypatch):
        p, uset, x, chunk = self.setup_case()

        def shrink(xi, psi, zeta, chi):
            zeta[:, 0] *= 0.5

        chunks = self.break_second_chunk(monkeypatch, shrink)
        with pytest.raises(SetDefinitionError, match="sum to one"):
            empirical_max_residual(p, x, uset, 3 * chunk, seed=1)
        assert chunks == [chunk, chunk]

    def test_transient_memory_bounded_by_chunks(self):
        n, m, n_samples = 200, 5, 200
        p = TransitionMatrix(random_stochastic(n, np.random.default_rng(60)))
        uset = make_uset(n, m)
        x = np.full(n, 1.0 / n)
        chunk_bytes = chunk_of(n, m) * (n + m) ** 2 * 8
        tracemalloc.start()
        try:
            report = empirical_max_residual(p, x, uset, n_samples, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.violations == 0
        # all samples at once would take n_samples * (n + m)**2 doubles
        assert peak < 10 * chunk_bytes < n_samples * (n + m) ** 2 * 8 / 10


class TestFixedSizeShifts:
    def test_zero_budget_reduces_to_plain_residual(self, transition_01):
        box = BudgetedBox.uniform(11, 0.0, 0.0)
        x = np.full(11, 1 / 11)
        report = fixed_size_residual_check(transition_01, x, box, 20, seed=7)
        base = residual(transition_01.values, x)
        assert report.max_residual == pytest.approx(base, abs=1e-12)
        assert report.bound_value == pytest.approx(base, abs=1e-12)
        assert report.violations == 0

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
        assert report.violations == 0
        assert report.max_residual <= report.bound_value + 1e-9

    def test_sampled_maximum_near_bound(self, transition_01):
        # paired shifts come close to the bound at the eigenvector; a family
        # spreading mass over many rows stays near a third of it
        box = BudgetedBox.uniform(11, 0.4, 0.2)
        ranks = power_iteration(transition_01)
        for seed in range(1, 11):
            report = fixed_size_residual_check(transition_01, ranks.values, box, 1000, seed=seed)
            assert report.violations == 0
            assert report.max_residual >= 0.85 * report.bound_value

    def test_one_row_draws_nothing(self):
        p = TransitionMatrix(np.ones((1, 1)))
        rng = CountingGenerator(np.random.default_rng(0))
        xi, psi, zeta, chi = simulator._draw_blocks(p, make_uset(1, 0), rng, 4)
        assert rng.calls == 0
        assert xi.shape == (4, 1, 1) and not xi.any()

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
