"""Feasible sampling from the perturbation set and empirical bound checks.

The sampler is constructive rather than uniform: every draw is a member
of the uncertainty set by construction, which is all the domination
inequalities need. Mass removed from an existing column goes to the new
rows so column sums stay at one; new columns split their unit mass
between the existing block and the new corner exactly at their caps,
the only split the per-column budgets admit. With no new sentences each
column moves mass from one row to another instead (the fixed-size
family), so every growth rate is sampled, checked and scored by the one
path of ``empirical_max_residual``.

Each chunk of samples is one ``random((count, W))`` call, one row of
uniforms per sample (layouts in ``_draw_blocks`` and ``_paired_shifts``):
``W = n + n m + m (n + m)`` with new sentences, ``2 n`` without, and
nothing is drawn for a single sentence without growth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dualnorms import BudgetedBox
from .errors import ParameterError, SetDefinitionError, all_near, all_within, as_count
from .errors import real_array
from .graph import TransitionMatrix
from .robust import GrowthModel, RobustBudget, worst_case_upper_bound

STOCHASTIC_TOL = 1e-12
VIOLATION_TOL = 1e-9
BUDGET_TOL = 1e-9
# Stacked matrix entries per chunk of samples: the batched checks and
# residuals hold one chunk at a time, so transient memory does not grow with
# the sample count. It does grow with the width: above n + m = 181 a chunk is
# a single sample of (n + m)**2 entries, more than this target.
CHUNK_ELEMENTS = 2**15


@dataclass(frozen=True)
class UncertaintySet:
    """Budgets for all four perturbation blocks of a grown transition matrix."""

    existing: BudgetedBox
    new_rows: BudgetedBox
    growth: GrowthModel

    def __post_init__(self):
        if self.existing.size != self.new_rows.size:
            raise SetDefinitionError("existing and new-row budgets must share a width")

    @property
    def n(self):
        return self.existing.size

    @property
    def m(self):
        return self.growth.m

    def to_robust_budget(self) -> RobustBudget:
        return RobustBudget(
            self.existing.eps_total + self.new_rows.eps_total,
            self.existing.eps_col + self.new_rows.eps_col,
        )


@dataclass(frozen=True, eq=False)
class PerturbationSample:
    """One grown matrix: existing-link shifts plus blocks for new sentences."""

    existing_delta: np.ndarray  # n x n, signed
    new_rows: np.ndarray  # m x n, nonnegative
    new_cols: np.ndarray  # n x m, nonnegative
    new_corner: np.ndarray  # m x m, nonnegative
    grown: np.ndarray  # (n + m) x (n + m), column-stochastic

    def __post_init__(self):
        _check_stochastic(self.new_rows, self.new_cols, self.new_corner, self.grown)

    def within_budgets(self, uset: UncertaintySet) -> bool:
        """Recheck every column and block budget of the uncertainty set, to ``BUDGET_TOL``."""
        blocks = (self.existing_delta, self.new_rows, self.new_cols, self.new_corner)
        return _within_budgets(blocks, uset, BUDGET_TOL)


def _check_stochastic(new_rows, new_cols, new_corner, grown):
    """Raise unless the new blocks and grown matrices are nonnegative and
    every grown column sums to one; a NaN entry fails both tests.

    Each array is one sample's block or a stack of them (samples along the
    leading axis).
    """
    for name, block in (("new_rows", new_rows), ("new_cols", new_cols), ("new_corner", new_corner)):
        if not all_within(block, 0.0):
            raise SetDefinitionError(f"{name} block must be nonnegative")
    if not all_within(grown, 0.0):
        raise SetDefinitionError("grown matrix must be nonnegative")
    if not all_near(_column_sums(grown), 1.0, STOCHASTIC_TOL):
        raise SetDefinitionError("grown matrix columns must sum to one")


def _column_sums(matrices):
    """Column sums of a matrix or of each matrix of a stack, as one matmul by
    ones: numpy's strided reduction over the rows of a stack costs several
    times more."""
    return np.ones(matrices.shape[-2]) @ matrices


def _within_budgets(blocks, uset: UncertaintySet, tol: float) -> bool:
    """Whether ``(xi, psi, zeta, chi)`` keeps every budget in every sample.

    Blocks are matrices or stacks of them (samples along the leading axis);
    every block keeps its total and each of its column caps within ``tol``.
    The total is the sum of the column sums, both taken as matmuls by ones.
    An empty block passes on its own.
    """
    growth = uset.growth
    limits = (
        (uset.existing.eps_total, uset.existing.eps_col),
        (uset.new_rows.eps_total, uset.new_rows.eps_col),
        (growth.to_existing_total, growth.to_existing_col),
        (growth.among_new_total, growth.among_new_col),
    )
    for block, (total, caps) in zip(blocks, limits):
        columns = _column_sums(np.abs(block))
        totals = columns @ np.ones(columns.shape[-1])
        if not ((totals <= total + tol).all() and (columns <= caps + tol).all()):
            return False
    return True


@dataclass(frozen=True)
class SimulationReport:
    samples: int
    max_residual: float
    bound_value: float
    violations: int
    seed: int | None

    def as_dict(self):
        return asdict(self)


def _rng(seed):
    """The generator a ``seed`` names; a ``Generator`` is used as it is."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ParameterError("seed must be nonnegative")
    return np.random.default_rng(seed)


def _report_seed(seed):
    """The ``seed`` a report records: a plain ``int`` for an integer seed and
    ``None`` for any other (``Generator``, ``SeedSequence``, ``BitGenerator``),
    so every report encodes as JSON."""
    return int(seed) if isinstance(seed, (int, np.integer)) else None


def _check_set(p: TransitionMatrix, uset: UncertaintySet):
    """Raise unless ``uset`` fits ``p``."""
    if uset.n != p.size:
        raise ParameterError("uncertainty set width does not match the matrix")


def _chunks(n_samples: int, width: int):
    """Sample counts of consecutive chunks of about ``CHUNK_ELEMENTS`` entries.

    A chunk holds at least one sample, so above ``width`` 181 each chunk is
    one sample of ``width**2`` entries: flat in the sample count, but
    growing with the square of the width. The draws do not depend on the
    chunking (see ``_draw_blocks``), so neither does a report.
    """
    size = max(1, CHUNK_ELEMENTS // width**2)
    for start in range(0, n_samples, size):
        yield min(size, n_samples - start)


def _dirichlet_rows(uniforms):
    """Flat Dirichlet rows from ``uniforms`` in [0, 1): standard exponentials
    ``-log1p(-u)``, each row divided by its sum. A row of zero uniforms
    sums to zero and takes the uniform split instead of 0/0."""
    draws = -np.log1p(-uniforms)
    sums = draws.sum(axis=-1, keepdims=True)
    if sums.all():
        return draws / sums
    even = np.full_like(draws, 1.0 / draws.shape[-1])
    return np.divide(draws, sums, out=even, where=sums > 0)


def _draw_blocks(p: TransitionMatrix, uset: UncertaintySet, rng, count: int):
    """Draw ``count`` perturbations as stacks ``(xi, psi, zeta, chi)``.

    Existing columns lose a random mass (within caps and the paired
    new-row caps) spread proportionally to their entries, and the same
    mass lands in the new rows, so the column sum change is zero. With no
    new sentences the mass moves inside each column instead (see
    ``_paired_shifts``), and the other blocks are empty.

    The whole chunk is one ``random((count, W))`` call, one row per sample.
    With new sentences ``W = n + n m + m (n + m)``: the row holds the ``n``
    column masses, then every existing column's ``m``-way new-row split
    (drawn even where the mass is zero), then each new column's ``n``
    to-existing and ``m`` among-new uniforms. Since ``random`` reads one
    stream word per double, sample ``k`` reads words ``[kW, (k + 1)W)``
    whatever the chunking.
    """
    n, m = p.size, uset.m
    if not m:
        xi = _paired_shifts(p, uset.existing, rng, count)
        return xi, np.zeros((count, 0, n)), np.zeros((count, n, 0)), np.zeros((count, 0, 0))
    high = np.minimum(np.minimum(uset.existing.eps_col, uset.new_rows.eps_col) / 2.0, 1.0)
    uniforms = rng.random((count, n + n * m + m * (n + m)))
    masses = uniforms[:, :n] * high
    total = masses.sum(axis=1)
    limit = min(uset.existing.eps_total, uset.new_rows.eps_total)
    masses *= np.minimum(1.0, np.divide(limit, total, out=np.ones(count), where=total > 0))[:, None]
    split = _dirichlet_rows(uniforms[:, n : n + n * m].reshape(count, n, m))
    growth = uniforms[:, n + n * m :].reshape(count, m, n + m)
    # ``to_transition`` leaves ``p.values`` F-ordered; a C-ordered ``xi`` adds
    # into the C-ordered ``grown`` stack without a strided pass
    xi = -masses[:, None, :] * np.ascontiguousarray(p.values)
    psi = masses[:, None, :] * split.transpose(0, 2, 1)
    zeta = _dirichlet_rows(growth[:, :, :n]).transpose(0, 2, 1) * uset.growth.to_existing_col
    chi = _dirichlet_rows(growth[:, :, n:]).transpose(0, 2, 1) * uset.growth.among_new_col
    return xi, psi, zeta, chi


def _paired_shifts(p: TransitionMatrix, box: BudgetedBox, rng, count: int):
    """Draw ``count`` fixed-size shifts ``xi``: each column moves mass between two rows.

    The chunk is one ``random((count, 2 n))`` call, one row per sample: ``n``
    pair codes ``floor(u n (n - 1))``, each giving its column a donor row
    and a different receiver row, then ``n`` fractions of the cap that the
    columns move. The cap is the smaller of half the column's budget and
    the donor entry, so ``p + xi`` stays nonnegative. A sample whose moved
    mass, counted in both rows, exceeds the block total is scaled down to
    it. With one row there is no pair: the shift is zero and nothing is
    drawn.
    """
    n = p.size
    xi = np.zeros((count, n, n))
    if n < 2:
        return xi
    uniforms = rng.random((count, 2 * n))
    pairs = np.floor(uniforms[:, :n] * (n * (n - 1))).astype(np.int64)
    donor, receiver = np.divmod(pairs, n - 1)
    receiver += receiver >= donor
    columns = np.arange(n)
    masses = uniforms[:, n:] * np.minimum(box.eps_col / 2.0, p.values[donor, columns])
    moved = 2.0 * masses.sum(axis=1)
    scale = np.divide(box.eps_total, moved, out=np.ones(count), where=moved > 0)
    masses *= np.minimum(1.0, scale)[:, None]
    samples = np.arange(count)[:, None]
    xi[samples, donor, columns] = -masses
    xi[samples, receiver, columns] = masses
    return xi


def _draw_checked(p: TransitionMatrix, uset: UncertaintySet, rng, count: int):
    """Draw ``count`` perturbations and check them all: ``(blocks, grown)``."""
    blocks = _draw_blocks(p, uset, rng, count)
    xi, psi, zeta, chi = blocks
    n = p.size
    grown = np.empty((count, n + uset.m, n + uset.m))
    np.add(p.values, xi, out=grown[:, :n, :n])
    grown[:, :n, n:] = zeta
    grown[:, n:, :n] = psi
    grown[:, n:, n:] = chi
    _check_stochastic(psi, zeta, chi, grown)
    if not _within_budgets(blocks, uset, BUDGET_TOL):
        raise SetDefinitionError("sampler produced an out-of-budget perturbation")
    return blocks, grown


def sample_perturbation(p: TransitionMatrix, uset: UncertaintySet, seed=None) -> PerturbationSample:
    """Draw one feasible grown matrix; deterministic for a fixed seed.

    The draw is the first of ``empirical_max_residual``'s for the same
    seed; see ``_draw_blocks`` for how the blocks are made.
    """
    _check_set(p, uset)
    blocks, grown = _draw_checked(p, uset, _rng(seed), 1)
    return PerturbationSample(*(block[0] for block in blocks), grown[0])


def _residuals(q, x):
    """l1 distances between ``q @ x`` and ``x``, one per matrix of a stack."""
    return np.abs(q @ x - x).sum(axis=-1)


def residual(q, x) -> float:
    """l1 distance between ``q @ x`` and ``x``."""
    q = real_array(q, "matrix entries", ParameterError)
    x = real_array(x, "vector entries", ParameterError)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[1] != x.size:
        raise ParameterError("matrix and vector dimensions do not match")
    return float(_residuals(q, x))


def _extended(x, n, m):
    x = real_array(x, "candidate entries", ParameterError)
    if x.shape == (n + m,):
        return x
    if x.shape == (n,):
        return np.concatenate([x, np.zeros(m)])
    raise ParameterError(f"candidate of length {x.size}, expected {n} or {n + m}")


def empirical_max_residual(
    p: TransitionMatrix, x, uset: UncertaintySet, n_samples: int, seed=None
) -> SimulationReport:
    """Largest sampled residual at ``x``, checked against the certified bound.

    A candidate of existing-block length is extended with zeros for the
    new sentences. Violations count samples whose residual exceeds the
    bound beyond tolerance; a correct implementation reports zero.
    Samples are drawn, checked and scored a chunk at a time.
    """
    n_samples = as_count(n_samples, "sample count")
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    _check_set(p, uset)
    x_full = _extended(x, p.size, uset.m)
    bound = worst_case_upper_bound(x_full, p, uset.to_robust_budget(), uset.growth)
    rng = _rng(seed)
    worst = 0.0
    violations = 0
    for count in _chunks(n_samples, x_full.size):
        _, grown = _draw_checked(p, uset, rng, count)
        values = _residuals(grown, x_full)
        worst = max(worst, float(values.max()))
        violations += int(np.count_nonzero(values > bound + VIOLATION_TOL))
    return SimulationReport(
        samples=n_samples,
        max_residual=worst,
        bound_value=bound,
        violations=violations,
        seed=_report_seed(seed),
    )


def _fixed_size(box: BudgetedBox) -> UncertaintySet:
    """The zero-growth uncertainty set of ``box``: shifts of the existing block only."""
    return UncertaintySet(
        existing=box,
        new_rows=BudgetedBox(0.0, np.zeros(box.size)),
        growth=GrowthModel.balanced(0),
    )


def sample_fixed_size_shift(p: TransitionMatrix, box: BudgetedBox, seed=None) -> np.ndarray:
    """Draw a zero-column-sum shift keeping ``p + shift`` column-stochastic.

    This is the ``existing_delta`` of one checked ``sample_perturbation``
    over the zero-growth set of ``box``.
    """
    return sample_perturbation(p, _fixed_size(box), seed).existing_delta


def fixed_size_residual_check(
    p: TransitionMatrix, x1, box: BudgetedBox, n_samples: int, seed=None
) -> SimulationReport:
    """``empirical_max_residual`` at ``x1`` over the zero-growth set of ``box``."""
    return empirical_max_residual(p, x1, _fixed_size(box), n_samples, seed)
