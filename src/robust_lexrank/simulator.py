"""Feasible sampling from the perturbation set and empirical bound checks.

The sampler is constructive rather than uniform: every draw is a member
of the uncertainty set by construction, which is all the domination
inequalities need. Mass removed from an existing column goes to the new
rows so column sums stay at one; new columns split their unit mass
between the existing block and the new corner exactly at their caps,
the only split the per-column budgets admit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorms import BudgetedBox
from .errors import ParameterError, SetDefinitionError
from .graph import TransitionMatrix
from .robust import GrowthModel, RobustBudget, worst_case_upper_bound

STOCHASTIC_TOL = 1e-12
VIOLATION_TOL = 1e-9
BUDGET_TOL = 1e-9


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


@dataclass(frozen=True)
class PerturbationSample:
    """One grown matrix: existing-link shifts plus blocks for new sentences."""

    existing_delta: np.ndarray  # n x n, signed
    new_rows: np.ndarray  # m x n, nonnegative
    new_cols: np.ndarray  # n x m, nonnegative
    new_corner: np.ndarray  # m x m, nonnegative
    grown: np.ndarray  # (n + m) x (n + m), column-stochastic

    def __post_init__(self):
        for name in ("new_rows", "new_cols", "new_corner"):
            block = getattr(self, name)
            if block.size and block.min() < 0:
                raise SetDefinitionError(f"{name} block must be nonnegative")
        if self.grown.size:
            if self.grown.min() < 0:
                raise SetDefinitionError("grown matrix must be nonnegative")
            sums = self.grown.sum(axis=0)
            if np.abs(sums - 1.0).max() > STOCHASTIC_TOL:
                raise SetDefinitionError("grown matrix columns must sum to one")

    def within_budgets(self, uset: UncertaintySet, tol: float = BUDGET_TOL) -> bool:
        """Recheck every column and block budget of the uncertainty set."""
        growth = uset.growth
        blocks = (
            (self.existing_delta, uset.existing.eps_total, uset.existing.eps_col),
            (self.new_rows, uset.new_rows.eps_total, uset.new_rows.eps_col),
            (self.new_cols, growth.to_existing_total, growth.to_existing_col),
            (self.new_corner, growth.among_new_total, growth.among_new_col),
        )
        return all(
            np.abs(block).sum() <= total + tol
            and (np.abs(block).sum(axis=0) <= caps + tol).all()
            for block, total, caps in blocks
        )


@dataclass(frozen=True)
class SimulationReport:
    samples: int
    max_residual: float
    bound_value: float
    violations: int
    seed: int | None

    def as_dict(self):
        return {
            "samples": self.samples,
            "max_residual": self.max_residual,
            "bound_value": self.bound_value,
            "violations": self.violations,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FixedSizeReport:
    """Comparison of fixed-size shift residuals against the grown-set evidence."""

    samples: int
    max_fixed_residual: float
    grown_max_residual: float
    bound_value: float
    passed: bool
    seed: int | None


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _growth_split_consistent(growth: GrowthModel):
    if growth.m == 0:
        return
    if (
        abs(growth.to_existing_col.sum() - growth.to_existing_total) > BUDGET_TOL
        or abs(growth.among_new_col.sum() - growth.among_new_total) > BUDGET_TOL
    ):
        raise SetDefinitionError(
            "per-column growth budgets must add up to their block totals; "
            "anything else leaves the perturbation set empty"
        )


def sample_perturbation(p: TransitionMatrix, uset: UncertaintySet, seed=None) -> PerturbationSample:
    """Draw one feasible grown matrix; deterministic for a fixed seed.

    Existing columns lose a random mass (within caps and the paired
    new-row caps) spread proportionally to their entries, and the same
    mass lands in the new rows, so the column sum change is zero. With no
    new sentences there is nowhere to send mass and the draw is exact.

    Each block is drawn whole, but the generator is consumed in the same
    order as one draw per column, so a seed reproduces earlier samples
    bit for bit.
    """
    if uset.n != p.size:
        raise ParameterError("uncertainty set width does not match the matrix")
    _growth_split_consistent(uset.growth)
    rng = _rng(seed)
    n, m = p.size, uset.m

    xi = np.zeros((n, n))
    psi = np.zeros((m, n))
    if m:
        caps = np.minimum(uset.existing.eps_col, uset.new_rows.eps_col) / 2.0
        masses = rng.uniform(0.0, np.minimum(caps, 1.0))
        total = masses.sum()
        if total > 0:
            masses *= min(
                1.0,
                uset.existing.eps_total / total,
                uset.new_rows.eps_total / total,
            )
        live = masses != 0.0
        xi[:, live] = -masses[live] * p.values[:, live]
        psi[:, live] = masses[live] * rng.dirichlet(np.ones(m), size=int(live.sum())).T

    zeta = np.zeros((n, m))
    chi = np.zeros((m, m))
    for j in range(m):
        zeta[:, j] = uset.growth.to_existing_col[j] * rng.dirichlet(np.ones(n))
        chi[:, j] = uset.growth.among_new_col[j] * rng.dirichlet(np.ones(m))

    grown = np.zeros((n + m, n + m))
    grown[:n, :n] = p.values + xi
    grown[:n, n:] = zeta
    grown[n:, :n] = psi
    grown[n:, n:] = chi
    sample = PerturbationSample(xi, psi, zeta, chi, grown)
    if not sample.within_budgets(uset):
        raise SetDefinitionError("sampler produced an out-of-budget perturbation")
    return sample


def residual(q, x) -> float:
    """l1 distance between ``q @ x`` and ``x``."""
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[1] != x.size:
        raise ParameterError("matrix and vector dimensions do not match")
    return float(np.abs(q @ x - x).sum())


def _extended(x, n, m):
    x = np.asarray(x, dtype=float)
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
    """
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    x_full = _extended(x, p.size, uset.m)
    bound = worst_case_upper_bound(x_full, p, uset.to_robust_budget(), uset.growth)
    rng = _rng(seed)
    worst = 0.0
    violations = 0
    for _ in range(n_samples):
        sample = sample_perturbation(p, uset, rng)
        value = residual(sample.grown, x_full)
        worst = max(worst, value)
        if value > bound + VIOLATION_TOL:
            violations += 1
    return SimulationReport(
        samples=n_samples,
        max_residual=worst,
        bound_value=bound,
        violations=violations,
        seed=seed if not isinstance(seed, np.random.Generator) else None,
    )


def sample_fixed_size_shift(p: TransitionMatrix, box: BudgetedBox, seed=None) -> np.ndarray:
    """Draw a zero-column-sum shift keeping ``p + shift`` column-stochastic.

    Each column moves a random mass between two rows (a paired +/- entry),
    capped by the per-column budget and by the donor entry; columns are
    rescaled together if the block total would overflow.
    """
    if box.size != p.size:
        raise ParameterError("budget width does not match the matrix")
    rng = _rng(seed)
    n = p.size
    xi = np.zeros((n, n))
    if n < 2:
        return xi
    for j in range(n):
        gain, lose = rng.choice(n, size=2, replace=False)
        cap = min(box.eps_col[j] / 2.0, p.values[lose, j])
        mass = rng.uniform(0.0, cap)
        xi[gain, j] += mass
        xi[lose, j] -= mass
    total = np.abs(xi).sum()
    if total > box.eps_total and total > 0:
        xi *= box.eps_total / total
    return xi


def fixed_size_residual_check(
    p: TransitionMatrix,
    x1,
    box: BudgetedBox,
    n_samples: int,
    seed=None,
    uset: UncertaintySet | None = None,
) -> FixedSizeReport:
    """Verify fixed-size shifts never beat the grown-set evidence or the bound.

    Every fixed-size shift is a member of the grown set at zero growth, so
    its residual joins the empirical maximum directly; the certified bound
    must dominate both families.
    """
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (p.size,):
        raise ParameterError("candidate must match the existing block")
    rng = _rng(seed)
    fixed_residuals = []
    for _ in range(n_samples):
        xi = sample_fixed_size_shift(p, box, rng)
        fixed_residuals.append(residual(p.values + xi, x1))
    max_fixed = float(max(fixed_residuals))

    if uset is None:
        uset = UncertaintySet(
            existing=box,
            new_rows=BudgetedBox(0.0, np.zeros(p.size)),
            growth=GrowthModel.balanced(0),
        )
    grown = empirical_max_residual(p, x1, uset, n_samples, rng)
    grown_max = max(grown.max_residual, max_fixed)
    bound = grown.bound_value
    passed = max_fixed <= grown_max + VIOLATION_TOL and grown_max <= bound + VIOLATION_TOL
    return FixedSizeReport(
        samples=n_samples,
        max_fixed_residual=max_fixed,
        grown_max_residual=grown_max,
        bound_value=bound,
        passed=passed,
        seed=seed if not isinstance(seed, np.random.Generator) else None,
    )
