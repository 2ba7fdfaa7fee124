"""Sentence ranking over similarity graphs, plain and robust.

Pipeline: tokenize sentences, weight them by inverse sentence frequency,
build a thresholded similarity graph, and rank either by the dominant
eigenvector of the transition matrix or by a linear program that hedges
the ranking against budgeted perturbations and future growth of the graph.
"""

from .corpus import (
    Corpus,
    Sentence,
    SimilarityMatrix,
    build_similarity_matrix,
    idf_modified_cosine,
    read_corpus,
    tokenize,
)
from .dualnorms import (
    BudgetedBox,
    DualCertificate,
    FrobeniusWorstCase,
    NormDecomposition,
    box_l1_support,
    box_l2_support,
    decomposition_norm,
    decomposition_norm_l2,
    frobenius_worst_case,
    simplex_decomposition_min,
    weighted_decomposition_norm,
)
from .graph import AdjacencyMatrix, TransitionMatrix, threshold_adjacency, to_transition
from .lpsolver import LinearProgram, LinearProgramSolution, solve
from .ranking import RankVector, ReportedRanks, normalize_max_one, power_iteration
from .robust import (
    ComparativeRankResult,
    GrowthModel,
    RobustBudget,
    RobustRankResult,
    build_growth_program,
    build_robust_program,
    comparative_rank,
    solve_growth,
    solve_robust,
    solve_robust_budgets,
    worst_case_upper_bound,
)
from .simulator import (
    PerturbationSample,
    SimulationReport,
    UncertaintySet,
    empirical_max_residual,
    fixed_size_residual_check,
    residual,
    sample_fixed_size_shift,
    sample_perturbation,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "BudgetedBox",
    "ComparativeRankResult",
    "Corpus",
    "DualCertificate",
    "FrobeniusWorstCase",
    "GrowthModel",
    "LinearProgram",
    "LinearProgramSolution",
    "NormDecomposition",
    "PerturbationSample",
    "RankVector",
    "ReportedRanks",
    "RobustBudget",
    "RobustRankResult",
    "Sentence",
    "SimilarityMatrix",
    "SimulationReport",
    "TransitionMatrix",
    "UncertaintySet",
    "box_l1_support",
    "box_l2_support",
    "build_growth_program",
    "build_robust_program",
    "build_similarity_matrix",
    "comparative_rank",
    "decomposition_norm",
    "decomposition_norm_l2",
    "empirical_max_residual",
    "fixed_size_residual_check",
    "frobenius_worst_case",
    "idf_modified_cosine",
    "normalize_max_one",
    "power_iteration",
    "read_corpus",
    "residual",
    "sample_fixed_size_shift",
    "sample_perturbation",
    "simplex_decomposition_min",
    "solve",
    "solve_growth",
    "solve_robust",
    "solve_robust_budgets",
    "threshold_adjacency",
    "to_transition",
    "tokenize",
    "weighted_decomposition_norm",
    "worst_case_upper_bound",
]
