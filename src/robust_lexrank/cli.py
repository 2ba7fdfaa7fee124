"""Command-line surface for the ranking pipeline.

Subcommands: similarity, rank, robust, comparative, simulate,
reproduce-tables, verify. Inputs default to the packaged 11-sentence
news cluster so every command is runnable out of the box. Rank-style
outputs echo the configuration that produced them; exit codes are
per error family (see errors module).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

import numpy as np

from . import dualnorms
from .corpus import Corpus, Sentence, build_similarity_matrix, read_corpus, write_matrix_csv
from .dualnorms import BudgetedBox
from .errors import RobustLexRankError, SetupError
from .graph import threshold_adjacency, to_transition
from .ranking import normalize_max_one, power_iteration
from .robust import GrowthModel, RobustBudget, comparative_rank, solve_robust
from .simulator import UncertaintySet, empirical_max_residual

DATA_PACKAGE = "robust_lexrank.data"
DEFAULT_CLUSTER = "iraq_cluster.tsv"
REFERENCE_TABLES = "reference_ranks.json"
GENERATED_TEMPLATES = "generated_templates.tsv"


def _data_path(name):
    ref = resources.files(DATA_PACKAGE).joinpath(name)
    if not ref.is_file():
        raise SetupError(f"packaged fixture {name!r} is missing")
    return ref


def load_packaged_corpus() -> Corpus:
    with resources.as_file(_data_path(DEFAULT_CLUSTER)) as path:
        return read_corpus(path)


def load_generated_templates() -> list[Sentence]:
    with resources.as_file(_data_path(GENERATED_TEMPLATES)) as path:
        return list(read_corpus(path).sentences)


def load_reference_tables() -> dict:
    with _data_path(REFERENCE_TABLES).open(encoding="utf-8") as handle:
        return json.load(handle)


def _corpus_from(args) -> Corpus:
    if args.input is None:
        return load_packaged_corpus()
    return read_corpus(args.input)


def _budget_for(n, args) -> RobustBudget:
    if getattr(args, "eps_col_file", None):
        col = np.loadtxt(args.eps_col_file, delimiter=",").reshape(-1)
        return RobustBudget(args.eps1, col)
    return RobustBudget.broadcast(n, args.eps1, args.eps_col)


def _emit(payload, args, csv_rows=None, csv_header=None):
    """Write JSON (default) or CSV; CSV provenance rides in comment lines."""
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        buffer = io.StringIO()
        for key, value in payload.get("config", {}).items():
            buffer.write(f"# {key}={value}\n")
        writer = csv.writer(buffer)
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buffer.getvalue().rstrip("\n")
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _rank_payload(config, reported, extra=None):
    payload = {"config": config, "ranks": reported.as_dicts()}
    if extra:
        payload.update(extra)
    return payload


def cmd_similarity(args):
    corpus = _corpus_from(args)
    similarity = build_similarity_matrix(corpus)
    destination = args.output or "similarity.csv"
    write_matrix_csv(similarity.values, destination)
    print(len(corpus))
    return 0


def _transition_for(corpus, threshold):
    similarity = build_similarity_matrix(corpus)
    return to_transition(threshold_adjacency(similarity, threshold))


def cmd_rank(args):
    corpus = _corpus_from(args)
    transition = _transition_for(corpus, args.threshold)
    ranks = power_iteration(transition, tol=args.tol, max_iter=args.max_iter)
    reported = normalize_max_one(ranks, corpus.ids)
    config = {"command": "rank", "input": args.input or "<packaged>", "threshold": args.threshold}
    _emit(
        _rank_payload(config, reported),
        args,
        csv_rows=reported.rows(),
    )
    return 0


def cmd_robust(args):
    corpus = _corpus_from(args)
    transition = _transition_for(corpus, args.threshold)
    budget = _budget_for(len(corpus), args)
    result = solve_robust(transition, budget, corpus.ids)
    config = {
        "command": "robust",
        "input": args.input or "<packaged>",
        "threshold": args.threshold,
        "eps1": budget.eps1,
        "eps_col": budget.eps_col.tolist(),
    }
    _emit(
        _rank_payload(config, result.reported, {"objective": result.objective}),
        args,
        csv_rows=result.reported.rows(),
    )
    return 0


def cmd_comparative(args):
    corpus = _corpus_from(args)
    transition = _transition_for(corpus, args.threshold)
    budget = _budget_for(len(corpus), args)
    n_verified = args.n_verified if args.n_verified is not None else corpus.n_verified
    result = comparative_rank(transition, n_verified, budget, corpus.ids)
    config = {
        "command": "comparative",
        "input": args.input or "<packaged>",
        "threshold": args.threshold,
        "eps1": budget.eps1,
        "eps_col": budget.eps_col.tolist(),
        "n_verified": n_verified,
    }
    _emit(
        _rank_payload(
            config,
            result.reported,
            {"objective": result.objective, "simplex_point": result.simplex_point.tolist()},
        ),
        args,
        csv_rows=result.reported.rows(),
    )
    return 0


def cmd_simulate(args):
    corpus = _corpus_from(args)
    transition = _transition_for(corpus, args.threshold)
    n = len(corpus)
    uset = UncertaintySet(
        existing=BudgetedBox.uniform(n, args.eps_xi, args.eps_xi_col),
        new_rows=BudgetedBox.uniform(n, args.eps_psi, args.eps_psi_col),
        growth=GrowthModel.balanced(args.growth),
    )
    budget = uset.to_robust_budget()
    result = solve_robust(transition, budget, corpus.ids)
    report = empirical_max_residual(
        transition, result.x1.values, uset, args.samples, args.seed
    )
    config = {
        "command": "simulate",
        "input": args.input or "<packaged>",
        "threshold": args.threshold,
        "eps_xi": args.eps_xi,
        "eps_xi_col": args.eps_xi_col,
        "eps_psi": args.eps_psi,
        "eps_psi_col": args.eps_psi_col,
        "growth": args.growth,
        "samples": args.samples,
        "seed": args.seed,
    }
    payload = {"config": config, "report": report.as_dict()}
    _emit(payload, args, csv_rows=[list(report.as_dict().values())])
    return 0 if report.violations == 0 else 6


def cmd_reproduce_tables(args):
    reference = load_reference_tables()
    corpus = load_packaged_corpus()
    if corpus.ids != reference["ids"]:
        raise SetupError("packaged cluster and reference tables disagree on ids")
    similarity = build_similarity_matrix(corpus)
    graphs = {}
    for label in reference["thresholds"]:
        transition = to_transition(threshold_adjacency(similarity, float(label)))
        graphs[label] = (transition, normalize_max_one(power_iteration(transition), corpus.ids))
    columns = []
    for budget_label in reference["budgets"]:
        eps = float(budget_label)
        budget = RobustBudget.broadcast(len(corpus), eps, eps)
        for threshold_label, (transition, plain) in graphs.items():
            robust = solve_robust(transition, budget, corpus.ids)
            for method, computed, expected in (
                ("lexrank", plain.normalized, reference["lexrank"][threshold_label]),
                (
                    "robust",
                    robust.reported.normalized,
                    reference["robust"][budget_label][threshold_label],
                ),
            ):
                deviations = [abs(c - e) for c, e in zip(computed.tolist(), expected)]
                columns.append(
                    {
                        "method": method,
                        "threshold": threshold_label,
                        "budget": budget_label,
                        "computed": [round(v, 6) for v in computed.tolist()],
                        "reference": expected,
                        "deviation": [round(d, 6) for d in deviations],
                        "max_deviation": round(max(deviations), 6),
                    }
                )
    payload = {
        "config": {"command": "reproduce-tables"},
        "ids": corpus.ids,
        "columns": columns,
        "max_deviation_overall": max(c["max_deviation"] for c in columns),
    }
    rows = []
    for column in columns:
        rows.append(
            [column["method"], column["threshold"], column["budget"], column["max_deviation"]]
            + column["deviation"]
        )
    _emit(payload, args, csv_rows=rows, csv_header=["method", "threshold", "budget", "max_dev"] + corpus.ids)
    return 0


def cmd_verify(args):
    """Run the dual-norm identity suite on random instances; exit 0 iff clean."""
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(label, worst, tolerance):
        nonlocal failures
        ok = worst <= tolerance
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {label}: worst gap {worst:.3e} (tolerance {tolerance:g})")

    worst = 0.0
    for _ in range(args.instances):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        box = BudgetedBox(rng.uniform(0.0, 3.0) + 1e-9, rng.uniform(0.0, 3.0, size=n))
        support = dualnorms.box_l1_support(x, box).value
        value = dualnorms.decomposition_norm(x, box).value
        worst = max(worst, abs(box.eps_total * value - support))
    report("l1 support vs decomposition duality", worst, 1e-8)

    worst = 0.0
    for _ in range(args.instances):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n)
        box = BudgetedBox(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0, size=n))
        support = dualnorms.box_l2_support(x, box).value
        value = dualnorms.decomposition_norm_l2(x, box)
        worst = max(worst, abs(value - support))
    report("l2 support vs decomposition duality", worst, 1e-6)

    worst = 0.0
    for _ in range(args.instances):
        blocks = int(rng.integers(1, 4))
        a0 = rng.normal(size=int(rng.integers(1, 5)))
        directions = [rng.normal(size=int(rng.integers(1, 5))) for _ in range(blocks)]
        radii = rng.uniform(0.0, 2.0, size=blocks)
        best = dualnorms.frobenius_worst_case(a0, directions, radii)
        attained = a0.copy()
        for xi, a in zip(best.maximizers, directions):
            attained = attained + xi @ a
        worst = max(worst, abs(np.linalg.norm(attained) - best.value))
    report("frobenius worst case attainment", worst, 1e-9)

    worst = 0.0
    for _ in range(args.instances):
        m = int(rng.integers(1, 7))
        weights = rng.uniform(0.0, 2.0, size=m)
        closed, direct = dualnorms._simplex_minimum_routes(m, weights)
        worst = max(worst, abs(closed - direct))
    report("simplex minimum closed form vs LP", worst, 1e-9)

    return 0 if failures == 0 else 6


def _add_io_flags(parser, with_format=True):
    parser.add_argument("--input", help="sentence file (default: packaged news cluster)")
    parser.add_argument("--output", help="destination file (default: stdout)")
    if with_format:
        parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_budget_flags(parser):
    parser.add_argument("--eps1", type=float, required=True, help="total perturbation budget")
    parser.add_argument(
        "--eps-col",
        dest="eps_col",
        type=float,
        default=0.0,
        help="per-column budget broadcast to every column",
    )
    parser.add_argument(
        "--eps-col-file",
        dest="eps_col_file",
        help="CSV with one budget per column, overriding --eps-col",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robust-lexrank",
        description="Sentence ranking over similarity graphs, plain and robust.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("similarity", help="write the pairwise similarity matrix as CSV")
    _add_io_flags(p, with_format=False)
    p.set_defaults(handler=cmd_similarity)

    p = commands.add_parser("rank", help="plain ranking via power iteration")
    _add_io_flags(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    p.set_defaults(handler=cmd_rank)

    p = commands.add_parser("robust", help="robust ranking via linear programming")
    _add_io_flags(p)
    p.add_argument("--threshold", type=float, required=True)
    _add_budget_flags(p)
    p.set_defaults(handler=cmd_robust)

    p = commands.add_parser("comparative", help="score generated sentences against verified ones")
    _add_io_flags(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--n-verified", dest="n_verified", type=int)
    _add_budget_flags(p)
    p.set_defaults(handler=cmd_comparative)

    p = commands.add_parser("simulate", help="sample perturbed matrices and check the bound")
    _add_io_flags(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--eps-xi", dest="eps_xi", type=float, default=0.5)
    p.add_argument("--eps-xi-col", dest="eps_xi_col", type=float, default=0.1)
    p.add_argument("--eps-psi", dest="eps_psi", type=float, default=0.5)
    p.add_argument("--eps-psi-col", dest="eps_psi_col", type=float, default=0.1)
    p.add_argument("--growth", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_simulate)

    p = commands.add_parser(
        "reproduce-tables",
        help="compare computed ranks against the committed reference tables",
    )
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_reproduce_tables)

    p = commands.add_parser("verify", help="run the dual-norm identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RobustLexRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
