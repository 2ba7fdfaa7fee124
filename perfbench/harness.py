"""Closed loop, set-up timing, traced pass, size sweep and result line."""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import mean, median, quantiles
from typing import Callable

import numpy as np

import robust_lexrank as rl
from spans import (
    DECOMPOSITION_CALLS,
    MODEL_CALLS,
    PROGRAM_LAYERS,
    SAMPLE_CALLS,
    SUPPORT_CALLS,
    Tracer,
)
from workloads import Vocabulary, reference_similarity

SETUP_REPEATS = 9
SETUP_CODE = (
    "import robust_lexrank.cli as c; "
    "c.load_packaged_corpus(); c.load_generated_templates(); c.load_reference_tables()"
)
P90_MIN_REQUESTS = 100  # ten samples beyond the 90th percentile
STEPS = ("step1_s.mean", "step2_s.mean", "step3_s.mean")
SWEEP_SIMILARITY = (50, 100, 200, 800)
SWEEP_ROBUST = (50, 100, 200)
SWEEP_THRESHOLD = 0.1
SWEEP_EPS = 0.01
SWEEP_REPEATS = 3
REFERENCE_SENTENCES = 120
REFERENCE_TOPICS = 4
REFERENCE_TABLEAU = (480, 1000)  # about the phase-one tableau of the robust-dense models
REFERENCE_PIVOTS = 8
# Typical time of each reference kernel on the baseline host.
REFERENCE_NOMINAL_S = {"interpreter": 0.025, "pivot": 0.012}
REFERENCE_SHARE = 0.1  # kernel time per unit of request time in the closed loop

now = time.perf_counter


@dataclass
class Record:
    request: int
    seconds: float | None  # None when the request raised
    steps: tuple | None
    problems: list = field(default_factory=list)
    deferred: Callable | None = None


class Reference:
    """Fixed kernels that gauge the machine's current speed.

    On a shared host the same code runs up to about 40% slower for minutes
    at a time, while the process is on a CPU: CPU time rises with wall
    time, so the slowdown cannot be excluded by measuring CPU time. A
    kernel runs between timed requests and before each set-up, and the
    gated timings are multiplied by the kernel's ``REFERENCE_NOMINAL_S``
    over its measured time, which states them in seconds at the speed
    where the kernel takes its nominal time. The kernels run no code under
    test, so a change to the program cannot move them.

    Interpreter-bound and numpy-bound code slow down at different times,
    so there are two kernels and each workload names the one that tracks
    it. ``interpreter`` is the benchmark's own from-scratch similarity over
    every pair of a fixed corpus: dict, set and float work of the kind the
    similarity build, the CLI and the simulator do. ``pivot`` is a few
    rank-one updates of a fixed tableau the size of the robust-dense
    models', the update that dominates ``lpsolver`` time.
    """

    def __init__(self, root):
        rng = np.random.default_rng(0)
        self.bodies = Vocabulary(root).sentences(rng, REFERENCE_SENTENCES, REFERENCE_TOPICS)
        self.pairs = list(itertools.combinations(range(REFERENCE_SENTENCES), 2))

    def time(self, kind):
        t0 = now()
        if kind == "interpreter":
            reference_similarity(self.bodies, self.pairs)
        else:
            # Built per call and freed after: a tableau kept alive, or one
            # larger than the program's, would raise ``peak_rss_mb``.
            tableau = np.ones(REFERENCE_TABLEAU)
            for k in range(REFERENCE_PIVOTS):
                factors = tableau[:, k] * 1e-9  # small, so the values stay bounded
                tableau -= np.outer(factors, tableau[k])
        return now() - t0


def run_request(workload, i, tracer=None):
    """Make, time and check request ``i``; a failure is recorded, not raised."""
    request = workload.make_input(i)
    t0 = now()
    try:
        if tracer is None:
            result, steps = workload.run(request)
        else:
            result, steps = tracer.request(i, workload.run, request)
        elapsed = now() - t0
    except Exception as exc:  # a failed request is counted, not fatal
        traceback.print_exc()
        return Record(i, None, None, [f"request raised {exc!r}"])
    try:
        problems, deferred = workload.check(request, result)
    except Exception as exc:
        traceback.print_exc()
        problems, deferred = [f"check raised {exc!r}"], None
    return Record(i, elapsed, steps, problems, deferred)


def closed_loop(workload, seconds, reference):
    """One client for ``seconds``: each request starts when the last is checked.

    One untimed warm-up request first, so lazy imports and first-touch
    allocations stay out of the timings. Before each request the reference
    kernel runs at least once, and until its total time reaches
    ``REFERENCE_SHARE`` of the total request time so far: it samples the
    machine all through the run, long enough for its own jitter to average
    out. Returns the records and the kernel times.
    """
    workload.run(workload.make_input(0))
    records, kernel = [], []
    busy = 0.0
    start = now()
    while now() - start < seconds:
        while not kernel or sum(kernel) < REFERENCE_SHARE * busy:
            kernel.append(reference.time(workload.reference))
        records.append(run_request(workload, len(records)))
        busy += records[-1].seconds or 0.0
    return records, kernel


def run_deferred(records):
    for record in records:
        if record.deferred is not None:
            try:
                record.problems.extend(record.deferred())
            except Exception as exc:
                traceback.print_exc()
                record.problems.append(f"deferred check raised {exc!r}")
            record.deferred = None


def measure_setup(src):
    """Seconds for a fresh interpreter to import the CLI and load the fixtures."""
    t0 = now()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )  # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    return now() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _completed(records):
    done = [r for r in records if r.seconds is not None]
    if not done:
        raise SystemExit("error: no request completed; see the errors above")
    return done


@dataclass
class Result:
    records: list
    metrics: dict  # name -> (value, unit)
    notes: list = field(default_factory=list)


def plain_run(workload, seconds, root):
    """Gated timings in reference seconds; see ``Reference``.

    ``setup_s`` is scaled by the ``interpreter`` kernel on every workload:
    starting an interpreter and importing is interpreter-bound work.
    """
    reference = Reference(root)
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        kernel = reference.time("interpreter")
        setup_raw.append(measure_setup(root / "src"))
        setup.append(setup_raw[-1] * REFERENCE_NOMINAL_S["interpreter"] / kernel)
    records, kernel_times = closed_loop(workload, seconds, reference)
    rss = peak_rss_mb()  # before the deferred checks import scipy
    run_deferred(records)
    done = _completed(records)
    times = [r.seconds for r in done]
    failed = sum(1 for r in records if r.problems)
    # A request timing is a mean times nominal over the run's mean kernel
    # time: the ratio of summed request to summed kernel time.
    kernel = mean(kernel_times)
    nominal = REFERENCE_NOMINAL_S[workload.reference]
    scale = nominal / kernel
    metrics = {
        "setup_s": (median(setup), "s"),
        "request_s.mean": (mean(times) * scale, "s"),
        "sentences_per_s": (workload.sentences * len(done) / (sum(times) * scale), "1/s"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"{workload.reference} kernel mean {kernel:.6g} s over {len(kernel_times)} calls "
        f"(nominal {nominal:g} s): request timings scaled by {scale:.4f}",
        f"setup_s unscaled samples: {', '.join(f'{s:.4f}' for s in setup_raw)}",
        f"unscaled request_s.mean {mean(times):.6g} s, request_s.p50 {median(times):.6g} s "
        f"over {len(done)} requests",
    ]
    for index, (name, label) in enumerate(zip(STEPS, workload.steps)):
        stage = [r.steps[index] for r in done]
        metrics[name] = (mean(stage) * scale, "s")
        notes.append(f"unscaled {label}.mean {mean(stage):.6g} s, .p50 {median(stage):.6g} s")
    if len(done) >= P90_MIN_REQUESTS:
        p90 = quantiles(times, n=10)[-1]
        notes.append(f"unscaled request_s.p90 {p90:.6f} s over {len(done)} requests")
    else:
        notes.append(f"request_s.p90 not reported: {len(done)} requests < {P90_MIN_REQUESTS}")
    return Result(records, metrics, notes)


def _layer_row(entry):
    own, calls, counts = entry["self"], entry["calls"], entry["counts"]
    samples = sum(calls[n] for n in SAMPLE_CALLS)
    pairs = counts["pairs"]
    return {
        "corpus.read_s": (own["corpus.read"], "s"),
        "corpus.similarity_s": (own["corpus.similarity"], "s"),
        "corpus.pairs": (pairs, "count"),
        "corpus.shared_pairs_ratio": (counts["shared_pairs"] / pairs if pairs else 0.0, "ratio"),
        "graph.transition_s": (own["graph.transition"], "s"),
        "graph.edge_density": (
            counts["edges"] / counts["edge_slots"] if counts["edge_slots"] else 0.0,
            "ratio",
        ),
        "ranking.power_iteration_s": (own["ranking.power_iteration"], "s"),
        "robust.build_s": (own["robust.build"], "s"),
        "robust.check_s": (own["robust.check"], "s"),
        "robust.calls": (sum(calls[n] for n in MODEL_CALLS), "count"),
        "lpsolver.solve_s": (own["lpsolver.solve"], "s"),
        "lpsolver.solves": (calls["lpsolver.solve"], "count"),
        "lpsolver.rows": (counts["lp_rows"], "count"),
        "lpsolver.vars": (counts["lp_vars"], "count"),
        "lpsolver.tableau_bytes_computed": (counts["tableau_bytes"], "bytes"),
        "dualnorms.support_s": (own["dualnorms.support"], "s"),
        "dualnorms.support_calls": (sum(calls[n] for n in SUPPORT_CALLS), "count"),
        "dualnorms.decomposition_s": (own["dualnorms.decomposition"], "s"),
        "dualnorms.decomposition_calls": (sum(calls[n] for n in DECOMPOSITION_CALLS), "count"),
        "simulator.sample_s": (own["simulator.sample"] / samples if samples else 0.0, "s"),
        "simulator.samples": (samples, "count"),
        "simulator.residual_s": (own["simulator.residual"], "s"),
        "simulator.violations": (counts["violations"], "count"),
        "simulator.loop_s": (own["simulator.loop"], "s"),
        "cli.self_s": (own["cli.self"], "s"),
        "trace.accounted_ratio": (
            sum(own[layer] for layer in PROGRAM_LAYERS) / entry["total"],
            "ratio",
        ),
    }


def size_sweep(root, seed):
    """Similarity and ``solve_robust`` times at fixed sizes, medians of repeats."""
    vocabulary = Vocabulary(root)
    out = {}
    for n in SWEEP_SIMILARITY:
        rng = np.random.default_rng([seed, 4, n])
        corpus = rl.Corpus.verified(
            rl.Sentence(f"s{i + 1}", body)
            for i, body in enumerate(vocabulary.sentences(rng, n))
        )
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = now()
            similarity = rl.build_similarity_matrix(corpus)
            times.append(now() - t0)
        out[f"sweep.similarity_s.n{n}"] = (median(times), "s")
        if n not in SWEEP_ROBUST:
            continue
        p = rl.to_transition(rl.threshold_adjacency(similarity, SWEEP_THRESHOLD))
        budget = rl.RobustBudget.broadcast(n, SWEEP_EPS, SWEEP_EPS)
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = now()
            rl.solve_robust(p, budget)
            times.append(now() - t0)
        program = rl.build_robust_program(p, budget)
        out[f"sweep.robust_s.n{n}"] = (median(times), "s")
        out[f"sweep.lp_rows.n{n}"] = (program.n_rows, "count")
        out[f"sweep.lp_vars.n{n}"] = (program.n_vars, "count")
    return out


def traced_run(workload, root, seed, seconds, workdir):
    """Each request untraced and traced, in alternating order; then the size sweep.

    Interleaving pairs each traced request with an untraced run of the same
    input at nearly the same time, so machine drift cancels out of the
    overhead ratio. Wrappers are installed only around the traced runs.
    """
    tracer = Tracer()
    untraced, traced = [], []
    start = now()
    i = 0
    while now() - start < seconds:
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(run_request(workload, i))
                continue
            tracer.install()
            try:
                traced.append(run_request(workload, i, tracer))
            finally:
                tracer.uninstall()
        i += 1
    sweep = size_sweep(root, seed)
    records = untraced + traced
    run_deferred(records)
    done = _completed(traced)
    per_request = tracer.per_request()
    rows = [_layer_row(per_request[r.request]) for r in done]
    metrics = {
        name: (mean(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }
    traced_mean = mean(r.seconds for r in done)
    untraced_mean = mean(r.seconds for r in _completed(untraced))
    metrics["trace.request_s.mean"] = (traced_mean, "s")
    metrics["trace.overhead_ratio"] = (traced_mean / untraced_mean, "ratio")
    metrics.update(sweep)
    path = workdir / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    notes = [
        f"{len(done)} traced requests, {len(tracer.spans)} spans written to {path}",
        "not measured: simplex pivots, phase 1/2 split, standard-form time (no public boundary)",
    ]
    return Result(records, metrics, notes)


def summary(workload, args, result, blas_threads):
    failed = [r for r in result.records if r.problems]
    lines = [
        f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}: {workload.why}",
        "# one process, one closed-loop client; "
        + " ".join(f"{k}={v}" for k, v in blas_threads.items()),
        f"# requests attempted {len(result.records)} failed {len(failed)}",
    ]
    labels = dict(zip(STEPS, workload.steps))
    for name, (value, unit) in result.metrics.items():
        label = f" ({labels[name]}.mean)" if name in labels else ""
        lines.append(f"# {name}{label} {value:.6g} {unit}")
    lines.extend(f"# {note}" for note in result.notes)
    for record in failed[:5]:
        print(f"request {record.request} failed: {record.problems[:3]}", file=sys.stderr)
    return lines


def result_line(result):
    failed = sum(1 for r in result.records if r.problems)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(result.records),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )
