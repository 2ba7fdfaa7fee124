"""In-memory span recorder that wraps the package's public functions.

The traced run swaps each wrapped function for a recording wrapper at
every name it is bound to inside the package (``robust.solve`` and
``dualnorms.solve`` are the same object as ``lpsolver.solve``, so all
three names get the wrapper). Nothing under ``src/`` changes; the
originals are put back by ``uninstall``.

A span is ``[name, start, end, parent, request]``. Spans are recorded only
while a request is open, so checks run between requests pass through
untraced. Counts derived from a call's inputs or outputs are taken after
the span closes, inside a ``trace.observe`` span of their own, so they do
not inflate any layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> layer. The span name is the module that defines the function
# plus the function name; the layer groups spans into the reported metrics.
LAYER_OF = {
    "corpus.read_corpus": "corpus.read",
    "corpus.build_similarity_matrix": "corpus.similarity",
    "corpus.idf_modified_cosine": "corpus.similarity",
    "graph.threshold_adjacency": "graph.transition",
    "graph.to_transition": "graph.transition",
    "ranking.power_iteration": "ranking.power_iteration",
    "ranking.normalize_max_one": "ranking.normalize",
    "robust.build_robust_program": "robust.build",
    "robust.build_growth_program": "robust.build",
    "lpsolver.LinearProgram.build": "robust.build",
    "robust.solve_robust": "robust.check",
    "robust.solve_growth": "robust.check",
    "robust.comparative_rank": "robust.check",
    "robust.worst_case_upper_bound": "robust.check",
    "lpsolver.solve": "lpsolver.solve",
    "dualnorms.box_l1_support": "dualnorms.support",
    "dualnorms.box_l2_support": "dualnorms.support",
    "dualnorms.frobenius_worst_case": "dualnorms.support",
    "dualnorms.decomposition_norm": "dualnorms.decomposition",
    "dualnorms.decomposition_norm_l2": "dualnorms.decomposition",
    "dualnorms.weighted_decomposition_norm": "dualnorms.decomposition",
    "dualnorms.simplex_decomposition_min": "dualnorms.decomposition",
    "simulator.sample_perturbation": "simulator.sample",
    "simulator.sample_fixed_size_shift": "simulator.sample",
    "simulator.residual": "simulator.residual",
    "simulator.empirical_max_residual": "simulator.loop",
    "simulator.fixed_size_residual_check": "simulator.loop",
    "cli.main": "cli.self",
    "bench.request": "bench.harness",
    "trace.observe": "trace.observe",
}

# Layers whose self time is program work; the rest is harness or tracing.
PROGRAM_LAYERS = sorted(
    {layer for layer in LAYER_OF.values() if not layer.startswith(("bench.", "trace."))}
)

MODEL_CALLS = ("robust.solve_robust", "robust.solve_growth", "robust.comparative_rank")
SUPPORT_CALLS = tuple(n for n, layer in LAYER_OF.items() if layer == "dualnorms.support")
DECOMPOSITION_CALLS = tuple(
    n for n, layer in LAYER_OF.items() if layer == "dualnorms.decomposition"
)
SAMPLE_CALLS = ("simulator.sample_perturbation", "simulator.sample_fixed_size_shift")


def tableau_bytes_computed(lp) -> int:
    """Bytes of the phase-one simplex tableau implied by a model.

    Derived from the model alone, following the documented standard form:
    free variables split in two, finite upper bounds on lower-bounded
    variables become rows, ``=`` rows become two inequalities, one slack
    per row and one artificial per row with a negative right-hand side.
    A computed size, not a measured allocation.
    """
    lower, upper = lp.lower, lp.upper
    free = np.isneginf(lower) & np.isposinf(upper)
    capped = np.isfinite(lower) & np.isfinite(upper)
    shift = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    shifted = lp.rhs - lp.rows @ shift if lp.n_rows else np.zeros(0)
    relations = np.asarray(lp.relations, dtype=object)
    rhs = np.concatenate(
        [
            shifted[relations != ">="],
            -shifted[relations != "<="],
            upper[capped] - lower[capped],
        ]
    )
    rows = rhs.size
    columns = lp.n_vars + int(free.sum()) + rows + int((rhs < 0).sum()) + 1
    return 8 * rows * columns


def _observe_similarity(tracer, args, result):
    values = result.values
    n = values.shape[0]
    upper = np.triu(values, 1)
    tracer.count("pairs", n * (n - 1) // 2)
    tracer.count("shared_pairs", int(np.count_nonzero(upper)))


def _observe_adjacency(tracer, args, result):
    n = result.values.shape[0]
    tracer.count("edges", float(result.values.sum() - np.trace(result.values)))
    tracer.count("edge_slots", n * (n - 1))


def _observe_solve(tracer, args, result):
    lp = args[0]
    tracer.peak("lp_rows", lp.n_rows)
    tracer.peak("lp_vars", lp.n_vars)
    tracer.peak("tableau_bytes", tableau_bytes_computed(lp))


def _observe_simulation(tracer, args, result):
    tracer.count("violations", result.violations)


OBSERVERS = {
    "corpus.build_similarity_matrix": _observe_similarity,
    "graph.threshold_adjacency": _observe_adjacency,
    "lpsolver.solve": _observe_solve,
    "simulator.empirical_max_residual": _observe_simulation,
}


class Tracer:
    """Records spans and counts for the requests opened on it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, key, value):
        self.counts[self._request][key] += value

    def peak(self, key, value):
        slot = self.counts[self._request]
        slot[key] = max(slot[key], value)

    def request(self, request_id, func, *args):
        """Run ``func(*args)`` as one traced request; returns its result."""
        self._request = request_id
        self._open("bench.request")
        try:
            return func(*args)
        finally:
            self._close()
            self._request = None

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, name, func):
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return func(*args, **kwargs)
            self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                self._open("trace.observe")
                try:
                    observe(self, args, result)
                finally:
                    self._close()
            return result

        return wrapper

    def install(self):
        """Bind a recording wrapper at every package name of each traced function."""
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "robust_lexrank"]
        lpsolver = sys.modules["robust_lexrank.lpsolver"]
        for name in LAYER_OF:
            module_name, _, attr = name.partition(".")
            if module_name in ("bench", "trace") or "." in attr:
                continue  # harness spans, and the classmethod handled below
            original = getattr(sys.modules[f"robust_lexrank.{module_name}"], attr)
            wrapper = self._wrapper(name, original)
            for module in package:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, bound, original))
                        setattr(module, bound, wrapper)
        program = lpsolver.LinearProgram
        original_build = program.__dict__["build"]
        self._patches.append((program, "build", original_build))
        program.build = classmethod(
            self._wrapper("lpsolver.LinearProgram.build", original_build.__func__)
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------
    def per_request(self):
        """Per request id: self seconds per layer, span counts and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _, request) in enumerate(self.spans):
            entry = out.setdefault(
                request,
                {"self": defaultdict(float), "calls": defaultdict(int), "total": 0.0},
            )
            entry["self"][LAYER_OF[name]] += (end - start) - child[index]
            entry["calls"][name] += 1
            if name == "bench.request":
                entry["total"] += end - start
        for request, entry in out.items():
            entry["counts"] = self.counts[request]
        return out

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
