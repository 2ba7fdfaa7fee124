"""Benchmark entry point: one closed-loop client, one process.

    python3 perfbench/run.py --workload robust-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced pass, the tracing overhead and a one-off size sweep. Lines
before it are a human-readable summary. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: the box has two cores and other tenants; recorded below.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "robust_lexrank" / "__init__.py").is_file():
        print(f"error: no robust_lexrank package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import robust_lexrank

    if Path(robust_lexrank.__file__).resolve().parent != SRC / "robust_lexrank":
        print(f"error: imported {robust_lexrank.__file__}, not the checkout", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, WORKDIR, args.seed)
    if args.trace:
        result = harness.traced_run(workload, ROOT, args.seed, args.seconds, WORKDIR)
    else:
        result = harness.plain_run(workload, args.seconds, ROOT)
    for line in harness.summary(workload, args, result, BLAS_THREADS):
        print(line)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(result.metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(names ^ set(result.metrics))}",
              file=sys.stderr)
        return 2
    print(harness.result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
