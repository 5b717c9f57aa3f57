"""CI smoke benchmark: kernel and parallel-determinism gates.

Runs a tiny synthetic Row-Top-k / Above-θ workload through the
:class:`~repro.engine.facade.RetrievalEngine` three ways — blocked kernel
vs. the einsum reference, serially, and the blocked kernel with
``workers=N`` — and writes the timings and check outcomes to a JSON report
(``BENCH_smoke.json``).

The script exits non-zero (failing the CI ``bench-smoke`` job) when

* the blocked verification kernel is slower end-to-end than the einsum
  reference beyond ``--margin`` (the kernel must at least match einsum
  throughput — the reason it exists), or
* parallel results are not byte-identical to serial ones, or the parallel
  run's cumulative counters drift from the serial run's.

BLAS runs on one thread (set before numpy loads, recorded as
``blas_threads``): the kernel gate compares two kernels, not BLAS thread
scheduling.  Timings take the best of ``--repeats`` runs on warmed engines,
which is robust against CI neighbours; the determinism checks are exact and
noise-free.  Run locally with::

    PYTHONPATH=src python benchmarks/bench_smoke.py
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core.kernels import get_kernel, use_kernel
from repro.datasets.synthetic import synthetic_factors
from repro.engine import RetrievalEngine

#: Statistics counters that must match exactly between the serial and
#: parallel runs of the same warm engine.  (The comparison deliberately uses
#: one engine with ``workers`` toggled: LEMP's tuner picks phi/switch points
#: from *measured* sample costs, so two independently tuned engines may
#: count candidates differently under timing jitter; on a shared warm
#: tuning cache every counter is deterministic.)
COUNTERS = (
    "num_queries", "candidates", "results", "inner_products",
    "buckets_examined", "buckets_pruned",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes", type=int, default=8000, help="probe rows")
    parser.add_argument("--queries", type=int, default=1200, help="query rows")
    parser.add_argument("--rank", type=int, default=64, help="factor rank")
    parser.add_argument("--k", type=int, default=25, help="Row-Top-k k")
    parser.add_argument("--theta", type=float, default=0.70, help="Above-theta threshold")
    parser.add_argument("--batch-size", type=int, default=150, help="engine batch size")
    parser.add_argument("--workers", type=int, default=4, help="parallel worker threads")
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats (best is kept)")
    parser.add_argument(
        "--margin", type=float, default=1.10,
        help="blocked/einsum time ratio above which the gate fails",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_smoke.json"), help="JSON report path"
    )
    parser.add_argument(
        "--commit-path", type=Path, default=None,
        help="also write the report to this path (for committed baselines at "
             "the repo root, kept separate from --output scratch runs)",
    )
    return parser.parse_args(argv)


def best_of(repeats: int, run) -> float:
    """Best wall-clock seconds of ``repeats`` invocations of ``run``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def workload(engine: RetrievalEngine, queries, args):
    """The timed unit: one chunked Row-Top-k plus one chunked Above-θ call."""
    top = engine.row_top_k(queries, args.k, batch_size=args.batch_size)
    hits = engine.above_theta(queries, args.theta, batch_size=args.batch_size)
    return top, hits


def counter_snapshot(engine) -> dict[str, int]:
    return {name: getattr(engine.stats, name) for name in COUNTERS}


def counter_delta(engine, before: dict[str, int]) -> dict[str, int]:
    return {name: getattr(engine.stats, name) - before[name] for name in COUNTERS}


def run_smoke(args: argparse.Namespace) -> dict:
    probes = synthetic_factors(args.probes, rank=args.rank, length_cov=0.8, seed=args.seed)
    queries = synthetic_factors(args.queries, rank=args.rank, length_cov=0.8, seed=args.seed + 1)

    timings: dict[str, float] = {}

    # Kernel gate: two serially-executed engines, einsum vs blocked kernel.
    with use_kernel("einsum"):
        einsum_engine = RetrievalEngine("lemp:LI", seed=args.seed).fit(probes)
        workload(einsum_engine, queries, args)  # warm-up: tunes, builds lazy indexes
        timings["serial_einsum"] = best_of(args.repeats, lambda: workload(einsum_engine, queries, args))

    engine = RetrievalEngine("lemp:LI", seed=args.seed).fit(probes)
    workload(engine, queries, args)
    timings["serial_blocked"] = best_of(args.repeats, lambda: workload(engine, queries, args))

    checks: dict[str, dict] = {}
    ratio = timings["serial_blocked"] / timings["serial_einsum"]
    checks["kernel_throughput"] = {
        "passed": ratio <= args.margin,
        "blocked_over_einsum_time_ratio": round(ratio, 4),
        "margin": args.margin,
        "detail": "blocked kernel must be at least as fast as einsum (within margin)",
    }

    # Parallel gate: the same warm blocked engine with workers toggled, so
    # the cached tuning is shared and every counter is deterministic.
    before = counter_snapshot(engine)
    top_serial, hits_serial = workload(engine, queries, args)
    serial_deltas = counter_delta(engine, before)

    engine.workers = args.workers
    timings["parallel_blocked"] = best_of(args.repeats, lambda: workload(engine, queries, args))
    before = counter_snapshot(engine)
    top_parallel, hits_parallel = workload(engine, queries, args)
    parallel_deltas = counter_delta(engine, before)

    identical = (
        np.array_equal(top_serial.indices, top_parallel.indices)
        and np.array_equal(top_serial.scores, top_parallel.scores)
        and np.array_equal(hits_serial.query_ids, hits_parallel.query_ids)
        and np.array_equal(hits_serial.probe_ids, hits_parallel.probe_ids)
        and np.array_equal(hits_serial.scores, hits_parallel.scores)
    )
    counter_drift = {
        name: {"serial": serial_deltas[name], "parallel": parallel_deltas[name]}
        for name in COUNTERS
        if serial_deltas[name] != parallel_deltas[name]
    }
    sharded = [call.workers for call in engine.history[-2:]]
    checks["parallel_determinism"] = {
        "passed": identical and not counter_drift and all(w > 1 for w in sharded),
        "results_byte_identical": identical,
        "counter_drift": counter_drift,
        "call_workers": sharded,
        "detail": f"workers={args.workers} must return byte-identical results and stats",
    }

    speedup = timings["serial_blocked"] / timings["parallel_blocked"]
    report = {
        "benchmark": "bench_smoke",
        "library_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_kernel": get_kernel(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "dataset": {
            "probes": args.probes, "queries": args.queries, "rank": args.rank,
            "k": args.k, "theta": args.theta, "batch_size": args.batch_size,
            "seed": args.seed,
        },
        "timings_seconds": {label: round(value, 5) for label, value in timings.items()},
        "parallel_speedup_over_serial": round(speedup, 3),
        "checks": checks,
        "passed": all(check["passed"] for check in checks.values()),
    }
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    report = run_smoke(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    if args.commit_path is not None:
        args.commit_path.parent.mkdir(parents=True, exist_ok=True)
        args.commit_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        failed = [name for name, check in report["checks"].items() if not check["passed"]]
        print(f"bench-smoke gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("bench-smoke gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
