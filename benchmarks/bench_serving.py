"""CI serving benchmark: micro-batching latency/throughput gate.

Drives 1, 8 and 64 concurrent asyncio clients through the
:class:`~repro.serve.ServingEngine` over one warm LEMP engine — an Above-θ
workload on a bucket-rich index, the regime where per-call bucket-loop
overhead dominates single-row requests — and compares them against the
same requests issued one at a time in a plain serial loop.  Reports
per-level latency percentiles (p50/p95/p99) and throughput, and enforces
two gates:

* **Byte + counter equality**: every client's served result must be
  byte-identical to its serial-loop counterpart, and the engine's integer
  work counters for a served sweep must equal the serial sweep's exactly.
* **Amortisation speedup**: the 64-client micro-batched sweep must beat
  64 sequential single-request calls by at least ``--min-speedup``
  (default 1.5x).  The win comes from overhead amortisation, not
  parallelism — coalescing N single-row requests into one solver call
  turns N passes over the bucket list into one — so the gate holds on a
  single-core CI box.  BLAS runs on one thread (set before numpy loads,
  recorded as ``blas_threads``), so OpenBLAS thread scheduling cannot slow
  one side of the comparison.

Run locally with::

    PYTHONPATH=src python benchmarks/bench_serving.py

The report is written to ``BENCH_serving.json`` (``--output``); pass
``--commit-path`` to also refresh a committed baseline copy.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import asyncio
import gc
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.datasets.synthetic import synthetic_factors
from repro.engine import RetrievalEngine
from repro.serve import ServingEngine

#: Counters that must match exactly between the serial and served sweeps.
COUNTERS = (
    "num_queries", "candidates", "results", "inner_products",
    "buckets_examined", "buckets_pruned",
)

#: Concurrency levels reported (the last one carries the speedup gate).
CLIENT_LEVELS = (1, 8, 64)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes", type=int, default=6000, help="probe rows")
    parser.add_argument("--rank", type=int, default=48, help="factor rank")
    parser.add_argument("--theta", type=float, default=0.70, help="Above-theta threshold")
    parser.add_argument("--max-bucket-size", type=int, default=60,
                        help="LEMP bucket-size cap (more buckets = the per-call "
                             "overhead regime micro-batching amortises)")
    parser.add_argument("--requests", type=int, default=64,
                        help="total requests per sweep (split among the clients)")
    parser.add_argument("--rows", type=int, default=1, help="query rows per request")
    parser.add_argument("--max-batch-rows", type=int, default=64,
                        help="serving micro-batch flush budget")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per level (best is kept)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required 64-client speedup over the serial loop")
    parser.add_argument("--mmap-index", action="store_true",
                        help="save the fitted index and serve from a read-only "
                             "memory-mapped reload — the WorkerPool deployment "
                             "shape, with the index arrays mapped from disk")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--output", type=Path, default=Path("BENCH_serving.json"),
                        help="JSON report path")
    parser.add_argument("--commit-path", type=Path, default=None,
                        help="also write the report to this path (committed baseline)")
    return parser.parse_args(argv)


def counter_snapshot(engine) -> dict[str, int]:
    return {name: getattr(engine.stats, name) for name in COUNTERS}


def counter_delta(engine, before: dict[str, int]) -> dict[str, int]:
    return {name: getattr(engine.stats, name) - before[name] for name in COUNTERS}


def results_equal(expected, actual) -> bool:
    return bool(
        np.array_equal(expected.query_ids, actual.query_ids)
        and np.array_equal(expected.probe_ids, actual.probe_ids)
        and np.array_equal(expected.scores, actual.scores)
    )


def serve_sweep(engine, requests, num_clients, args):
    """One concurrent sweep: per-request results, latencies, wall seconds."""

    async def drive():
        per_client = [requests[index::num_clients] for index in range(num_clients)]
        slots = [list(range(len(requests)))[index::num_clients] for index in range(num_clients)]
        results: list = [None] * len(requests)
        latencies: list = [None] * len(requests)

        async def client(blocks, positions):
            for block, position in zip(blocks, positions):
                started = time.perf_counter()
                results[position] = await serving.above_theta(block, args.theta)
                latencies[position] = time.perf_counter() - started

        async with ServingEngine(engine, max_batch_rows=args.max_batch_rows) as serving:
            started = time.perf_counter()
            await asyncio.gather(
                *(client(blocks, positions)
                  for blocks, positions in zip(per_client, slots))
            )
            wall = time.perf_counter() - started
        return results, latencies, wall, serving

    return asyncio.run(drive())


def percentile_ms(latencies, percentile) -> float:
    return round(float(np.percentile(latencies, percentile)) * 1e3, 3)


def run_bench(args: argparse.Namespace) -> dict:
    """Run the benchmark; ``--mmap-index`` serves from a temporary directory removed after."""
    index_root = Path(tempfile.mkdtemp(prefix="bench_serving_idx_"))
    try:
        return _run(args, index_root)
    finally:
        # _run has returned: drop its mapped engines before their files go.
        gc.collect()
        shutil.rmtree(index_root, ignore_errors=True)


def _run(args: argparse.Namespace, index_root: Path) -> dict:
    probes = synthetic_factors(args.probes, rank=args.rank, length_cov=0.8, seed=args.seed)
    queries = synthetic_factors(
        args.requests * args.rows, rank=args.rank, length_cov=0.8, seed=args.seed + 1
    )
    requests = [
        queries[index * args.rows:(index + 1) * args.rows]
        for index in range(args.requests)
    ]

    engine = RetrievalEngine(
        "lemp:LI", seed=args.seed, max_bucket_size=args.max_bucket_size
    ).fit(probes)
    if args.mmap_index:
        # Serve from a read-only mapped reload of the just-fitted index — the
        # shape a WorkerPool deployment runs in, with the index arrays paged
        # in from disk instead of copied into RAM.
        index_dir = index_root / "index"
        engine.save(index_dir)
        engine = RetrievalEngine.load(index_dir, mmap_mode="r")
    engine.above_theta(queries, args.theta)  # warm: tunes once, shared by every sweep

    # Serial-loop baseline: the same requests, one engine call each.
    def serial_sweep():
        return [engine.above_theta(block, args.theta) for block in requests]

    serial_sweep()  # warm the per-request batch shape
    best_serial = float("inf")
    for _ in range(args.repeats):
        started = time.perf_counter()
        serial_results = serial_sweep()
        best_serial = min(best_serial, time.perf_counter() - started)
    before = counter_snapshot(engine)
    serial_results = serial_sweep()
    serial_counters = counter_delta(engine, before)

    levels: dict[str, dict] = {}
    equality_ok = True
    counters_ok = True
    batches_by_level: dict[int, int] = {}
    for num_clients in CLIENT_LEVELS:
        best_wall = float("inf")
        level_latencies = None
        for _ in range(args.repeats):
            before = counter_snapshot(engine)
            served, latencies, wall, serving = serve_sweep(
                engine, requests, num_clients, args
            )
            served_counters = counter_delta(engine, before)
            if wall < best_wall:
                best_wall, level_latencies = wall, latencies
            equality_ok = equality_ok and all(
                results_equal(expected, actual)
                for expected, actual in zip(serial_results, served)
            )
            counters_ok = counters_ok and served_counters == serial_counters
        batches_by_level[num_clients] = len(serving.flushes)
        levels[str(num_clients)] = {
            "wall_seconds": round(best_wall, 5),
            "throughput_rps": round(args.requests / best_wall, 1),
            "latency_ms": {
                "p50": percentile_ms(level_latencies, 50),
                "p95": percentile_ms(level_latencies, 95),
                "p99": percentile_ms(level_latencies, 99),
            },
            "batches_flushed": len(serving.flushes),
        }

    top_level = CLIENT_LEVELS[-1]
    speedup = best_serial / levels[str(top_level)]["wall_seconds"]
    checks = {
        "byte_equality": {
            "passed": equality_ok,
            "detail": "every served result must equal its serial-loop counterpart",
        },
        "counter_equality": {
            "passed": counters_ok,
            "detail": "served sweep counters must equal the serial sweep's exactly",
        },
        "microbatch_speedup": {
            "passed": speedup >= args.min_speedup,
            "speedup_over_serial_loop": round(speedup, 3),
            "min_speedup": args.min_speedup,
            "detail": (
                f"{top_level} concurrent micro-batched clients must beat "
                f"{args.requests} sequential calls by >= {args.min_speedup}x"
            ),
        },
        "coalescing": {
            "passed": batches_by_level[top_level] < args.requests,
            "batches_flushed": batches_by_level[top_level],
            "detail": "the top concurrency level must actually coalesce requests",
        },
    }
    return {
        "benchmark": "bench_serving",
        "library_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "dataset": {
            "probes": args.probes, "rank": args.rank, "theta": args.theta,
            "max_bucket_size": args.max_bucket_size,
            "requests": args.requests, "rows": args.rows, "seed": args.seed,
            "max_batch_rows": args.max_batch_rows,
            "mmap_index": args.mmap_index,
        },
        "serial_loop": {
            "wall_seconds": round(best_serial, 5),
            "throughput_rps": round(args.requests / best_serial, 1),
        },
        "clients": levels,
        "speedup_over_serial_loop": round(speedup, 3),
        "checks": checks,
        "passed": all(check["passed"] for check in checks.values()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    report = run_bench(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    if args.commit_path is not None:
        args.commit_path.parent.mkdir(parents=True, exist_ok=True)
        args.commit_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        failed = [name for name, check in report["checks"].items() if not check["passed"]]
        print(f"bench-serving gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("bench-serving gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
