"""CI smoke benchmark: kernel, parallel, screening and compressed-generation gates.

Runs a tiny synthetic Row-Top-k / Above-θ workload through the
:class:`~repro.engine.facade.RetrievalEngine` four ways — serial vs.
``workers=N``, blocked kernel vs. the einsum reference — plus warm
single-query sweeps on a larger gate index with the quantized screening
and compressed generation tiers toggled, and writes the timings and check
outcomes to a JSON report (``BENCH_smoke.json``).

The script exits non-zero (failing the CI ``bench-smoke`` job) when any of

* the blocked verification kernel is slower end-to-end than the einsum
  reference beyond ``--margin`` (the kernel must at least match einsum
  throughput — the reason it exists), or
* parallel results are not byte-identical to serial ones, or the parallel
  run's cumulative counters drift from the serial run's, or
* the f16 quantized screening tier, toggled on the warm gate-index engine,
  is not byte-identical to the exact path, breaks the
  ``survivors + dropped == unscreened inner products`` counter split, fails
  to reduce the modelled verification bytes, or regresses beyond
  ``--margin``, or
* f16 compressed candidate generation (``gen_dtype``), toggled on the same
  warm gate-index engine, is not byte-identical to the exact scans, drops
  (or more than 1.5x inflates) candidates, fails to hold the resident
  generation-index bytes at ≤ 0.55x the exact sorted lists, does not report
  the knob in its plan (the ``repro explain`` line), or regresses beyond
  ``--margin``.

Timings take the best of ``--repeats`` runs on warmed engines, which is
robust against CI neighbours; the determinism checks are exact and
noise-free.  Run locally with::

    PYTHONPATH=src python benchmarks/bench_smoke.py
"""

from __future__ import annotations

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
    parser.add_argument(
        "--probe-gate-probes", type=int, default=24000,
        help="probe rows of the gate index the single-query sweeps run on",
    )
    parser.add_argument(
        "--single-queries", type=int, default=30,
        help="queries of the single-query sweeps",
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

    # Single-query sweeps: warm single-query Above-θ calls on a dedicated,
    # larger gate index, serial throughout, with a tier toggled between
    # sweeps on one engine so tuning is shared and the byte-identity /
    # counter checks are exact.
    gate_probes = synthetic_factors(
        args.probe_gate_probes, rank=args.rank, length_cov=0.8, seed=args.seed + 2
    )
    gate_engine = RetrievalEngine("lemp:LI", seed=args.seed).fit(gate_probes)
    singles = [queries[row:row + 1] for row in range(min(args.single_queries, len(queries)))]

    def single_sweep():
        return [gate_engine.above_theta(single, args.theta) for single in singles]

    single_sweep()  # warm-up: tunes, builds lazy indexes

    # Screening gate: the same warm gate-index engine with a quantized f16
    # screening tier toggled on (workers=1 both sides, so tuning is shared).
    # The screened sweep must return byte-identical results, scan fewer
    # modelled verification bytes (f16 reads for every screened candidate +
    # f64 reads for survivors, vs f64 reads for every candidate), keep the
    # counter split exact, and stay inside the wall-clock margin — screening
    # may not slow the exact path down.
    before = counter_snapshot(gate_engine)
    unscreened_results = single_sweep()
    unscreened_deltas = counter_delta(gate_engine, before)

    gate_engine.screen_dtype = "f16"
    single_sweep()  # warm-up: builds and caches the f16 tier
    best_unscreened = best_screened = float("inf")
    for _ in range(max(args.repeats, 5)):
        gate_engine.screen_dtype = None
        started = time.perf_counter()
        single_sweep()
        best_unscreened = min(best_unscreened, time.perf_counter() - started)
        gate_engine.screen_dtype = "f16"
        started = time.perf_counter()
        single_sweep()
        best_screened = min(best_screened, time.perf_counter() - started)
    timings["single_query_unscreened"] = best_unscreened
    timings["single_query_screened_f16"] = best_screened

    before = counter_snapshot(gate_engine)
    screen_before = (gate_engine.stats.screen_products, gate_engine.stats.screen_dropped)
    screened_results = single_sweep()
    screened_deltas = counter_delta(gate_engine, before)
    screen_products = gate_engine.stats.screen_products - screen_before[0]
    screen_dropped = gate_engine.stats.screen_dropped - screen_before[1]
    gate_engine.screen_dtype = None

    screened_identical = all(
        np.array_equal(expected.query_ids, observed.query_ids)
        and np.array_equal(expected.probe_ids, observed.probe_ids)
        and np.array_equal(expected.scores, observed.scores)
        for expected, observed in zip(unscreened_results, screened_results)
    )
    # inner_products is *meant* to shrink under screening; every other
    # counter must match, and the split must account for each dropped one.
    screen_drift = {
        name: {"unscreened": unscreened_deltas[name], "screened": screened_deltas[name]}
        for name in COUNTERS
        if name != "inner_products" and unscreened_deltas[name] != screened_deltas[name]
    }
    split_exact = (
        screened_deltas["inner_products"] + screen_dropped
        == unscreened_deltas["inner_products"]
    )
    bytes_unscreened = unscreened_deltas["inner_products"] * args.rank * 8
    bytes_screened = (
        screened_deltas["inner_products"] * args.rank * 8
        + screen_products * args.rank * 2
    )
    screen_ratio = timings["single_query_screened_f16"] / timings["single_query_unscreened"]
    checks["screening_gate"] = {
        "passed": (
            screened_identical and not screen_drift and split_exact
            and screen_products > 0 and screen_dropped > 0
            and bytes_screened < bytes_unscreened
            and screen_ratio <= args.margin
        ),
        "results_byte_identical": screened_identical,
        "counter_drift": screen_drift,
        "counter_split_exact": split_exact,
        "screen_products": screen_products,
        "screen_dropped": screen_dropped,
        "modelled_bytes_scanned_ratio": round(bytes_screened / max(bytes_unscreened, 1), 4),
        "screened_over_unscreened_time_ratio": round(screen_ratio, 4),
        "margin": args.margin,
        "detail": (
            "f16 screening on the warm gate index must match the exact "
            "path byte-for-byte, scan fewer modelled bytes, and not regress "
            "beyond the margin"
        ),
    }

    # Compressed-generation gate: the same warm gate-index engine with the
    # f16 generation tier toggled on (workers=1, screening off, tuning
    # shared).  Generation must return byte-identical results, keep every
    # counter class except the deliberately-inflatable candidate counters
    # identical, shrink the resident generation-index bytes to <= 0.55x the
    # exact sorted lists, and stay inside the wall-clock margin.  The
    # recorded plan must carry the knob (the line ``repro explain`` prints).
    before = counter_snapshot(gate_engine)
    exact_gen_results = single_sweep()
    exact_gen_deltas = counter_delta(gate_engine, before)
    exact_gen_bytes = gate_engine.retriever.generation_memory_bytes()

    gate_engine.gen_dtype = "f16"
    single_sweep()  # warm-up: builds and caches the compressed sorted lists
    best_exact_gen = best_compressed_gen = float("inf")
    for _ in range(max(args.repeats, 5)):
        gate_engine.gen_dtype = None
        started = time.perf_counter()
        single_sweep()
        best_exact_gen = min(best_exact_gen, time.perf_counter() - started)
        gate_engine.gen_dtype = "f16"
        started = time.perf_counter()
        single_sweep()
        best_compressed_gen = min(best_compressed_gen, time.perf_counter() - started)
    timings["single_query_exact_generation"] = best_exact_gen
    timings["single_query_compressed_generation_f16"] = best_compressed_gen

    before = counter_snapshot(gate_engine)
    compressed_gen_results = single_sweep()
    compressed_gen_deltas = counter_delta(gate_engine, before)
    compressed_gen_bytes = gate_engine.retriever.generation_memory_bytes()
    gen_plan = gate_engine.explain(singles[0], theta=args.theta)
    gate_engine.gen_dtype = None

    generation_identical = all(
        np.array_equal(expected.query_ids, observed.query_ids)
        and np.array_equal(expected.probe_ids, observed.probe_ids)
        and np.array_equal(expected.scores, observed.scores)
        for expected, observed in zip(exact_gen_results, compressed_gen_results)
    )
    # Widened scans may over-produce candidates (each surplus one is verified
    # exactly, so inner_products tracks the inflation); every other counter
    # class must match the exact run.
    generation_drift = {
        name: {"exact": exact_gen_deltas[name], "compressed": compressed_gen_deltas[name]}
        for name in COUNTERS
        if name not in ("candidates", "inner_products")
        and exact_gen_deltas[name] != compressed_gen_deltas[name]
    }
    never_drops = compressed_gen_deltas["candidates"] >= exact_gen_deltas["candidates"]
    gen_inflation = (
        compressed_gen_deltas["candidates"] / max(exact_gen_deltas["candidates"], 1)
    )
    gen_bytes_ratio = compressed_gen_bytes / max(exact_gen_bytes, 1)
    gen_ratio = (
        timings["single_query_compressed_generation_f16"]
        / timings["single_query_exact_generation"]
    )
    checks["compressed_generation_gate"] = {
        "passed": (
            generation_identical and not generation_drift and never_drops
            and gen_inflation <= 1.5
            and gen_bytes_ratio <= 0.55
            and gen_plan.gen_dtype == "f16"
            and "generation    : f16 compressed index scans" in gen_plan.describe()
            and gen_ratio <= args.margin
        ),
        "results_byte_identical": generation_identical,
        "counter_drift": generation_drift,
        "candidates_never_drop": never_drops,
        "candidate_inflation": round(gen_inflation, 6),
        "generation_memory_bytes_exact": exact_gen_bytes,
        "generation_memory_bytes_f16": compressed_gen_bytes,
        "generation_memory_bytes_ratio": round(gen_bytes_ratio, 4),
        "plan_reports_gen_dtype": gen_plan.gen_dtype == "f16",
        "compressed_over_exact_time_ratio": round(gen_ratio, 4),
        "margin": args.margin,
        "detail": (
            "f16 compressed generation on the warm gate index must match "
            "the exact scans byte-for-byte (candidates may only over-produce), "
            "hold generation memory at <= 0.55x, and not regress beyond the margin"
        ),
    }

    speedup = timings["serial_blocked"] / timings["parallel_blocked"]
    report = {
        "benchmark": "bench_smoke",
        "library_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_kernel": get_kernel(),
        "dataset": {
            "probes": args.probes, "queries": args.queries, "rank": args.rank,
            "k": args.k, "theta": args.theta, "batch_size": args.batch_size,
            "probe_gate_probes": args.probe_gate_probes,
            "single_queries": len(singles), "seed": args.seed,
        },
        "timings_seconds": {label: round(value, 5) for label, value in timings.items()},
        "parallel_speedup_over_serial": round(speedup, 3),
        "screening_speedup_over_unscreened": round(
            timings["single_query_unscreened"] / timings["single_query_screened_f16"], 3
        ),
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
