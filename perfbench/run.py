"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload ie-svd-above-theta --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload twice in one process, untraced and then traced, prints the
per-layer metrics of the traced pass and how much slower it ran, and writes
the spans to ``.bench_build/``.  The command exits non-zero when any answer
disagrees with the naive oracle or any operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".bench_build"

#: Units of every metric the command reports.
END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "speedup_vs_naive": "x",
    "latency_p50_ms": "ms",
    "goodput_rps": "1/s",
    "mutation_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "core.lemp.fit_s": "s",
    "core.tuner.seconds": "s",
    "core.tuner.calls": "count",
    "core.retrievers.generate_s": "s",
    "core.retrievers.calls": "count",
    "core.candidates_per_query": "count",
    "core.kernels.verify_s": "s",
    "core.kernels.rows_verified": "count",
    "core.kernels.hit_ratio": "ratio",
    "core.solver.self_s": "s",
    "core.solver.bucket_prune_frac": "ratio",
    "baselines.naive.seconds": "s",
    "engine.planner.plan_s": "s",
    "engine.facade.overhead_s": "s",
    "engine.tuning_cache.hit_ratio": "ratio",
    "engine.persistence.save_s": "s",
    "engine.persistence.load_s": "s",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.solve_ms_p50": "ms",
    "serve.rows_per_flush": "count",
    "serve.shed": "count",
    "serve.timed_out": "count",
    "serve.mutate_ms_p50": "ms",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.outstanding_at_end": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
#: Pairs each pass of a traced batch run times, so traced passes do equal work.
TRACE_PAIRS = 3


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args, why: str) -> dict:
    """Where and how this run was made."""
    import numpy

    import repro

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repro": repro.__version__,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
    }


def layer_metrics(tracer, queue_waits, traced, untraced) -> dict:
    """Per-layer metrics of the traced pass, with the tracing overhead."""
    import numpy as np

    from perfbench.measure import summarize
    from perfbench.spans import self_seconds, unattributed
    from perfbench.workloads import SPEC

    spans, leaves = tracer.spans, tracer.leaves
    own = self_seconds(spans, leaves)
    named = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def seconds(name):
        return [span.seconds for span in named.get(name, [])]

    def leaf_sum(name, attribute):
        return sum(getattr(leaf, attribute) for (_, leaf_name), leaf in leaves.items()
                   if leaf_name == name)

    lemp_calls = {span.parent_id: span.seconds for span in named.get("core.lemp.call", [])}
    facade_overhead = sum(span.seconds - lemp_calls.get(span.span_id, 0.0)
                          for span in named.get("engine.facade", [])
                          if span.attrs.get("spec") == SPEC)
    results = sum(span.attrs["results"] for span in named.get("core.solver", []))
    rows_verified = leaf_sum("core.kernels", "items")
    waits = summarize(queue_waits) if queue_waits else {"p50": 0.0, "tail": 0.0}
    loose, call_total = unattributed(spans, leaves, {"engine.facade", "serve.solve"})

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    metrics = {
        "core.lemp.fit_s": mean(seconds("core.lemp.fit")),
        "core.tuner.seconds": sum(seconds("core.tuner")),
        "core.tuner.calls": len(seconds("core.tuner")),
        "core.retrievers.generate_s": leaf_sum("core.retrievers", "seconds"),
        "core.retrievers.calls": leaf_sum("core.retrievers", "calls"),
        "core.kernels.verify_s": leaf_sum("core.kernels", "seconds"),
        "core.kernels.rows_verified": rows_verified,
        "core.kernels.hit_ratio": results / max(1, rows_verified),
        "core.solver.self_s": sum(own[span.span_id] for span in named.get("core.solver", [])),
        "baselines.naive.seconds": float(np.median(seconds("baselines.naive") or [0.0])),
        "engine.planner.plan_s": sum(seconds("engine.planner")),
        "engine.facade.overhead_s": facade_overhead,
        "engine.persistence.save_s": mean(seconds("engine.persistence.save")),
        "engine.persistence.load_s": mean(seconds("engine.persistence.load")),
        "serve.queue_wait_ms_p50": 1e3 * waits["p50"],
        "serve.queue_wait_ms_p99": 1e3 * waits["tail"],
        "serve.solve_ms_p50": 1e3 * float(np.median(seconds("serve.solve") or [0.0])),
        "serve.rows_per_flush": 0.0,
        "serve.shed": 0,
        "serve.timed_out": 0,
        "serve.mutate_ms_p50": 0.0,
        "loadgen.lag_ms_p99": 0.0,
        "loadgen.outstanding_at_end": 0,
        "trace.overhead_frac": (float(np.median(traced.call_seconds))
                                / float(np.median(untraced.call_seconds)) - 1.0),
        "trace.unattributed_frac": loose / call_total if call_total else 0.0,
    }
    metrics.update(traced.layers)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.spans import Tracer, instrument
    from perfbench.workloads import SETUP_REPEATS, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(json.dumps({"provenance": provenance(args, WORKLOADS[args.workload].why)}), flush=True)
    workdir = OUTPUT_DIR / f"perfbench-{os.getpid()}"
    options = {}
    if args.trace and args.workload != "served-mixed-churn":
        options.update(min_pairs=TRACE_PAIRS, max_pairs=TRACE_PAIRS)

    if args.trace:
        untraced = run_workload(args.workload, args.seed, args.seconds, 1, workdir, **options)
        tracer, queue_waits = Tracer(), []
        outcome = run_workload(args.workload, args.seed, args.seconds, 1, workdir,
                               traced=lambda: instrument(tracer, queue_waits), **options)
        OUTPUT_DIR.mkdir(exist_ok=True)
        trace_path = OUTPUT_DIR / f"perfbench-trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics, units = layer_metrics(tracer, queue_waits, outcome, untraced), PER_LAYER_UNITS
        outcome.attempted += untraced.attempted
        outcome.failed += untraced.failed
        outcome.mismatches += untraced.mismatches
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, SETUP_REPEATS,
                               workdir, **options)
        metrics, units = outcome.metrics, END_TO_END_UNITS

    failed_frac = outcome.failed / max(1, outcome.attempted)
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {failed_frac:14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name, value in outcome.details.items():
        print(f"  {name}: {value}")
    print(json.dumps({
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
