"""Command-line interface for the LEMP reproduction.

Usage (after ``pip install -e .``)::

    python -m repro --version                        # print the library version
    python -m repro datasets                         # list the synthetic datasets
    python -m repro topk --dataset netflix --k 10    # Row-Top-k with LEMP
    python -m repro above --dataset ie-svd --results 1000
    python -m repro explain --dataset netflix --k 10 --batch-size 512
    python -m repro index --dataset netflix --spec lemp:LI --out idx/
    python -m repro serve --index idx/ --clients 16 --workers 2
    python -m repro serve --index a=idx_a/ --index b=idx_b/ --max-resident-rows 100000
    python -m repro tables --which table3 table4     # regenerate paper tables

The CLI is a thin wrapper around the library: retrievers are constructed from
registry specs (``lemp:LI``, ``naive``, ``tree:cover``, …; the paper names
``LEMP-LI`` / ``Naive`` / ``D-Tree`` keep working), and every sub-command
prints the same statistics the benchmark harness records (total /
preprocessing / tuning time and candidates per query) so the paper's
experiments can be replayed interactively.  ``index`` builds an index once,
persists it, and verifies the reloaded copy — the starting point for serving
deployments.  ``explain`` shows the :class:`~repro.engine.planner.ExecutionPlan`
a workload would run under — chunks and backend — without
executing it (add ``--execute`` to also run the call and check the recorded
plan matches), plus the retriever's serving compatibility (micro-batching,
mmap/process backend).  ``serve`` drives an
asyncio client swarm against a persisted index through the
:class:`~repro.serve.ServingEngine` — dynamic micro-batching, optional
process workers sharing one memory-mapped index — and reports latency
percentiles and throughput.  Repeating ``--index NAME=PATH`` switches it to
the multi-tenant :class:`~repro.serve.EngineManager`: many named indexes
served at once under an LRU residency budget (``--max-resident-rows``),
with per-tenant admission and tuning-cache stats in the report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.datasets import DATASET_NAMES, dataset_statistics, load_dataset
from repro.datasets.registry import SCALES
from repro.engine import RetrievalEngine, available_specs, normalize_spec, spec_capabilities
from repro.eval import (
    format_table,
    make_retriever,
    run_above_theta,
    run_row_top_k,
    theta_for_result_count,
)
from repro.eval import experiments as experiment_definitions
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    RequestTimeoutError,
    ServiceOverloadedError,
)
from repro.serve import (
    EngineManager,
    ServingEngine,
    WorkerPool,
    describe_serve_compatibility,
)

#: Table/figure identifiers accepted by the ``tables`` sub-command.
TABLE_BUILDERS = {
    "table1": lambda scale, seed: _table1(scale, seed),
    "table2": lambda scale, seed: _simple_rows(
        experiment_definitions.table2_preprocessing(scale=scale, seed=seed),
        ["dataset", "algorithm", "preprocessing_seconds", "tuning_seconds", "total_seconds"],
    ),
    "table3": lambda scale, seed: _experiment_rows(
        experiment_definitions.table3_above_theta(scale=scale, seed=seed)
    ),
    "table4": lambda scale, seed: _experiment_rows(
        experiment_definitions.table4_row_top_k(scale=scale, seed=seed)
    ),
    "table5": lambda scale, seed: _experiment_rows(
        experiment_definitions.table5_bucket_above_theta(scale=scale, seed=seed)
    ),
    "table6": lambda scale, seed: _experiment_rows(
        experiment_definitions.table6_bucket_row_top_k(scale=scale, seed=seed)
    ),
    "figure3": lambda scale, seed: _simple_rows(
        experiment_definitions.figure3_feasible_regions(),
        ["theta_b", "query_coordinate", "lower", "upper", "width"],
    ),
    "ablation": lambda scale, seed: _simple_rows(
        experiment_definitions.cache_ablation(scale=scale, seed=seed),
        ["configuration", "num_buckets", "total_seconds", "candidates_per_query"],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the synthetic datasets and their statistics")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default="netflix", choices=DATASET_NAMES)
    common.add_argument("--algorithm", default="lemp:LI",
                        help="registry spec (" + ", ".join(available_specs())
                             + ") or paper name (Naive, TA, Tree, D-Tree, LEMP-<X>)")
    common.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    common.add_argument("--seed", type=int, default=0)

    topk = subparsers.add_parser("topk", parents=[common], help="solve Row-Top-k on a dataset")
    topk.add_argument("--k", type=int, default=10)

    above = subparsers.add_parser("above", parents=[common], help="solve Above-θ on a dataset")
    group = above.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None, help="explicit threshold")
    group.add_argument("--results", type=int, default=1000,
                       help="recall level: pick θ so this many entries qualify")

    explain = subparsers.add_parser(
        "explain", parents=[common],
        help="show the execution plan for a workload without running it",
    )
    problem = explain.add_mutually_exclusive_group()
    problem.add_argument("--k", type=int, default=None,
                         help="Row-Top-k workload (default: k=10 when --theta is absent)")
    problem.add_argument("--theta", type=float, default=None, help="Above-theta workload")
    explain.add_argument("--batch-size", type=int, default=None,
                         help="chunk size (default: the engine default)")
    explain.add_argument("--execute", action="store_true",
                         help="also run the call and verify it recorded exactly this plan")

    index = subparsers.add_parser(
        "index", help="build a persistent index for a dataset (save, reload, verify)"
    )
    index.add_argument("--dataset", default="netflix", choices=DATASET_NAMES)
    index.add_argument("--spec", default="lemp:LI",
                       help="retriever registry spec, e.g. lemp:LI, naive, tree:cover")
    index.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    index.add_argument("--seed", type=int, default=0)
    index.add_argument("--out", required=True, help="directory the index is written to")
    index.add_argument("--skip-verify", action="store_true",
                       help="skip the reload-and-compare verification pass")

    serve = subparsers.add_parser(
        "serve", help="drive concurrent clients against saved indexes via the serving engine"
    )
    serve.add_argument("--index", required=True, action="append", metavar="[NAME=]PATH",
                       help="saved index directory (repro index --out); repeat with "
                            "NAME=PATH to serve several tenants through the EngineManager")
    serve.add_argument("--max-resident-rows", type=int, default=None,
                       help="multi-tenant residency budget: total probe rows kept in "
                            "memory before LRU tenants are evicted back to disk")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes mapping the index (0 = solve in-process; "
                            "single-tenant mode only)")
    serve.add_argument("--max-batch-rows", type=int, default=256,
                       help="micro-batch flush budget in query rows")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent asyncio clients")
    serve.add_argument("--requests", type=int, default=8,
                       help="requests each client sends")
    serve.add_argument("--rows", type=int, default=4,
                       help="query rows per request")
    serve.add_argument("--rank", type=int, default=None,
                       help="query rank (default: read from the index)")
    problem = serve.add_mutually_exclusive_group()
    problem.add_argument("--k", type=int, default=None,
                         help="Row-Top-k workload (default: k=10 when --theta is absent)")
    problem.add_argument("--theta", type=float, default=None, help="Above-theta workload")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the synthetic client queries")

    tables = subparsers.add_parser("tables", help="regenerate paper tables/figures")
    tables.add_argument("--which", nargs="+", default=["table3"], choices=sorted(TABLE_BUILDERS))
    tables.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    tables.add_argument("--seed", type=int, default=0)
    return parser


# ------------------------------------------------------------------ commands

def _command_datasets(args, out) -> int:
    rows = []
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale="tiny")
        stats = dataset_statistics(dataset)
        rows.append(
            [
                name,
                stats["num_queries"],
                stats["num_probes"],
                stats["rank"],
                round(stats["query_length_cov"], 2),
                round(stats["probe_length_cov"], 2),
            ]
        )
    print(format_table(["dataset", "queries", "probes", "rank", "CoV Q", "CoV P"], rows), file=out)
    return 0


def _print_outcome(outcome, out) -> None:
    rows = [
        ["algorithm", outcome.algorithm],
        ["dataset", outcome.dataset],
        ["problem", outcome.problem],
        ["parameter", outcome.parameter],
        ["total seconds", round(outcome.total_seconds, 4)],
        ["preprocessing seconds", round(outcome.preprocessing_seconds, 4)],
        ["tuning seconds", round(outcome.tuning_seconds, 4)],
        ["retrieval seconds", round(outcome.retrieval_seconds, 4)],
        ["candidates per query", round(outcome.candidates_per_query, 1)],
        ["results", outcome.num_results],
    ]
    print(format_table(["metric", "value"], rows), file=out)


def _command_topk(args, out) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    retriever = make_retriever(args.algorithm, seed=args.seed)
    outcome = run_row_top_k(retriever, dataset, args.k)
    _print_outcome(outcome, out)
    return 0


def _command_above(args, out) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    theta = args.theta
    if theta is None:
        theta = theta_for_result_count(dataset.queries, dataset.probes, args.results)
    if theta <= 0.0:
        print("error: the requested recall level yields a non-positive threshold", file=out)
        return 1
    retriever = make_retriever(args.algorithm, seed=args.seed)
    outcome = run_above_theta(retriever, dataset, theta)
    _print_outcome(outcome, out)
    return 0


def _command_explain(args, out) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    k, theta = args.k, args.theta
    if k is None and theta is None:
        k = 10
    engine = RetrievalEngine(args.algorithm, seed=args.seed)
    engine.fit(dataset.probes)
    plan = engine.explain(dataset.queries, theta=theta, k=k, batch_size=args.batch_size)

    capabilities = spec_capabilities(args.algorithm)
    flags = ", ".join(
        f"{name}={'yes' if enabled else 'no'}"
        for name, enabled in sorted(capabilities.items())
    )
    print(f"spec    : {normalize_spec(args.algorithm)} ({flags})", file=out)
    print(f"workload: {dataset.name}, {dataset.queries.shape[0]} queries x "
          f"{engine.num_probes} probes", file=out)
    print(plan.describe(), file=out)
    print(describe_serve_compatibility(engine), file=out)
    if not args.execute:
        return 0
    if theta is not None:
        engine.above_theta(dataset.queries, theta, batch_size=args.batch_size)
    else:
        engine.row_top_k(dataset.queries, k, batch_size=args.batch_size)
    call = engine.history[-1]
    matched = call.plan == plan
    verdict = "recorded plan matches" if matched else "recorded plan DIFFERS"
    print(f"executed: {call.seconds:.4f}s, {call.num_results} results; {verdict}", file=out)
    return 0 if matched else 1


def _command_index(args, out) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = RetrievalEngine(args.spec, seed=args.seed).fit(dataset.probes)
    engine.save(args.out)

    rows = [
        ["spec", args.spec],
        ["dataset", dataset.name],
        ["probes", engine.num_probes],
        ["rank", dataset.probes.shape[1]],
        ["preprocessing seconds", round(engine.stats.preprocessing_seconds, 4)],
        ["output", str(Path(args.out))],
    ]
    if not args.skip_verify:
        reloaded = RetrievalEngine.load(args.out)
        sample = dataset.queries[: min(32, dataset.queries.shape[0])]
        expected = engine.row_top_k(sample, 5)
        actual = reloaded.row_top_k(sample, 5)
        identical = bool(
            np.array_equal(expected.indices, actual.indices)
            and np.array_equal(expected.scores, actual.scores)
        )
        rows.append(["reload verified", "ok" if identical else "MISMATCH"])
        if not identical:
            print(format_table(["metric", "value"], rows), file=out)
            return 1
    print(format_table(["metric", "value"], rows), file=out)
    return 0


def _parse_tenant_specs(specs):
    """Parse repeated ``--index [NAME=]PATH`` values into (name, path) pairs."""
    tenants = []
    for spec in specs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            name, path = Path(spec).name, spec
        name = name.strip()
        if not name or not path:
            raise InvalidParameterError(
                f"--index expects PATH or NAME=PATH, got {spec!r}"
            )
        tenants.append((name, path))
    names = [name for name, _ in tenants]
    if len(set(names)) != len(names):
        raise InvalidParameterError(
            f"duplicate tenant names in --index: {sorted(names)}"
        )
    return tenants


def _command_serve(args, out) -> int:
    multi_tenant = len(args.index) > 1 or "=" in args.index[0]
    if multi_tenant:
        return _command_serve_multi(args, out)
    return _command_serve_single(args, out)


def _command_serve_multi(args, out) -> int:
    import asyncio
    import time

    if args.workers > 0:
        raise InvalidParameterError(
            "--workers applies to single-tenant serving only; the EngineManager "
            "runs each tenant on its own in-process solver thread"
        )
    tenants = _parse_tenant_specs(args.index)
    k, theta = args.k, args.theta
    if k is None and theta is None:
        k = 10

    manager = EngineManager(
        tenants,
        max_resident_rows=args.max_resident_rows,
        max_batch_rows=args.max_batch_rows,
    )
    latencies: list[float] = []
    answered = {name: 0 for name, _ in tenants}

    async def client(client_id, requests) -> None:
        for request_id, (name, block) in enumerate(requests):
            started = time.perf_counter()
            try:
                if theta is not None:
                    await manager.above_theta(name, block, theta, timeout=args.timeout)
                else:
                    await manager.row_top_k(name, block, k, timeout=args.timeout)
            except (RequestTimeoutError, ServiceOverloadedError):
                continue  # counted by the tenant's own serving metrics
            latencies.append(time.perf_counter() - started)
            answered[name] += 1

    async def drive():
        async with manager:
            # Touch every tenant once so its rank is known before queries are
            # drawn (the LRU budget applies; rank survives eviction).
            ranks = {}
            for name, _ in tenants:
                ranks[name] = args.rank or (await manager.activate(name))["rank"]
                if ranks[name] is None:
                    raise InvalidParameterError(
                        f"cannot infer the query rank of tenant {name!r}; pass --rank"
                    )
            rng = np.random.default_rng(args.seed)
            workload = [
                [
                    (name, rng.normal(size=(args.rows, ranks[name])))
                    for request_id in range(args.requests)
                    for name in (tenants[(client_id + request_id) % len(tenants)][0],)
                ]
                for client_id in range(args.clients)
            ]
            started = time.perf_counter()
            await asyncio.gather(
                *(client(i, requests) for i, requests in enumerate(workload))
            )
            return time.perf_counter() - started, manager.stats()

    elapsed, stats = asyncio.run(drive())

    total = sum(answered.values())
    rows = [
        ["tenants", " ".join(f"{name}={path}" for name, path in tenants)],
        ["residency budget (rows)", args.max_resident_rows or "unlimited"],
        ["problem", f"above_theta(theta={theta:g})" if theta is not None
         else f"row_top_k(k={k})"],
        ["clients x requests x rows", f"{args.clients} x {args.requests} x {args.rows}"],
        ["answered", total],
        ["wall seconds", round(elapsed, 4)],
        ["throughput (req/s)", round(total / elapsed, 1) if elapsed > 0 else float("inf")],
    ]
    if latencies:
        for label, percentile in (("p50", 50), ("p95", 95), ("p99", 99)):
            rows.append(
                [f"latency {label} (ms)",
                 round(float(np.percentile(latencies, percentile)) * 1e3, 3)]
            )
    for name, _ in tenants:
        tenant = stats[name]
        hit_rate = tenant["tuning_cache"]["hit_rate"]
        rows.append(
            [f"tenant {name}",
             f"rows={tenant['rows']} loads={tenant['loads']} "
             f"evictions={tenant['evictions']} served={tenant['rows_served']} "
             f"shed={tenant['shed']} timed_out={tenant['timed_out']} "
             f"cache_hit_rate={'n/a' if hit_rate is None else hit_rate}"]
        )
    print(format_table(["metric", "value"], rows), file=out)
    return 0


def _command_serve_single(args, out) -> int:
    import asyncio
    import time

    index_path = args.index[0]
    engine = RetrievalEngine.load(index_path, mmap_mode="r")
    rank = args.rank if args.rank is not None else engine.rank
    if rank is None:
        raise InvalidParameterError(
            "cannot infer the query rank from this index; pass --rank"
        )
    k, theta = args.k, args.theta
    if k is None and theta is None:
        k = 10

    rng = np.random.default_rng(args.seed)
    workload = [
        [rng.normal(size=(args.rows, rank)) for _ in range(args.requests)]
        for _ in range(args.clients)
    ]
    latencies: list[float] = []

    async def client(serving, requests) -> None:
        for block in requests:
            started = time.perf_counter()
            try:
                if theta is not None:
                    await serving.above_theta(block, theta, timeout=args.timeout)
                else:
                    await serving.row_top_k(block, k, timeout=args.timeout)
            except (RequestTimeoutError, ServiceOverloadedError):
                continue  # counted by the serving engine's own metrics
            latencies.append(time.perf_counter() - started)

    async def drive():
        async with ServingEngine(engine, max_batch_rows=args.max_batch_rows) as serving:
            await asyncio.gather(*(client(serving, requests) for requests in workload))
            return serving

    pool = WorkerPool(index_path, args.workers) if args.workers > 0 else None
    if pool is not None:
        engine.use_worker_pool(pool)
    started = time.perf_counter()
    try:
        serving = asyncio.run(drive())
    finally:
        if pool is not None:
            pool.shutdown()
    elapsed = time.perf_counter() - started

    answered = len(latencies)
    batch_rows = [record.num_rows for record in serving.flushes]
    rows = [
        ["index", str(Path(index_path))],
        ["backend", f"{args.workers} worker processes" if pool is not None else "in-process"],
        ["problem", f"above_theta(theta={theta:g})" if theta is not None else f"row_top_k(k={k})"],
        ["clients x requests x rows", f"{args.clients} x {args.requests} x {args.rows}"],
        ["answered / shed / timed out",
         f"{answered} / {serving.requests_shed} / {serving.requests_timed_out}"],
        ["wall seconds", round(elapsed, 4)],
        ["throughput (req/s)", round(answered / elapsed, 1) if elapsed > 0 else float("inf")],
        ["batches flushed", len(serving.flushes)],
        ["mean rows per batch",
         round(float(np.mean(batch_rows)), 1) if batch_rows else 0.0],
    ]
    if latencies:
        for label, percentile in (("p50", 50), ("p95", 95), ("p99", 99)):
            rows.append(
                [f"latency {label} (ms)",
                 round(float(np.percentile(latencies, percentile)) * 1e3, 3)]
            )
    print(format_table(["metric", "value"], rows), file=out)
    return 0


def _table1(scale, seed):
    rows = experiment_definitions.table1_dataset_statistics(scale=scale, seed=seed)
    headers = ["name", "num_queries", "num_probes", "rank",
               "query_length_cov", "probe_length_cov", "fraction_nonzero"]
    return headers, [[_round(row[column]) for column in headers] for row in rows]


def _simple_rows(rows, headers):
    return headers, [[_round(row[column]) for column in headers] for row in rows]


def _experiment_rows(results):
    headers = ["dataset", "problem", "parameter", "algorithm",
               "total_seconds", "candidates_per_query", "num_results"]
    rows = [
        [
            result.dataset,
            result.problem,
            _round(result.parameter),
            result.algorithm,
            _round(result.total_seconds),
            _round(result.candidates_per_query),
            result.num_results,
        ]
        for result in results
    ]
    return headers, rows


def _round(value):
    if isinstance(value, float):
        return round(value, 4)
    return value


def _command_tables(args, out) -> int:
    for which in args.which:
        headers, rows = TABLE_BUILDERS[which](args.scale, args.seed)
        print(f"\n== {which} (scale={args.scale}) ==", file=out)
        print(format_table(headers, rows), file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (unknown spec, unsupported operation, bad parameters —
    anything deriving from :class:`~repro.exceptions.ReproError`) are printed
    as one-line messages with exit code 2 instead of tracebacks.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _command_datasets(args, out)
        if args.command == "topk":
            return _command_topk(args, out)
        if args.command == "above":
            return _command_above(args, out)
        if args.command == "explain":
            return _command_explain(args, out)
        if args.command == "index":
            return _command_index(args, out)
        if args.command == "serve":
            return _command_serve(args, out)
        return _command_tables(args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
