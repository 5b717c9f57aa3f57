"""CI churn benchmark: multi-tenant serving under live ingest.

Drives a Zipf-popularity query swarm through the
:class:`~repro.serve.EngineManager` over two persisted tenants while factor
updates stream into one of them — the standing-query regime the ROADMAP's
multi-tenant item asks for.  The residency budget is set below the two
tenants' combined size, so the swarm's tenant alternation forces continuous
LRU evict/persist/reload cycles concurrently with the mutations.

Per round, a `partial_fit` fires mid-swarm on tenant A.  Mutations run on
the tenant's solver thread *between* micro-batches, so every request must
be byte-identical to the same call on a quiesced engine holding either the
round's pre-mutation or post-mutation index — never a blend.  Tenant B
never mutates and must match its reference exactly.  The report tracks
latency percentiles and tuning-cache hit rate under churn, and enforces:

* **Byte identity under churn**: every served result matches a quiesced
  reference (match-either for the mutating tenant, exact for the stable
  one), and the index reloaded from disk after shutdown matches the
  reference engine that replayed the same mutations.
* **LRU churn actually happened**: both tenants were evicted and reloaded
  at least once while serving (otherwise the budget gate proved nothing).
* **Tuning-cache floor**: the mutating tenant's cumulative hit rate stays
  above ``--min-hit-rate`` — cached per-bucket tuning must survive both
  the evict/reload cycles (persisted with the index) and the mutations
  (only rebuilt buckets re-tune).
* **Mutations applied**: one mutation per round, with the final row count
  visible both live and in the reloaded index.

BLAS runs on one thread (set before numpy loads, recorded as
``blas_threads``), as in the other CI gate scripts.

Run locally with::

    PYTHONPATH=src python benchmarks/bench_churn.py

The report is written to ``BENCH_churn.json`` (``--output``); pass
``--commit-path`` to also refresh a committed baseline copy.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import asyncio
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.datasets.synthetic import synthetic_factors
from repro.engine import RetrievalEngine
from repro.serve import EngineManager


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes-a", type=int, default=2500,
                        help="initial probe rows of tenant A (receives the churn)")
    parser.add_argument("--probes-b", type=int, default=2000,
                        help="probe rows of tenant B (stable co-tenant)")
    parser.add_argument("--rank", type=int, default=32, help="factor rank")
    parser.add_argument("--k", type=int, default=10, help="Row-Top-k workload parameter")
    parser.add_argument("--rounds", type=int, default=3,
                        help="churn rounds (one mid-swarm partial_fit each)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent asyncio clients in the swarm")
    parser.add_argument("--requests", type=int, default=6,
                        help="requests per client per round")
    parser.add_argument("--rows", type=int, default=2, help="query rows per request")
    parser.add_argument("--pool", type=int, default=16,
                        help="distinct query blocks per tenant the swarm draws from")
    parser.add_argument("--zipf-s", type=float, default=1.2,
                        help="Zipf popularity exponent over the query pool")
    parser.add_argument("--update-rows", type=int, default=64,
                        help="factor rows streamed into tenant A per round")
    parser.add_argument("--budget-factor", type=float, default=1.25,
                        help="residency budget as a multiple of the larger tenant "
                             "(< sum of both, so alternation forces LRU churn)")
    parser.add_argument("--max-batch-rows", type=int, default=64,
                        help="per-tenant micro-batch flush budget")
    parser.add_argument("--min-hit-rate", type=float, default=0.5,
                        help="required cumulative tuning-cache hit rate on tenant A")
    parser.add_argument("--seed", type=int, default=0, help="dataset/workload seed")
    parser.add_argument("--output", type=Path, default=Path("BENCH_churn.json"),
                        help="JSON report path")
    parser.add_argument("--commit-path", type=Path, default=None,
                        help="also write the report to this path (committed baseline)")
    return parser.parse_args(argv)


def results_equal(expected, actual) -> bool:
    return bool(
        expected.k == actual.k
        and np.array_equal(expected.indices, actual.indices)
        and np.array_equal(expected.scores, actual.scores)
    )


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    """Rank-based Zipf popularity over a finite pool (index 0 most popular)."""
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def percentile_ms(latencies, percentile) -> float:
    return round(float(np.percentile(latencies, percentile)) * 1e3, 3)


def run_bench(args: argparse.Namespace) -> dict:
    rank = args.rank
    probes_a = synthetic_factors(args.probes_a, rank=rank, length_cov=0.8, seed=args.seed)
    probes_b = synthetic_factors(args.probes_b, rank=rank, length_cov=0.8,
                                 seed=args.seed + 1)
    pools = {
        "A": synthetic_factors(args.pool * args.rows, rank=rank, length_cov=0.8,
                               seed=args.seed + 2),
        "B": synthetic_factors(args.pool * args.rows, rank=rank, length_cov=0.8,
                               seed=args.seed + 3),
    }
    blocks = {
        name: [pool[index * args.rows:(index + 1) * args.rows]
               for index in range(args.pool)]
        for name, pool in pools.items()
    }
    updates = [
        synthetic_factors(args.update_rows, rank=rank, length_cov=0.8,
                          seed=args.seed + 10 + round_id)
        for round_id in range(args.rounds)
    ]

    # References stay in memory and replay tenant A's mutation schedule
    # quiesced; the served tenants live on disk and cycle through residency.
    reference = {
        "A": RetrievalEngine("lemp:LI", seed=args.seed).fit(probes_a),
        "B": RetrievalEngine("lemp:LI", seed=args.seed).fit(probes_b),
    }
    index_root = Path(tempfile.mkdtemp(prefix="bench_churn_idx_"))
    for name, engine in reference.items():
        for block in blocks[name]:
            engine.row_top_k(block, args.k)  # warm the persisted tuning cache
        engine.save(index_root / name)

    budget = int(args.budget_factor * max(args.probes_a, args.probes_b))
    manager = EngineManager(
        {"A": index_root / "A", "B": index_root / "B"},
        max_resident_rows=budget,
        max_batch_rows=args.max_batch_rows,
    )

    workload_rng = np.random.default_rng(args.seed + 100)
    weights = zipf_weights(args.pool, args.zipf_s)
    latencies: list[float] = []
    round_latencies: list[list[float]] = []
    mismatches = 0
    checked = 0

    async def swarm_round(round_id: int) -> None:
        """One churn round: query swarm + one mid-swarm mutation on A."""
        nonlocal mismatches, checked
        plan = [
            [("A" if workload_rng.random() < 0.6 else "B",
              int(workload_rng.choice(args.pool, p=weights)))
             for _ in range(args.requests)]
            for _ in range(args.clients)
        ]
        served: list[tuple[str, int, object]] = []

        async def client(requests) -> None:
            for name, block_id in requests:
                started = time.perf_counter()
                result = await manager.row_top_k(name, blocks[name][block_id], args.k)
                elapsed = time.perf_counter() - started
                latencies.append(elapsed)
                round_latencies[round_id].append(elapsed)
                served.append((name, block_id, result))

        async def mutator() -> None:
            await asyncio.sleep(0.005)  # let the swarm get in flight first
            await manager.partial_fit("A", updates[round_id])

        round_latencies.append([])
        await asyncio.gather(mutator(), *(client(requests) for requests in plan))

        # Quiesced references: pre-mutation now, post-mutation after applying
        # the same update.  Every served A result must match one of the two
        # states byte-exactly; B has a single state.
        used_a = sorted({block_id for name, block_id, _ in served if name == "A"})
        used_b = sorted({block_id for name, block_id, _ in served if name == "B"})
        pre = {block_id: reference["A"].row_top_k(blocks["A"][block_id], args.k)
               for block_id in used_a}
        reference["A"].partial_fit(updates[round_id])
        post = {block_id: reference["A"].row_top_k(blocks["A"][block_id], args.k)
                for block_id in used_a}
        stable = {block_id: reference["B"].row_top_k(blocks["B"][block_id], args.k)
                  for block_id in used_b}
        for name, block_id, result in served:
            checked += 1
            if name == "B":
                if not results_equal(stable[block_id], result):
                    mismatches += 1
            elif not (results_equal(pre[block_id], result)
                      or results_equal(post[block_id], result)):
                mismatches += 1

    async def drive():
        async with manager:
            started = time.perf_counter()
            for round_id in range(args.rounds):
                await swarm_round(round_id)
            wall = time.perf_counter() - started
            stats = manager.stats()
        return wall, stats

    wall, stats = asyncio.run(drive())

    # Shutdown persisted the dirty tenant; its on-disk state must now match
    # the reference engine that replayed the same mutations while quiesced.
    reloaded = RetrievalEngine.load(index_root / "A", mmap_mode="r")
    reload_ok = int(reloaded.num_probes) == int(reference["A"].num_probes) and all(
        results_equal(reference["A"].row_top_k(block, args.k),
                      reloaded.row_top_k(block, args.k))
        for block in blocks["A"]
    )

    expected_rows = args.probes_a + args.rounds * args.update_rows
    hit_rate = stats["A"]["tuning_cache"]["hit_rate"] or 0.0
    total_requests = args.rounds * args.clients * args.requests
    checks = {
        "byte_identity": {
            "passed": mismatches == 0 and checked == total_requests,
            "mismatches": mismatches,
            "results_checked": checked,
            "detail": "every served result must match a quiesced reference "
                      "(pre- or post-mutation for the churning tenant)",
        },
        "reload_identity": {
            "passed": reload_ok,
            "detail": "the index persisted at shutdown must match a reference "
                      "engine that replayed the mutations quiesced",
        },
        "lru_churn": {
            "passed": all(stats[name]["evictions"] >= 1 and stats[name]["loads"] >= 2
                          for name in ("A", "B")),
            "evictions": {name: stats[name]["evictions"] for name in ("A", "B")},
            "loads": {name: stats[name]["loads"] for name in ("A", "B")},
            "detail": "both tenants must cycle through the residency budget "
                      "(evicted and reloaded at least once) during the swarm",
        },
        "tuning_cache_floor": {
            "passed": hit_rate >= args.min_hit_rate,
            "hit_rate": hit_rate,
            "min_hit_rate": args.min_hit_rate,
            "detail": "tenant A's cumulative tuning-cache hit rate must survive "
                      "churn (cache persists across evictions; mutations only "
                      "re-tune rebuilt buckets)",
        },
        "mutations_applied": {
            "passed": (stats["A"]["mutations"] == args.rounds
                       and stats["A"]["rows"] == expected_rows
                       and int(reloaded.num_probes) == expected_rows),
            "mutations": stats["A"]["mutations"],
            "final_rows": stats["A"]["rows"],
            "detail": "one partial_fit per round, visible live and after reload",
        },
    }

    return {
        "benchmark": "bench_churn",
        "library_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": {
            "probes_a": args.probes_a, "probes_b": args.probes_b, "rank": rank,
            "k": args.k, "rounds": args.rounds, "clients": args.clients,
            "requests_per_client_per_round": args.requests, "rows": args.rows,
            "pool": args.pool, "zipf_s": args.zipf_s,
            "update_rows": args.update_rows, "max_resident_rows": budget,
            "max_batch_rows": args.max_batch_rows,
            "seed": args.seed,
        },
        "wall_seconds": round(wall, 5),
        "throughput_rps": round(total_requests / wall, 1) if wall > 0 else float("inf"),
        "latency_ms": {
            "p50": percentile_ms(latencies, 50),
            "p95": percentile_ms(latencies, 95),
            "p99": percentile_ms(latencies, 99),
        },
        "latency_ms_by_round": [
            {"p50": percentile_ms(values, 50), "p95": percentile_ms(values, 95),
             "p99": percentile_ms(values, 99)}
            for values in round_latencies
        ],
        "tenants": {
            name: {
                "rows": stats[name]["rows"],
                "loads": stats[name]["loads"],
                "evictions": stats[name]["evictions"],
                "mutations": stats[name]["mutations"],
                "admitted": stats[name]["admitted"],
                "shed": stats[name]["shed"],
                "timed_out": stats[name]["timed_out"],
                "rows_served": stats[name]["rows_served"],
                "tuning_cache": stats[name]["tuning_cache"],
            }
            for name in ("A", "B")
        },
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
        print(f"bench-churn gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("bench-churn gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
