"""Cache and kernel ablations for the hot path.

Three knobs are ablated here.  First, the paper's Section 6.2 comparison of
cache-aware vs cache-oblivious bucketisation (the bucket-size cap as the
knob).  Second, the engine-layer tuning cache: a chunked ``RetrievalEngine``
call used to re-run LEMP's sample-based tuner once per chunk; with the
:class:`~repro.core.tuning_cache.TuningCache` it tunes once and every
further chunk (and every repeated call at the same parameters) is a cache
hit, with bit-identical results.  Third, the verification kernel
(``einsum`` reference vs the blocked BLAS kernel): within a kernel a
chunked call must be bit-identical to one chunk, and the kernels must agree
on the retrieved sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import use_kernel
from repro.engine import RetrievalEngine
from repro.eval import format_table, make_retriever, run_row_top_k

from benchmarks.conftest import BENCH_SEED, write_report

CONFIGURATIONS = {
    "cache-aware": {"cache_kib": 16.0},
    "cache-oblivious": {"cache_kib": None, "max_bucket_size": None},
}
DATASETS = ("kdd", "ie-svd-t")


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_cache_configuration(benchmark, dataset_name, configuration, dataset_cache):
    """Row-Top-5 with and without the cache-size bucket cap."""
    dataset = dataset_cache(dataset_name)
    retriever = make_retriever("LEMP-LI", seed=BENCH_SEED, **CONFIGURATIONS[configuration])
    retriever.fit(dataset.probes)
    benchmark.extra_info.update(
        {"dataset": dataset_name, "configuration": configuration, "num_buckets": retriever.num_buckets}
    )
    benchmark.pedantic(lambda: run_row_top_k(retriever, dataset, 5), rounds=1, iterations=1)


def test_ablation_report(benchmark, dataset_cache):
    """Regenerate the cache ablation table into results/ablation_cache.txt."""

    def run_all():
        rows = []
        for dataset_name in DATASETS:
            dataset = dataset_cache(dataset_name)
            for label, kwargs in CONFIGURATIONS.items():
                retriever = make_retriever("LEMP-LI", seed=BENCH_SEED, **kwargs)
                outcome = run_row_top_k(retriever, dataset, 5)
                rows.append(
                    [
                        dataset_name,
                        label,
                        retriever.num_buckets,
                        f"{outcome.total_seconds:.3f}",
                        f"{outcome.candidates_per_query:.1f}",
                    ]
                )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["dataset", "configuration", "buckets", "total [s]", "cand/query"], rows
    )
    write_report(
        "ablation_cache.txt", "Section 6.2 ablation: cache-aware vs cache-oblivious buckets", table
    )


NUM_CHUNKS = 4


def test_engine_tuning_cache_report(benchmark, dataset_cache):
    """Batched engine calls, tuning cache off vs cold vs warm (PR 2 tentpole).

    The cache-off engine re-tunes on every chunk of every call; the cache-on
    engine tunes once on the first chunk of the first call (cold) and is all
    hits afterwards (warm).  Results must be bit-identical either way.
    """

    def run_all():
        rows = []
        for dataset_name in DATASETS:
            dataset = dataset_cache(dataset_name)
            batch_size = max(1, -(-dataset.queries.shape[0] // NUM_CHUNKS))

            off = RetrievalEngine("LEMP-LI", seed=BENCH_SEED, tune_cache=False)
            off.fit(dataset.probes)
            on = RetrievalEngine("LEMP-LI", seed=BENCH_SEED)
            on.fit(dataset.probes)

            baseline = off.row_top_k(dataset.queries, 5, batch_size=batch_size)
            scenarios = (("cache off", off), ("cache on (cold)", on), ("cache on (warm)", on))
            for label, engine in scenarios:
                tuning_before = engine.stats.tuning_seconds
                result = engine.row_top_k(dataset.queries, 5, batch_size=batch_size)
                call = engine.history[-1]
                assert np.array_equal(result.indices, baseline.indices)
                assert np.array_equal(result.scores, baseline.scores)
                rows.append(
                    [
                        dataset_name,
                        label,
                        call.num_batches,
                        call.tuning_cache_hits,
                        call.tuning_cache_misses,
                        f"{engine.stats.tuning_seconds - tuning_before:.4f}",
                        f"{call.seconds:.4f}",
                    ]
                )
            warm = on.history[-1]
            assert warm.tuning_cache_misses == 0 and warm.tuning_cache_hits == warm.num_batches
            cold = on.history[-2]
            assert cold.tuning_cache_misses == 1 and cold.tuning_cache_hits >= NUM_CHUNKS - 1
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["dataset", "scenario", "batches", "hits", "misses", "tuning [s]", "call [s]"], rows
    )
    write_report(
        "ablation_tuning_cache.txt",
        "Engine tuning cache: chunked Row-Top-5, off vs cold vs warm",
        table,
    )


def test_engine_kernel_report(benchmark, dataset_cache):
    """Verification kernel ablation.

    Chunked Row-Top-5 under each kernel on a warm engine.  Within a kernel
    the chunked call must be byte-identical to one chunk; across kernels the
    retrieved sets must agree (the kernels differ only in last-ULP
    rounding).  The written table records the before/after of replacing the
    einsum verification path with the blocked BLAS kernel.
    """

    def run_all():
        rows = []
        for dataset_name in DATASETS:
            dataset = dataset_cache(dataset_name)
            batch_size = max(1, -(-dataset.queries.shape[0] // NUM_CHUNKS))
            references = {}
            for kernel in ("einsum", "blocked"):
                with use_kernel(kernel):
                    engine = RetrievalEngine("LEMP-LI", seed=BENCH_SEED).fit(dataset.probes)
                    whole = engine.row_top_k(dataset.queries, 5)  # warm
                    result = engine.row_top_k(dataset.queries, 5, batch_size=batch_size)
                call = engine.history[-1]
                assert np.array_equal(result.indices, whole.indices)
                assert np.array_equal(result.scores, whole.scores)
                references[kernel] = result
                rows.append([dataset_name, kernel, call.num_batches, f"{call.seconds:.4f}"])
            assert [set(row) for row in references["einsum"].indices] == [
                set(row) for row in references["blocked"].indices
            ]
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(["dataset", "kernel", "batches", "warm call [s]"], rows)
    write_report(
        "ablation_kernel.txt",
        "Verification kernel: chunked Row-Top-5, warm engines",
        table,
    )
