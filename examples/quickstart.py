"""Quickstart: retrieve large entries of a matrix product with the v2 engine.

Generates a small synthetic pair of factor matrices, then solves both problems
from the paper — Above-θ (all entries of Q·Pᵀ at or above a threshold) and
Row-Top-k (the k best probes per query) — through the batched
:class:`~repro.engine.RetrievalEngine`, updates the index incrementally, and
persists / reloads it.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import RetrievalEngine
from repro.datasets import synthetic_factors
from repro.eval import theta_for_result_count


def main() -> None:
    rng_seed = 7
    rank = 50

    # Queries could be users, probes could be items (both as rows of factor
    # matrices produced by some matrix-factorisation model).
    queries = synthetic_factors(2000, rank=rank, length_cov=1.0, seed=rng_seed)
    probes = synthetic_factors(800, rank=rank, length_cov=1.0, seed=rng_seed + 1)

    # Build LEMP-LI (the paper's overall winner) from its registry spec.
    engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
    naive = RetrievalEngine("naive").fit(probes)

    # ---------------------------------------------------------------- Above-θ
    # Pick θ so that roughly 5000 of the 1.6M product entries qualify.
    theta = theta_for_result_count(queries, probes, 5000)
    print(f"Above-θ with θ = {theta:.4f}")

    result = engine.query(queries).batch_size(512).above(theta)
    lemp = engine.retriever
    print(f"  retrieved pairs        : {result.num_results}")
    print(f"  buckets                : {lemp.num_buckets}")
    print(f"  candidates per query   : {lemp.stats.candidates_per_query:.1f} "
          f"(naive would verify {probes.shape[0]})")
    print(f"  preprocessing / tuning : {lemp.stats.preprocessing_seconds:.3f}s / "
          f"{lemp.stats.tuning_seconds:.3f}s")
    print(f"  retrieval              : {lemp.stats.retrieval_seconds:.3f}s")
    print(f"  batches                : {engine.history[-1].num_batches}")

    # Verify against the naive full product.
    reference = naive.above_theta(queries, theta)
    assert result.to_set() == reference.to_set()
    print("  matches naive retrieval: yes")

    # -------------------------------------------------------------- Row-Top-k
    print("\nRow-Top-10")
    top = engine.query(queries).batch_size(512).top_k(10)
    call = engine.history[-1]
    print(f"  answered queries       : {top.num_queries}")
    print(f"  batches                : {call.num_batches}")
    print(f"  tuning cache           : {call.tuning_cache_hits} hits / "
          f"{call.tuning_cache_misses} miss (tuned once, reused per chunk)")
    first_row = top.row(0)[:3]
    formatted = ", ".join(f"probe {j} ({score:.3f})" for j, score in first_row)
    print(f"  best probes for query 0: {formatted}")

    # A repeat call at the same k is fully warm: no tuner run at all.
    engine.query(queries).batch_size(512).top_k(10)
    warm = engine.history[-1]
    print(f"  warm repeat            : {warm.tuning_cache_hits} hits / "
          f"{warm.tuning_cache_misses} misses")

    reference_top = naive.row_top_k(queries, k=10)
    assert np.allclose(top.scores, reference_top.scores, atol=1e-8)
    print("  matches naive top-k    : yes")

    # -------------------------------------------------- incremental updates
    print("\nIncremental updates")
    new_items = synthetic_factors(50, rank=rank, length_cov=1.0, seed=rng_seed + 2)
    engine.partial_fit(new_items)           # new probes get ids 800..849
    engine.remove(np.arange(10))            # drop the first ten, renumber
    naive.partial_fit(new_items)
    naive.remove(np.arange(10))
    updated = engine.row_top_k(queries, k=10)
    assert np.allclose(updated.scores, naive.row_top_k(queries, k=10).scores, atol=1e-8)
    print(f"  probes after update    : {engine.num_probes}")
    print("  matches naive top-k    : yes")

    # ------------------------------------------------------------ persistence
    print("\nPersistence")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx"
        engine.save(path)
        reloaded = RetrievalEngine.load(path)
        again = reloaded.row_top_k(queries, k=10)
        assert np.array_equal(again.indices, updated.indices)
        assert np.array_equal(again.scores, updated.scores)
        print(f"  saved to               : {path.name}/ (meta.json + index.npz)")
        print("  reload is bit-identical: yes")


if __name__ == "__main__":
    main()
