"""Re-measure the counted-cost tuner's constants (``repro.core.tuner``) on this host.

Times block products, verify calls and coordinate-retriever scans with BLAS pinned to one
thread, fits the weights and prints them beside the committed values (nothing reads them at
runtime): ``PYTHONPATH=src python tools/measure_tuner_costs.py``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import timeit
from dataclasses import astuple

import numpy as np

from repro.core import tuner
from repro.core.bucket import Bucket
from repro.core.kernels import gather_matvec
from repro.core.retrievers import CoordRetriever, IncrRetriever
from repro.core.retrievers.length import BLOCK_ELEMENTS, block_survivors
from repro.core.vector_store import PreparedQueries, VectorStore
from repro.datasets.synthetic import synthetic_factors


def best(run, number=20):
    """Fastest of seven timings of ``run``, seconds per call."""
    return min(timeit.repeat(run, number=number, repeat=7)) / number


def bucket_of(rows, rank):
    """A unit-length bucket and one block of queries for it."""
    store = VectorStore(synthetic_factors(rows, rank, length_cov=0.0, seed=1))
    queries = PreparedQueries(synthetic_factors(BLOCK_ELEMENTS // rows, rank, seed=2))
    return Bucket(store, 0, rows, 0), queries.directions


def per_row(rows, rank):
    """Block-product seconds per (prefix row, query)."""
    bucket, queries = bucket_of(rows, rank)
    cut, thresholds = np.full(len(queries), rows), np.full(len(queries), 0.5)
    return best(lambda: block_survivors(bucket, queries, cut, thresholds), 5) / cut.sum()


def fit(design, times):
    return np.linalg.lstsq(np.array(design, dtype=float), np.array(times), rcond=None)[0]


def main():
    # LENGTH: cache-sized buckets at three ranks, then streaming on one that is not.
    row_s, entry_s = fit([[1, r] for r in (10, 50, 200)], [per_row(500, r) for r in (10, 50, 200)])
    byte_s = (per_row(5000, 400) - row_s - 400 * entry_s) / (400 * 8 / (BLOCK_ELEMENTS // 5000))
    bucket, queries = bucket_of(2000, 50)
    pair_s = best(lambda: gather_matvec(bucket.directions, np.arange(8), queries[0]), 200)
    all_s = best(lambda: gather_matvec(bucket.directions, np.arange(2000), queries[0]), 200)
    measured = {"LENGTH_PAIR_S": pair_s, "LENGTH_ROW_S": row_s, "LENGTH_ENTRY_S": entry_s,
                "LENGTH_BYTE_S": byte_s, "VERIFY_ENTRY_S": (all_s - pair_s) / 1992 / 50}
    committed = {name: getattr(tuner, name) for name in measured}
    # Coordinate retrievers: θ_b ≈ 1 fits call, row and focus parts; θ_b small, entries.
    for retriever in (CoordRetriever(), IncrRetriever()):
        design, times = [], []
        for rows in (200, 2000, 8000):
            bucket, queries = bucket_of(rows, 50)
            design += [[1, rows, phi] for phi in (1, 3, 5)]
            times += [best(lambda: retriever.retrieve(bucket, queries[0], 1, 0.9999, 0.9999, phi))
                      for phi in (1, 3, 5)]
        weights = fit(design, times)
        scanned = retriever.focus_counts(bucket, queries[0], 1.0, 0.05, 0.05, [5])[0][0]
        full = best(lambda: retriever.retrieve(bucket, queries[0], 1.0, 0.05, 0.05, 5))
        names = [f"{retriever.name}.{p}" for p in ("pair_s", "row_s", "coordinate_s", "entry_s")]
        measured.update(zip(names, (*weights, (full - weights @ [1, 8000, 5]) / scanned)))
        committed.update(zip(names, astuple(tuner.SCAN_COSTS[retriever.name])))
    for name, value in measured.items():
        print(f"{name:<20} measured {value:10.3e}   committed {committed[name]:10.3e}")


if __name__ == "__main__":
    main()
