"""Row-Top-k as one seeded pass: edge cases, the seed bound and the verify chunks.

Each query's θ′ is fixed up front (:func:`~repro.core.top_k.seed_thresholds`):
the k-th largest fixed-point score against the longest ``max(SEED_PROBES, k)``
live probes, lowered by :func:`~repro.core.kernels.seed_margin`.  These tests
check that

* on degenerate inputs the answer is byte-identical to verifying every live
  row under the active kernel and agrees with the naive full product, for
  ``lemp:L``/``LI``/``I`` under both kernels;
* the seed never exceeds the final k-th verified score, bit for bit, even
  where near-duplicate probes put that score a few ULPs from the seed rows',
  and it does not depend on the call's other queries;
* verifying the queue in many small chunks changes no byte of the answer,
  and with k past the seed rows each hit is sorted a bounded number of
  times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_retriever
from repro.core import above_theta, top_k
from repro.core.kernels import gather_matvec, seed_bits, seed_margin, use_kernel
from repro.core.lemp import Lemp
from repro.core.top_k import SEED_PROBES, seed_thresholds
from repro.core.vector_store import PreparedQueries
from tests.conftest import make_factors

RANK = 12
#: Relative tolerance between the engine's and the naive product's scores.
RTOL = 1e-9


def exhaustive_top_k(lemp: Lemp, queries: np.ndarray, k: int):
    """Every live row verified under the active kernel, ranked by (score desc, id asc).

    Returns the answer the seeded pass must equal byte for byte, and each
    query position's unscaled k-th score.
    """
    store = lemp.store
    live = store.live_positions()
    ids = store.ids[live].astype(np.int64)
    prepared = PreparedQueries(queries)
    kept = min(k, live.size)
    indices = np.full((prepared.size, k), -1, dtype=np.int64)
    scores = np.full((prepared.size, k), -np.inf)
    kth = np.full(prepared.size, -np.inf)
    for position in range(prepared.size):
        verified = (gather_matvec(store.directions, live, prepared.directions[position])
                    * store.lengths[live])
        best = np.lexsort((ids, -verified))[:kept]
        original = prepared.ids[position]
        indices[original, :kept] = ids[best]
        scores[original, :kept] = verified[best] * prepared.norms[position]
        if kept:
            kth[position] = verified[best[-1]]
    return indices, scores, kth


def assert_matches_naive(result, queries: np.ndarray, probes: np.ndarray, k: int) -> None:
    """Same scores as the naive product, same rows up to ties at the k-th score."""
    naive = create_retriever("naive").fit(probes).row_top_k(queries, k)
    filled = result.indices >= 0
    np.testing.assert_array_equal(filled, naive.indices >= 0)
    np.testing.assert_allclose(result.scores[filled], naive.scores[filled], rtol=RTOL,
                               atol=1e-300)
    for row in range(queries.shape[0]):
        mine, theirs = result.scores[row][filled[row]], naive.scores[row][filled[row]]
        if mine.size == 0:
            continue
        tolerance = RTOL * max(1.0, abs(mine[-1]))
        assert (set(result.indices[row][:mine.size][mine > mine[-1] + tolerance].tolist())
                == set(naive.indices[row][:mine.size][theirs > mine[-1] + tolerance].tolist()))


def kth_tie_problem():
    """Exact duplicate probes tie at the k-th score, across the seed rows' boundary.

    Queries along the first axis score 0 on every base probe (whose first
    coordinate is 0), more on three longer leaders, and the same on twelve
    duplicates whose length sits near the ``SEED_PROBES``-th longest.
    """
    base = make_factors(1400, rank=RANK, length_cov=0.3, seed=61)
    base[:, 0] = 0.0
    order = np.sort(np.linalg.norm(base, axis=1))[::-1]
    tie_length = order[SEED_PROBES - 8]
    axis = np.eye(RANK)[0]
    leaders = np.outer(tie_length * np.array([1.3, 1.2, 1.1]), axis)
    duplicates = np.repeat(tie_length * axis[None], 12, axis=0)
    probes = np.vstack([base, leaders, duplicates])
    probes = probes[np.random.default_rng(62).permutation(len(probes))]
    queries = make_factors(10, rank=RANK, length_cov=0.5, seed=63)
    queries[:5] = np.outer([0.5, 1.0, 2.0, 3.0, 7.0], axis)
    return queries, probes


def edge_case(name: str):
    """``(queries, probes, k, removed)`` of one named degenerate case."""
    queries = make_factors(16, rank=RANK, length_cov=0.8, seed=51)
    probes = make_factors(1500, rank=RANK, length_cov=0.8, seed=52)
    removed = None
    if name == "k_equals_n":
        probes, k = probes[:300], 300
    elif name == "k_above_n":
        probes, k = probes[:300], 310
    elif name == "k_above_seed_rows":
        k = SEED_PROBES + 88
    elif name == "kth_ties_across_seed_rows":
        queries, probes = kth_tie_problem()
        k = 5
    elif name == "zero_norm_queries":
        queries[::4] = 0.0
        k = 7
    elif name == "all_negative_scores":
        queries, probes = np.abs(queries), -np.abs(probes)
        k = 9
    elif name == "removed_below_seed_rows":
        removed, k = np.arange(0, 1500, 5)[:, None] + np.arange(4), 10
        removed = removed.ravel()[:1150]
    elif name == "removed_below_k":
        removed, k = np.arange(1200), 320
    else:
        raise ValueError(name)
    return queries, probes, k, removed


EDGE_CASES = ["k_equals_n", "k_above_n", "k_above_seed_rows", "kth_ties_across_seed_rows",
              "zero_norm_queries", "all_negative_scores", "removed_below_seed_rows",
              "removed_below_k"]


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI", "I"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_cases_match_exhaustive_verification_and_naive(case, spec, kernel):
    queries, probes, k, removed = edge_case(case)
    with use_kernel(kernel):
        lemp = Lemp(algorithm=spec, seed=0).fit(probes)
        if removed is not None:
            lemp.remove(removed)
            probes = np.delete(probes, removed, axis=0)
        result = lemp.row_top_k(queries, k)
        indices, scores, kth = exhaustive_top_k(lemp, queries, k)
        seeds = seed_thresholds(PreparedQueries(queries), lemp.layout(), k)
    assert result.indices.tobytes() == indices.tobytes()
    assert result.scores.tobytes() == scores.tobytes()
    assert np.all(seeds <= kth)
    assert_matches_naive(result, queries, probes, k)
    if case == "all_negative_scores":
        assert np.all(seeds < 0.0) and np.all(result.scores < 0.0)
    elif case == "zero_norm_queries":
        zero = np.flatnonzero(~queries.any(axis=1))
        assert np.all(result.scores[zero] == 0.0)
        # Ties at 0 keep the lowest ids.
        assert np.all(result.indices[zero] == np.arange(k))
    elif case.startswith("removed"):
        assert lemp.num_probes < SEED_PROBES
    elif case == "kth_ties_across_seed_rows":
        assert_ties_straddle_the_seed_rows(lemp, probes, result, k)


def assert_ties_straddle_the_seed_rows(lemp, probes, result, k):
    """The tied duplicates sit on both sides of the seed rows; the lowest ids are kept."""
    on_axis = np.flatnonzero(~probes[:, 1:].any(axis=1))
    twins = on_axis[probes[on_axis, 0] == probes[on_axis, 0].min()]
    assert twins.size == 12
    walk = np.concatenate([np.arange(bucket.start, bucket.end) for bucket in lemp.buckets])
    ranks = np.flatnonzero(np.isin(lemp.store.ids[walk], twins))
    assert ranks.min() < SEED_PROBES <= ranks.max()
    for row in range(5):
        assert result.scores[row, k - 1] == result.scores[row, k - 2]
        kept = result.indices[row][np.isin(result.indices[row], twins)]
        np.testing.assert_array_equal(kept, twins[:kept.size])


def near_duplicate_problem():
    """Probes a few ULPs apart along each query, in and past the seed rows."""
    rng = np.random.default_rng(71)
    queries = make_factors(6, rank=RANK, length_cov=0.5, seed=72)
    filler = make_factors(2000, rank=RANK, length_cov=0.2, seed=73) * 0.2
    rows = [filler]
    ulps = 1.0 + np.arange(-6, 7) * 2.0**-52
    for query in queries:
        unit = query / np.linalg.norm(query)
        noise = rng.standard_normal(RANK)
        noise -= (noise @ unit) * unit
        row = unit + 1e-3 * noise
        # Longest of all (seed rows), and shorter copies that only the walk meets.
        rows += [np.outer(ulps, row) * 3.0, np.outer(ulps, row) * 0.5]
    probes = np.vstack(rows)
    return queries, probes[rng.permutation(len(probes))]


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("k", [3, 13, 20])
def test_seed_is_never_above_the_final_kth_score(kernel, k):
    """Near-duplicates put the k-th score within ULPs of the seed rows' scores; the
    seed stays at or below it, bit for bit, and within the margin of it."""
    queries, probes = near_duplicate_problem()
    with use_kernel(kernel):
        lemp = Lemp(algorithm="L").fit(probes)
        prepared = PreparedQueries(queries)
        seeds = seed_thresholds(prepared, lemp.layout(), k)
        result = lemp.row_top_k(queries, k)
        indices, scores, kth = exhaustive_top_k(lemp, queries, k)
    assert result.indices.tobytes() == indices.tobytes()
    assert result.scores.tobytes() == scores.tobytes()
    assert np.all(seeds <= kth)
    exponent = int(np.frexp(lemp.store.lengths[lemp.buckets[0].start])[1])
    assert np.all(kth - seeds <= 2.0 * seed_margin(RANK, exponent))
    if k <= 13:
        # The k-th score is a near-duplicate's: ULPs from the one before it.
        gaps = result.scores[:, k - 2] - result.scores[:, k - 1]
        assert np.all(gaps <= 1e-14 * result.scores[:, k - 1])


def test_seed_does_not_depend_on_the_calls_other_queries():
    """A BLAS product's rounding depends on its shape; the fixed-point seed does not,
    so neither do the counters: one call counts what its rows count alone."""
    queries = make_factors(300, rank=50, length_cov=0.6, seed=81)
    probes = make_factors(3000, rank=50, length_cov=0.7, seed=82)
    lemp = Lemp(algorithm="LI", seed=0).fit(probes)
    layout = lemp.layout()
    prepared = PreparedQueries(queries)
    # Each original row's seed, from one call on all of them.
    full = seed_thresholds(prepared, layout, 10)[np.argsort(prepared.ids)]
    seed_thresholds(prepared, layout, SEED_PROBES + 100)  # builds more seed rows
    for rows in ([0], [5, 6], [7, 8, 9, 10, 11], list(range(40, 140))):
        block = PreparedQueries(queries[rows])
        part = seed_thresholds(block, layout, 10)[np.argsort(block.ids)]
        assert part.tobytes() == full[rows].tobytes()

    lemp.row_top_k(queries, 10)  # tunes once; later calls reuse it
    names = ("candidates", "inner_products", "buckets_examined", "buckets_pruned")

    def counted(blocks):
        before = [getattr(lemp.stats, name) for name in names]
        for block in blocks:
            lemp.row_top_k(block, 10)
        return [getattr(lemp.stats, name) - old for name, old in zip(names, before)]

    assert counted([queries[:60]]) == counted([queries[row:row + 1] for row in range(60)])


@pytest.mark.parametrize("rank", [1, 2, 3, 50, 64, 65, 400, 5000])
def test_seed_product_is_exact(rank):
    """Every partial sum of the fixed-point seed product is an integer below 2⁵³."""
    bits = seed_bits(rank)
    assert rank * (2**bits + 1) ** 2 <= 2**53
    assert seed_margin(rank, 0) < 1e-3


@pytest.mark.parametrize("spec", ["L", "LI"])
def test_chunked_verification_is_byte_identical(spec, monkeypatch):
    """Verify queues of 64 rows (many chunks, each folded into the kept k) give the
    bytes of a one-chunk run."""
    queries = make_factors(200, rank=RANK, length_cov=0.8, seed=91)
    probes = make_factors(4000, rank=RANK, length_cov=0.4, seed=92)
    queries[::17] = 0.0  # every row ties at 0: thousands of hits for these queries
    lemp = Lemp(algorithm=spec, seed=0).fit(probes)
    expected = lemp.row_top_k(queries, 8)
    chunks = []
    keep = top_k._TopKQueue.keep

    def counted(self, positions, ids, scores):
        chunks.append(positions.size)
        return keep(self, positions, ids, scores)

    monkeypatch.setattr(above_theta, "VERIFY_QUEUE_ROWS", 64)
    monkeypatch.setattr(top_k._TopKQueue, "keep", counted)
    result = lemp.row_top_k(queries, 8)
    assert len(chunks) > 100
    assert result.indices.tobytes() == expected.indices.tobytes()
    assert result.scores.tobytes() == expected.scores.tobytes()


def test_large_k_sorts_each_hit_a_bounded_number_of_times(monkeypatch):
    """Past the seed rows θ′ bounds little.  Merging only once the waiting hits
    outnumber the kept pairs sorts at most twice the hits plus the answer, and the
    cutoffs the merges raise drop most rows; the answer stays exact."""
    queries = make_factors(60, rank=RANK, length_cov=0.4, seed=95)
    probes = make_factors(8000, rank=RANK, length_cov=0.3, seed=96)
    k = SEED_PROBES + 100
    lemp = Lemp(algorithm="LI", seed=0).fit(probes)
    hits, sorted_rows = [], []
    keep, merge = top_k._TopKQueue.keep, top_k._TopKQueue.merge

    def counted_keep(self, positions, ids, scores):
        hits.append(positions.size)
        return keep(self, positions, ids, scores)

    def counted_merge(self):
        sorted_rows.append(self.kept[0].size + sum(hit[0].size for hit in self.hits))
        return merge(self)

    monkeypatch.setattr(above_theta, "VERIFY_QUEUE_ROWS", 1024)
    monkeypatch.setattr(top_k._TopKQueue, "keep", counted_keep)
    monkeypatch.setattr(top_k._TopKQueue, "merge", counted_merge)
    result = lemp.row_top_k(queries, k)
    indices, scores, _ = exhaustive_top_k(lemp, queries, k)
    assert result.indices.tobytes() == indices.tobytes()
    assert result.scores.tobytes() == scores.tobytes()
    assert len(hits) > 20
    assert sum(sorted_rows) <= 2 * sum(hits) + queries.shape[0] * k
    assert sum(hits) < queries.shape[0] * probes.shape[0] // 2
