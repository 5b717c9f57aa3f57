"""Row-Top-k solver (paper Section 4.6): one seeded pass.

Ranking by ``qᵀp`` is ranking by ``q̄ᵀp`` (the query length fixed to 1), so
a query's k largest entries are an Above-θ problem at any lower bound θ′
on its k-th score: every top-k probe reaches θ′.  :func:`seed_thresholds`
fixes θ′ up front, as the k-th largest score against the longest
``max(SEED_PROBES, k)`` live probes, computed exactly in fixed point and
lowered by the proven margin :func:`~repro.core.kernels.seed_margin`.

Then Row-Top-k walks like Above-θ, one threshold per query.  Queries are
sorted by increasing θ′, so a bucket's live queries (``l_b ≥ θ′``) are a
prefix.  Each bucket is screened by
:func:`~repro.core.above_theta._screen_bucket` — LENGTH pairs by one f32
block product per query block, coordinate pairs pair by pair — into the
call's one verify queue (:class:`~repro.core.above_theta._VerifyQueue`),
verified by one grouped kernel call per
:data:`~repro.core.above_theta.VERIFY_QUEUE_ROWS` rows.  Each query keeps
the k best verified ``(score, id)`` pairs in the total order score desc,
then id asc, so the answer is a pure function of the verified pairs,
whatever the walk order, the chunking, and how many rows below θ′ the
screen let through.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.above_theta import _screen_bucket, _VerifyQueue
from repro.core.bucket import BucketLayout
# The queue verifies through above_theta's gather_matvec; this module keeps
# the name too, as each solver module does for perfbench's per-layer tracer.
from repro.core.kernels import gather_matvec  # noqa: F401
from repro.core.kernels import seed_bits, seed_margin
from repro.core.selector import RetrieverSelector
from repro.core.stats import RunStats
from repro.core.vector_store import PreparedQueries, span_positions

#: Fewest longest live probes each query's seed is taken against.
SEED_PROBES = 512


def seed_thresholds(queries: PreparedQueries, layout: BucketLayout, k: int) -> np.ndarray:
    """Each query's θ′: its k-th largest score against the longest probes, lowered.

    The probes are the first ``max(SEED_PROBES, k)`` live rows of the walk
    (all of them if fewer), and scores are with the query's direction.  One
    product scores every pair in fixed point, exactly, so each seed is a
    pure function of its query and the index, whatever the call's other
    queries; lowering the k-th score by
    :func:`~repro.core.kernels.seed_margin` puts it at or below the k-th
    verified score of those probes, and so of the whole index.  Returns
    one θ′ per query position (−inf for an empty index).
    """
    count = min(int(layout.offsets[-1]), max(SEED_PROBES, k))
    if queries.size == 0 or count == 0:
        return np.full(queries.size, -np.inf)
    bits = seed_bits(queries.rank)
    # The probes are rint(p·l_p·2^(bits−E)), E the exponent of the longest
    # length, so every l_p < 2ᴱ.  The layout keeps the default count's: they
    # take about 70 µs to build, an eighth of a single-row Row-Top-10 call.
    found = layout.seed_probes if count <= SEED_PROBES else None
    if found is None:
        last = int(np.searchsorted(layout.offsets, count))
        rows = span_positions(layout.starts[:last], layout.ends[:last])[:count]
        exponent = math.frexp(layout.max_lengths[0])[1]
        scaled = np.ldexp(layout.store.lengths[rows], bits - exponent)
        found = np.rint(layout.store.directions[rows] * scaled[:, None]), exponent
        if count <= SEED_PROBES:
            layout.seed_probes = found
    probes, exponent = found
    products = np.rint(np.ldexp(queries.directions, bits)) @ probes.T
    column = count - min(k, count)
    kth = np.partition(products, column, axis=1)[:, column]
    with np.errstate(over="ignore"):
        seeds = np.ldexp(kth, exponent - 2 * bits) - seed_margin(queries.rank, exponent)
    # A k-th score past the float range bounds nothing.
    seeds[~np.isfinite(seeds)] = -np.inf
    return seeds


def solve_row_top_k(
    queries: PreparedQueries,
    layout: BucketLayout,
    k: int,
    seeds: np.ndarray,
    selector: RetrieverSelector,
    stats: RunStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Retrieve the k largest inner products for every query row.

    ``seeds`` holds each query position's θ′ (:func:`seed_thresholds`).
    Returns ``(indices, scores)`` arrays of shape ``(num_queries, k)``
    indexed by *original* query id, padded with -1 / -inf where fewer than
    ``k`` probes exist.  Every score comes from
    :func:`~repro.core.kernels.gather_matvec`, so the answer is
    byte-identical to verifying every pair.
    """
    indices = np.full((queries.size, k), -1, dtype=np.int64)
    scores = np.full((queries.size, k), -np.inf)
    # Queries by increasing θ′: each bucket's live queries are a prefix.
    order = np.argsort(seeds, kind="stable")
    live = np.searchsorted(-layout.max_lengths, -seeds[order], side="right")
    examined = int(live.sum())
    stats.buckets_examined += examined
    stats.buckets_pruned += queries.size * len(layout.buckets) - examined
    active = np.searchsorted(-live, -np.arange(live.max(initial=0)), side="left")

    queue = _TopKQueue(queries, layout.store, seeds, k)
    for bucket, count in zip(layout.buckets, active.tolist()):
        positions = order[:count]
        _screen_bucket(bucket, queries, positions, seeds[positions], queue.norms[:count],
                       queue.cutoffs[positions], selector, stats, queue)
        queue.flush(final=False)
    queue.flush(final=True)

    positions, ids, best, slots = queue.merge()
    original = queries.ids[positions]
    indices[original, slots] = ids
    # Ranking was computed against the normalised query (Section 4.5);
    # report the true inner products by scaling back with ‖q‖.
    scores[original, slots] = best * queries.norms[positions]
    return indices, scores


class _TopKQueue(_VerifyQueue):
    """A verify queue that keeps each query's ``k`` best verified pairs.

    Hits (rows that reach the query's cutoff, at first its θ′) wait until
    they outnumber the kept pairs, so each is sorted a bounded number of
    times however large ``k`` is.  Then :meth:`merge` lexsorts both on
    (query position, score desc, id asc) and each query keeps the first
    ``k``: that order is total, so the kept pairs are a pure function of
    the hits, not of when they arrived.  A query that keeps ``k`` pairs
    raises its cutoff to its ``k``-th score: a later row below it cannot
    enter, and one equal to it still can (its id may be smaller).
    """

    def __init__(self, queries: PreparedQueries, store, seeds: np.ndarray, k: int) -> None:
        super().__init__(queries, store, seeds.copy(), np.ones(queries.size))
        self.k = k
        self.kept = (np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0),
                     np.empty(0, np.intp))

    def keep(self, positions: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> None:
        self.hits.append((positions, ids, scores))
        if sum(hit[0].size for hit in self.hits) >= self.kept[0].size:
            self.merge()

    def merge(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold the waiting hits into the kept pairs; return ``(positions, ids, scores, slots)``."""
        if self.hits:
            positions, ids, scores = (np.concatenate(parts) for parts in
                                      zip(self.kept[:3], *self.hits))
            order = np.lexsort((ids, -scores, positions))
            positions, ids, scores = positions[order], ids[order], scores[order]
            slots = np.arange(positions.size) - np.searchsorted(positions, positions)
            best = slots < self.k
            self.kept = positions[best], ids[best], scores[best], slots[best]
            self.hits = []
            full = slots == self.k - 1
            self.cutoffs[positions[full]] = scores[full]
        return self.kept
