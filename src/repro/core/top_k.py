"""Row-Top-k solver (paper Section 4.5).

Every query walks the buckets in order of decreasing maximum length,
maintaining a running lower bound θ′ on its final k-th largest inner product.
Each bucket is processed with the Above-θ machinery at threshold θ′ (query
length fixed to 1, which does not change the ranking); the verified scores
tighten θ′, and as soon as a bucket's longest vector falls below θ′ the
query's remaining buckets are pruned wholesale.

The walk is bucket-major, like Algorithm 1: the outer loop visits buckets,
the inner step handles every still-walking query at once, and each query
keeps its own θ′ and top-k state.  A query still sees the buckets in the
same order with the θ′ left by the buckets before, so its θ′ sequence — and
every counter — is that of a per-query walk.  Per bucket, one vectorised
step prunes finished queries and splits the rest between LENGTH (scored for
all of them by one block product, see
:func:`~repro.core.retrievers.length.score_length_pairs`) and the coordinate
retrievers (run pair by pair).
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.kernels import gather_matvec
from repro.core.retrievers.length import MIN_BLOCK_PAIRS, score_length_pairs
from repro.core.selector import RetrieverSelector
from repro.core.stats import RunStats
from repro.core.vector_store import PreparedQueries

#: Identifier of an empty top-k slot; sorts after every real probe id.
_NO_ID = np.iinfo(np.int64).max


def solve_row_top_k(
    queries: PreparedQueries,
    buckets: list[Bucket],
    k: int,
    selector: RetrieverSelector,
    stats: RunStats,
    screen=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Retrieve the k largest inner products for every query row.

    Returns ``(indices, scores)`` arrays of shape ``(num_queries, k)`` indexed
    by *original* query id, padded with -1 / -inf where fewer than ``k`` probes
    exist.

    A score strictly below θ′ lies below all k kept entries and cannot
    change them, so only candidates that may reach θ′ need exact scores.
    LENGTH candidates are screened with their block-product scores plus
    :func:`~repro.core.kernels.screen_bound`; ``screen``, an optional
    :class:`~repro.core.screening.ScreenTier`, screens every candidate with
    compressed dot products plus the tier's error bound instead.  Every
    merged score comes from :func:`~repro.core.kernels.gather_matvec`, so
    the θ′ walk and the results are byte-identical to verifying everything.
    """
    # min(k, number of probes) without visiting every bucket.
    num_probes = 0
    for bucket in buckets:
        num_probes += bucket.size
        if num_probes >= k:
            break
    effective_k = min(k, num_probes)
    indices = np.full((queries.size, k), -1, dtype=np.int64)
    scores = np.full((queries.size, k), -np.inf)
    if queries.size == 0 or effective_k == 0:
        return indices, scores

    top = _RunningTopK(queries.size, effective_k)
    theta_prime = top.theta_prime
    walking = np.arange(queries.size)

    for bucket in buckets:
        # local_threshold(θ′, 1, l_b) of every walking query.
        if bucket.max_length > 0.0:
            theta_b = theta_prime[walking] / bucket.max_length
        else:
            theta_b = np.where(theta_prime[walking] > 0.0, np.inf, -np.inf)
        done = theta_b > 1.0
        if done.any():
            # Buckets are ordered by decreasing length: every later bucket is
            # pruned for these queries as well.
            stats.buckets_pruned += int(np.count_nonzero(done))
            walking = walking[~done]
            theta_b = theta_b[~done]
            if walking.size == 0:
                break
        stats.buckets_examined += walking.size

        if walking.size < MIN_BLOCK_PAIRS:
            # A few queries: a block product would cost more than it saves.
            length_rows, pair_rows, pair_theta_b = walking[:0], walking, theta_b
            routes = [selector.select(bucket, value) for value in theta_b.tolist()]
        else:
            blocked, routes = selector.split(bucket, theta_b)
            length_rows, pair_rows, pair_theta_b = (
                walking[blocked], walking[~blocked], theta_b[~blocked])

        # Each row of the state is touched by one pair per bucket, so folding
        # pair by pair sees the same θ′ as folding the bucket at once.
        if length_rows.size:
            thresholds = theta_prime[length_rows]
            for pairs, candidates, cosines in score_length_pairs(
                    bucket, queries.directions, length_rows, None, thresholds,
                    thresholds, stats, screen, gather_matvec):
                top.fold(bucket, length_rows[pairs], candidates, cosines)

        for row, value, (retriever, phi) in zip(pair_rows.tolist(), pair_theta_b.tolist(),
                                                 routes):
            candidates, cosines = _score_pair(
                queries.directions[row], bucket, float(theta_prime[row]), value,
                retriever, phi, stats, screen)
            if candidates.size:
                top.fold(bucket, row, candidates, cosines)

    filled = top.ids != _NO_ID
    indices[queries.ids, :effective_k] = np.where(filled, top.ids, -1)
    # Ranking was computed against the normalised query (Section 4.5);
    # report the true inner products by scaling back with ‖q‖.
    scaled = top.scores * queries.norms[:, None]
    scores[queries.ids, :effective_k] = np.where(filled, scaled, -np.inf)
    return indices, scores


def _score_pair(query_direction, bucket, threshold, theta_b, retriever, phi, stats, screen):
    """Generate, screen and verify one (query, bucket) pair at θ′ = ``threshold``.

    Returns ``(candidates, cosines)`` of the verified candidates.
    """
    candidates = retriever.retrieve(bucket, query_direction, 1.0, threshold, theta_b, phi)
    stats.candidates += int(candidates.size)
    if candidates.size and screen is not None and np.isfinite(threshold):
        upper = screen.upper_cosines(bucket.start, candidates, query_direction)
        stats.screen_products += int(candidates.size)
        # Keep on >=: a candidate whose exact score ties θ′ may displace an
        # equal-scoring entry, so only a *strict* upper bound below θ′ may drop.
        keep = upper * bucket.lengths[candidates] >= threshold
        stats.screen_dropped += int(candidates.size - np.count_nonzero(keep))
        candidates = candidates[keep]
    if candidates.size == 0:
        return candidates, np.empty(0)
    stats.inner_products += int(candidates.size)
    # The kernel keeps each row's rounding independent of the candidate-set
    # size; see the matching comment in above_theta.py.
    return candidates, gather_matvec(bucket.directions, candidates, query_direction)


class _RunningTopK:
    """Per-query top-k state of a walk: the kept entries and θ′.

    Row ``i`` keeps its entries sorted by (score desc, id asc), padded with
    (-inf, ``_NO_ID``).  That order is total, so the kept set is a pure
    function of the (score, id) pairs ever folded in — independent of the
    order and grouping in which they arrive, and of how many
    below-threshold candidates were verified along the way.  A row's θ′
    becomes its k-th score once it holds ``k`` entries.
    """

    def __init__(self, rows: int, k: int) -> None:
        self.k = k
        self.scores = np.full((rows, k), -np.inf)
        self.ids = np.full((rows, k), _NO_ID, dtype=np.int64)
        self.theta_prime = np.full(rows, -np.inf)

    def fold(self, bucket: Bucket, rows, candidates: np.ndarray, cosines: np.ndarray) -> None:
        """Fold verified candidates of ``bucket`` into ``rows`` (one row or one per candidate)."""
        verified = cosines * bucket.lengths[candidates]
        # A score strictly below θ′ cannot displace any of the k kept entries.
        useful = verified >= self.theta_prime[rows]
        if not useful.any():
            return
        ids = bucket.ids[candidates[useful]].astype(np.int64)
        verified = verified[useful]
        if np.ndim(rows) == 0:
            self._fold_row(rows, ids, verified)
        else:
            self._fold_rows(rows[useful], ids, verified)

    def _fold_row(self, row: int, ids: np.ndarray, scores: np.ndarray) -> None:
        k = self.k
        merged_scores = np.concatenate((self.scores[row], scores))
        merged_ids = np.concatenate((self.ids[row], ids))
        keep = np.lexsort((merged_ids, -merged_scores))[:k]
        self.scores[row] = merged_scores[keep]
        self.ids[row] = merged_ids[keep]
        if self.ids[row, k - 1] != _NO_ID:
            self.theta_prime[row] = self.scores[row, k - 1]

    def _fold_rows(self, rows: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> None:
        """:meth:`_fold_row` for many rows at once (``rows`` sorted)."""
        k = self.k
        touched, first, counts = np.unique(rows, return_index=True, return_counts=True)
        if touched.size == 1:
            self._fold_row(int(touched[0]), ids, scores)
            return
        merged_scores = np.full((touched.size, k + int(counts.max())), -np.inf)
        merged_ids = np.full(merged_scores.shape, _NO_ID, dtype=np.int64)
        merged_scores[:, :k] = self.scores[touched]
        merged_ids[:, :k] = self.ids[touched]
        group = np.repeat(np.arange(touched.size), counts)
        column = k + np.arange(rows.size) - np.repeat(first, counts)
        merged_scores[group, column] = scores
        merged_ids[group, column] = ids
        keep = np.lexsort((merged_ids, -merged_scores), axis=1)[:, :k]
        self.scores[touched] = np.take_along_axis(merged_scores, keep, axis=1)
        self.ids[touched] = np.take_along_axis(merged_ids, keep, axis=1)
        full = self.ids[touched, k - 1] != _NO_ID
        self.theta_prime[touched[full]] = self.scores[touched[full], k - 1]
