"""Above-θ solver: the retrieval phase of Algorithm 1.

Buckets are processed in the outer loop and queries in the inner step (the
cache-friendly order of the paper).  A bucket that no query of the call can
reach is skipped outright.  Otherwise the local thresholds of *all* queries
are computed in one vectorised step, whole-bucket pruning is a single
comparison, and the surviving queries are split between LENGTH — whose
pairs are scored together by one block product per query block, see
:func:`~repro.core.retrievers.length.score_length_pairs` — and the
coordinate retrievers, which run pair by pair.

Every (bucket, query) unit is independent of every other: the local threshold
``theta_b`` is a pure function of (theta, query norm, bucket max length), and
candidate generation / verification read only the bucket and the query.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.kernels import gather_matvec
from repro.core.retrievers.length import MIN_BLOCK_PAIRS, score_length_pairs
from repro.core.selector import RetrieverSelector
from repro.core.stats import RunStats
from repro.core.thresholds import local_threshold, local_thresholds
from repro.core.vector_store import PreparedQueries

#: Tolerance subtracted from θ during verification so results that equal the
#: threshold up to floating-point rounding are not dropped.
_VERIFY_SLACK = 1e-12


def solve_above_theta(
    queries: PreparedQueries,
    buckets: list[Bucket],
    theta: float,
    selector: RetrieverSelector,
    stats: RunStats,
    screen=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Retrieve all (query, probe) pairs with inner product at least ``theta``.

    Returns three parallel arrays: original query ids, original probe ids and
    exact scores.

    ``screen`` is an optional :class:`~repro.core.screening.ScreenTier`: the
    generated candidates are pre-filtered with compressed dot products, and
    a candidate is dropped only when even its approximate score *plus* the
    tier's error bound cannot reach ``theta`` — so every true result
    survives, and the surviving candidates are verified by the exact kernel
    whose per-row bits are independent of the candidate set.  Screened
    results are therefore byte-identical to unscreened ones; only the
    ``inner_products`` / ``screen_*`` counters change.
    """
    out_query_ids: list[np.ndarray] = []
    out_probe_ids: list[np.ndarray] = []
    out_scores: list[np.ndarray] = []
    cutoff = theta - _VERIFY_SLACK
    max_norm = float(queries.norms.max()) if queries.size else 0.0

    for bucket in buckets:
        if local_threshold(theta, max_norm, bucket.max_length) > 1.0:
            # Dead bucket: no query of the call can reach it.  Local
            # thresholds only grow as the query norm shrinks, so this is the
            # per-query test below answered for all queries at once.
            stats.buckets_pruned += queries.size
            continue
        thresholds = local_thresholds(theta, queries.norms, bucket.max_length)
        active = np.nonzero(thresholds <= 1.0)[0]
        stats.buckets_pruned += queries.size - active.size
        stats.buckets_examined += active.size
        if active.size == 0:
            continue

        if active.size < MIN_BLOCK_PAIRS:
            # A few queries: a block product would cost more than it saves.
            length_positions, pair_positions = active[:0], active
            routes = [selector.select(bucket, value) for value in thresholds[active].tolist()]
        else:
            blocked, routes = selector.split(bucket, thresholds[active])
            length_positions, pair_positions = active[blocked], active[~blocked]
        found_positions, found_candidates, found_cosines = [], [], []

        if length_positions.size:
            norms = queries.norms[length_positions]
            for pairs, candidates, cosines in score_length_pairs(
                    bucket, queries.directions, length_positions, norms,
                    np.full(norms.size, theta), np.full(norms.size, cutoff), stats, screen,
                    gather_matvec):
                found_positions.append(length_positions[pairs])
                found_candidates.append(candidates)
                found_cosines.append(cosines)

        bucket_lengths = bucket.lengths
        for position, theta_b, (retriever, phi) in zip(
                pair_positions.tolist(), thresholds[pair_positions].tolist(), routes):
            query_direction = queries.directions[position]
            query_norm = float(queries.norms[position])
            candidates = retriever.retrieve(
                bucket, query_direction, query_norm, theta, theta_b, phi
            )
            stats.candidates += int(candidates.size)
            if candidates.size == 0:
                continue
            if screen is not None:
                upper = screen.upper_cosines(bucket.start, candidates, query_direction)
                stats.screen_products += int(candidates.size)
                # The exact score is cos * ||q|| * ||p||; both norms are
                # non-negative, so the screened upper bound on the cosine
                # scales to an upper bound on the score and the keep-test
                # below mirrors the exact one (including its slack).
                keep = upper * (query_norm * bucket_lengths[candidates]) >= cutoff
                stats.screen_dropped += int(candidates.size - np.count_nonzero(keep))
                candidates = candidates[keep]
                if candidates.size == 0:
                    continue
            # The kernel keeps each row's rounding independent of the
            # candidate-set size, so scores are bit-identical across different
            # tuning outcomes, incremental updates, and index reloads.
            found_cosines.append(gather_matvec(bucket.directions, candidates, query_direction))
            stats.inner_products += int(candidates.size)
            found_positions.append(np.full(candidates.size, position))
            found_candidates.append(candidates)

        if not found_positions:
            continue
        positions = np.concatenate(found_positions)
        candidates = np.concatenate(found_candidates)
        cosines = np.concatenate(found_cosines)
        if length_positions.size and pair_positions.size:
            # Emit in query-position order, each query's hits in candidate
            # order — the order of a per-pair walk over ``active``.
            order = np.argsort(positions, kind="stable")
            positions, candidates, cosines = positions[order], candidates[order], cosines[order]
        scores = cosines * (queries.norms[positions] * bucket_lengths[candidates])
        hits = scores >= cutoff
        if hits.any():
            out_query_ids.append(queries.ids[positions[hits]].astype(np.int64))
            out_probe_ids.append(bucket.ids[candidates[hits]].astype(np.int64))
            out_scores.append(scores[hits])

    if out_query_ids:
        return (
            np.concatenate(out_query_ids),
            np.concatenate(out_probe_ids),
            np.concatenate(out_scores),
        )
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
