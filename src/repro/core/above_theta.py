"""Above-θ solver: the retrieval phase of Algorithm 1.

Buckets are processed in the outer loop and queries in the inner step (the
cache-friendly order of the paper).  Queries are sorted by decreasing norm
and buckets by decreasing maximum length, so the buckets a query reaches
(local threshold ``θ_b ≤ 1``) are a prefix of the walk, and a bucket's
active queries are a prefix of the queries.  One call to
:meth:`~repro.core.bucket.BucketLayout.walk` computes θ/‖q‖ once and finds
both, together with each query's LENGTH prefix in the store; the walk then
stops at the last bucket any query reaches, and the bucket counters are
summed from those counts.

Every maximal run of consecutive live buckets that share a screen exponent
and send every active pair to LENGTH is one span: per query block, one f32
product against the span's contiguous rows of the store's screen buffer and
one compare (:func:`~repro.core.retrievers.length.screen_pairs`), cut to
each query's prefix and to the buckets' slices.  A bucket with any pair
routed to a coordinate retriever is screened on its own: its LENGTH pairs
by one block product per query block
(:func:`~repro.core.retrievers.length.score_length_pairs`), its coordinate
pairs pair by pair.

Every (bucket, query) unit is independent of every other: the local threshold
``theta_b`` is a pure function of (theta, query norm, bucket max length), and
candidate generation / verification read only the bucket and the query.  So
the bucket loop only screens: it appends each bucket's survivors to a
per-call queue as (query position, store row), in walk order — bucket, then
query position, then candidate.  The queue is verified by one grouped
:func:`~repro.core.kernels.gather_matvec` call with one group per query,
and hits, ids and scores come from one vectorised pass over it.  Each score
is a pure function of (row, query) under either kernel, so the results,
their order and their bits are those of verifying bucket by bucket.

Memory stays bounded: once the queue holds :data:`VERIFY_QUEUE_ROWS` rows
at a bucket or span boundary, its whole chunks of that many rows are
verified and dropped.  The queue therefore never holds more than
``VERIFY_QUEUE_ROWS`` rows plus one span's survivors (16 bytes a row),
and each verification call sees at most ``VERIFY_QUEUE_ROWS`` rows
(about 8 MiB of temporaries at 2¹⁶ rows).
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket, BucketLayout
from repro.core.kernels import gather_matvec
from repro.core.retrievers.length import MIN_BLOCK_PAIRS, score_length_pairs, screen_pairs
from repro.core.selector import RetrieverSelector
from repro.core.stats import RunStats
from repro.core.thresholds import local_thresholds
from repro.core.vector_store import PreparedQueries

#: Tolerance subtracted from θ during verification so results that equal the
#: threshold up to floating-point rounding are not dropped.
_VERIFY_SLACK = 1e-12

#: Survivor rows the verification queue verifies per kernel call; the queue
#: is flushed at the first bucket or span boundary where it holds this many.
VERIFY_QUEUE_ROWS = 1 << 16


def solve_above_theta(
    queries: PreparedQueries,
    layout: BucketLayout,
    theta: float,
    selector: RetrieverSelector,
    stats: RunStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Retrieve all (query, probe) pairs with inner product at least ``theta``.

    Returns three parallel arrays: original query ids, original probe ids and
    exact scores.  ``layout`` holds the buckets in walk order
    (:meth:`~repro.core.lemp.Lemp.layout`).
    """
    cutoff = theta - _VERIFY_SLACK
    queue = _VerifyQueue(queries, layout.store, cutoff)
    norms = queries.norms
    live, prefix = layout.walk(theta, norms)
    examined = int(live.sum())
    stats.buckets_examined += examined
    stats.buckets_pruned += queries.size * len(layout.buckets) - examined
    last = int(live[0]) if queries.size else 0
    # Bucket b's active queries are the first active[b]; later buckets are dead.
    active = np.searchsorted(-live, -np.arange(last), side="left")
    # A bucket's largest θ_b is its last active query's for θ > 0 (θ_b grows
    # as ‖q‖ falls), and its first query's otherwise.
    extreme = active - 1 if theta > 0.0 else np.zeros_like(active)
    largest = local_thresholds(theta, norms[extreme], layout.max_lengths[:last])
    to_length = [selector.length_only(layout.buckets[index], value)
                 for index, value in enumerate(largest.tolist())]
    ends = layout.positions(prefix) if last else prefix

    index = 0
    while index < last:
        if not to_length[index]:
            _screen_bucket(layout.buckets[index], queries, int(active[index]), theta, cutoff,
                           selector, stats, queue)
            index += 1
        else:
            stop = index + 1
            while (stop < last and to_length[stop]
                   and layout.exponents[stop] == layout.exponents[index]):
                stop += 1
            _screen_span(layout, index, stop, queries, int(active[index]), prefix, ends, cutoff,
                         stats, queue)
            index = stop
        if queue.size >= VERIFY_QUEUE_ROWS:
            queue.flush(final=False)

    queue.flush(final=True)
    return queue.results()


def _screen_span(layout: BucketLayout, first: int, stop: int, queries: PreparedQueries,
                 count: int, prefix: np.ndarray, ends: np.ndarray, cutoff: float,
                 stats: RunStats, queue: "_VerifyQueue") -> None:
    """Screen buckets ``[first, stop)``, whose pairs all take LENGTH, as one span.

    The span's queries are the first bucket's ``count`` active queries.  A
    query's rows end at its LENGTH prefix (``ends``, a buffer position),
    which never passes its last live bucket, so each query screens exactly
    the rows the per-bucket walk would.  Survivors are queued in walk order:
    bucket, then query position, then row.
    """
    span = layout.span(first, stop)
    low, high = layout.offsets[first], layout.offsets[stop]
    counts = np.minimum(np.maximum(prefix[:count], low), high) - low
    cutoffs = np.minimum(np.maximum(ends[:count] - span.start, 0), span.end - span.start)
    positions = np.arange(count)
    found = list(screen_pairs(span, queries, positions, queries.norms[:count], cutoffs, counts,
                              np.full(count, cutoff), stats))
    if not found:
        return
    pairs, rows = (np.concatenate(parts) for parts in zip(*found))
    if stop - first > 1:
        order = np.argsort(span.owners(rows), kind="stable")
        pairs, rows = pairs[order], rows[order]
    queue.push(pairs, span.start + rows)


def _screen_bucket(bucket: Bucket, queries: PreparedQueries, count: int, theta: float,
                   cutoff: float, selector: RetrieverSelector, stats: RunStats,
                   queue: "_VerifyQueue") -> None:
    """Screen one bucket's ``count`` active queries, split between LENGTH and coordinate pairs."""
    thresholds = local_thresholds(theta, queries.norms[:count], bucket.max_length)
    active = np.arange(count)
    if count < MIN_BLOCK_PAIRS:
        # A few queries: a block product would cost more than it saves.
        length_positions, pair_positions = active[:0], active
        routes = [selector.select(bucket, value) for value in thresholds.tolist()]
    else:
        blocked, routes = selector.split(bucket, thresholds)
        length_positions, pair_positions = active[blocked], active[~blocked]
    mark = len(queue.rows)

    if length_positions.size:
        norms = queries.norms[length_positions]
        for pairs, candidates in score_length_pairs(
                bucket, queries, length_positions, norms,
                np.full(norms.size, theta), np.full(norms.size, cutoff), stats):
            queue.push(length_positions[pairs], bucket.start + candidates)

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
        stats.inner_products += int(candidates.size)
        queue.push(np.full(candidates.size, position), bucket.start + candidates)

    if length_positions.size and pair_positions.size:
        # Put the bucket's pairs in query-position order, each query's
        # rows in candidate order — the order of a per-pair walk over
        # its active queries.
        queue.sort_since(mark)


class _VerifyQueue:
    """Survivors of a call awaiting exact verification, and the hits verified so far.

    Rows are queued as (query position, store row) in walk order and
    verified in chunks of :data:`VERIFY_QUEUE_ROWS`; a chunk's hits are
    kept in queue order, so the results come out in walk order.
    """

    def __init__(self, queries: PreparedQueries, store, cutoff: float) -> None:
        self.queries = queries
        self.store = store
        self.cutoff = cutoff
        self.positions: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []
        self.size = 0
        self.hits: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def push(self, positions: np.ndarray, rows: np.ndarray) -> None:
        self.positions.append(positions)
        self.rows.append(rows)
        self.size += rows.size

    def sort_since(self, mark: int) -> None:
        """Stably sort the pieces pushed after the first ``mark`` ones by query position."""
        if len(self.rows) - mark < 2:
            return
        positions = np.concatenate(self.positions[mark:])
        rows = np.concatenate(self.rows[mark:])
        order = np.argsort(positions, kind="stable")
        self.positions[mark:] = [positions[order]]
        self.rows[mark:] = [rows[order]]

    def flush(self, final: bool) -> None:
        """Verify every whole chunk of queued rows, and the partial one when ``final``."""
        if self.size == 0:
            return
        positions = np.concatenate(self.positions)
        rows = np.concatenate(self.rows)
        chunk = VERIFY_QUEUE_ROWS
        done = self.size if final else self.size - self.size % chunk
        for start in range(0, done, chunk):
            stop = min(start + chunk, done)
            self._verify(positions[start:stop], rows[start:stop])
        self.positions, self.rows = [positions[done:]], [rows[done:]]
        self.size -= done

    def _verify(self, positions: np.ndarray, rows: np.ndarray) -> None:
        """Score one chunk with one grouped kernel call (one group per query) and keep its hits."""
        # Grouping by query puts each query's rows from every bucket in one
        # group; the kernel keeps each row's rounding independent of the
        # other rows, so the bits are those of a per-pair call, across
        # tuning outcomes, incremental updates and index reloads.
        order = np.argsort(positions, kind="stable")
        scored = gather_matvec(self.store.directions, rows[order], self.queries.directions,
                               groups=positions[order])
        cosines = np.empty_like(scored)
        cosines[order] = scored
        scores = cosines * (self.queries.norms[positions] * self.store.lengths[rows])
        hits = scores >= self.cutoff
        if hits.any():
            self.hits.append((self.queries.ids[positions[hits]].astype(np.int64),
                              self.store.ids[rows[hits]].astype(np.int64), scores[hits]))

    def results(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.hits:
            return tuple(np.concatenate(parts) for parts in zip(*self.hits))
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
