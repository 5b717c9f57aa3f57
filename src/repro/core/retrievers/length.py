"""LENGTH: pruning on vector lengths only (paper Section 4.1).

The bucket's probes are sorted by decreasing length, so the probes that can
possibly reach ``qᵀp >= θ`` — those with ``‖p‖ >= θ / ‖q‖`` — form a prefix of
the bucket.  LENGTH finds the prefix boundary with one binary search and
returns the prefix as the candidate set.

Inside a bucket LENGTH "degenerates to Naive", so the solvers do not call
:meth:`LengthRetriever.retrieve` pair by pair.  :func:`score_length_pairs`
handles all of a bucket's LENGTH pairs at once: :meth:`LengthRetriever.cutoffs`
finds every prefix with one ``searchsorted``, :func:`block_survivors` scores
them with one BLAS block product per bounded query block and keeps only the
rows that can still reach their pair's threshold, and only those survivors
are re-scored by the exact kernel — one grouped call per query block.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.kernels import screen_bound
from repro.core.retrievers.base import BucketRetriever

#: Largest number of block-product scores held at once (512 KiB of f64);
#: the query block shrinks as a bucket's longest prefix grows.
BLOCK_ELEMENTS = 1 << 16

#: Fewest queries a bucket must hold before the solvers score its LENGTH
#: pairs with a block product; below it the fixed cost of the vectorised
#: step outweighs the per-pair calls it saves, and pairs go one by one.
MIN_BLOCK_PAIRS = 4


class LengthRetriever(BucketRetriever):
    """Length-based prefix pruning; degenerates to Naive inside a bucket."""

    name = "LENGTH"

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 0,
    ) -> np.ndarray:
        if theta <= 0.0:
            # Every probe satisfies a non-positive threshold a priori.
            return self.all_candidates(bucket)
        if query_norm <= 0.0:
            return np.empty(0, dtype=np.intp)
        min_length = theta / query_norm
        # Lengths are sorted in decreasing order; count how many are >= min_length.
        cutoff = int(np.searchsorted(-bucket.lengths, -min_length, side="right"))
        return np.arange(cutoff, dtype=np.intp)

    @staticmethod
    def cutoffs(bucket: Bucket, thetas, query_norms) -> np.ndarray:
        """:meth:`retrieve`'s prefix length for each (θ, ‖q‖) pair (they broadcast)."""
        thetas = np.asarray(thetas, dtype=np.float64)
        query_norms = np.asarray(query_norms, dtype=np.float64)
        positive = thetas > 0.0
        searched = positive & (query_norms > 0.0)
        min_lengths = np.divide(thetas, query_norms, out=np.zeros(searched.shape), where=searched)
        cut = np.searchsorted(-bucket.lengths, -min_lengths, side="right")
        return np.where(searched, cut, np.where(positive, 0, bucket.size))


def block_survivors(bucket: Bucket, query_directions: np.ndarray, cutoffs: np.ndarray,
                    thresholds: np.ndarray, query_norms: np.ndarray | None = None,
                    screen=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows of each LENGTH pair that can still reach the pair's threshold.

    Pair ``j`` scores ``query_directions[j]`` against the bucket prefix
    ``[0, cutoffs[j])``; its exact score is ``cos · (‖q_j‖ · ‖p‖)`` —
    ``query_norms=None`` means ``‖q‖ = 1`` (Row-Top-k) — and it needs
    ``score >= thresholds[j]``.  The cosines come from one matrix product,
    with an upper bound added before rescaling: the kernel's
    :func:`~repro.core.kernels.screen_bound`, or the compressed ``screen``
    tier's per-row bound.  A row is dropped only if even that upper bound
    misses the threshold, so every row the exact kernel would keep survives.

    Returns ``(pairs, rows)``, sorted by pair and then by row.
    """
    limit = int(cutoffs.max())
    if screen is None:
        upper = bucket.directions[:limit] @ query_directions.T
        upper += screen_bound(query_directions.shape[1])
    else:
        upper = screen.upper_cosine_block(bucket.start, limit, query_directions)
    lengths = bucket.lengths[:limit]
    if query_norms is None:
        upper *= lengths[:, None]
    else:
        upper *= np.multiply.outer(lengths, query_norms)
    keep = upper >= thresholds
    if int(cutoffs.min()) < limit:
        keep &= np.arange(limit)[:, None] < cutoffs
    return np.nonzero(keep.T)


def score_length_pairs(bucket: Bucket, directions: np.ndarray, positions: np.ndarray,
                       query_norms, thetas: np.ndarray, thresholds: np.ndarray, stats,
                       screen, verify):
    """Generate, screen and verify a bucket's LENGTH pairs, one query block at a time.

    Pair ``j`` is the query direction ``directions[positions[j]]`` (norm
    ``query_norms[j]``, or 1 when ``None``) with LENGTH threshold
    ``thetas[j]`` and keep-threshold ``thresholds[j]`` on the exact score.
    Pairs go through :func:`block_survivors` in blocks whose product holds
    at most :data:`BLOCK_ELEMENTS` scores.  Yields ``(pairs, candidates,
    cosines)`` per block for its survivors, sorted by pair and then by
    candidate, with cosines from ``verify`` — the solver's exact kernel,
    :func:`~repro.core.kernels.gather_matvec` — called once per block in its
    grouped form: each survivor is scored against its pair's query row and
    keeps the bits a per-pair call on that row would give.

    Counters follow the per-pair route: every prefix row is a generated
    candidate.  Without a ``screen`` tier each one is also an inner product
    (the block product computes it).  With a tier, pairs with a finite
    keep-threshold count their candidates as screened and only survivors as
    inner products, like a per-pair compressed screen.
    """
    cutoffs = LengthRetriever.cutoffs(bucket, thetas, 1.0 if query_norms is None else query_norms)
    total = int(cutoffs.sum())
    stats.candidates += total
    if screen is None:
        stats.inner_products += total
    if total == 0:
        return
    width = max(1, BLOCK_ELEMENTS // int(cutoffs.max()))
    for start in range(0, cutoffs.size, width):
        block = slice(start, start + width)
        if not cutoffs[block].any():
            continue
        queries = directions[positions[block]]
        pairs, candidates = block_survivors(
            bucket, queries, cutoffs[block], thresholds[block],
            None if query_norms is None else query_norms[block], screen)
        if screen is not None:
            screened = np.isfinite(thresholds[block])
            screened_total = int(cutoffs[block][screened].sum())
            stats.screen_products += screened_total
            stats.screen_dropped += screened_total - int(np.count_nonzero(screened[pairs]))
            stats.inner_products += int(pairs.size)
        if pairs.size == 0:
            continue
        cosines = verify(bucket.directions, candidates, queries, groups=pairs)
        yield pairs + start, candidates, cosines
