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
rows that can still reach their pair's threshold.  Only those survivors are
re-scored by the exact kernel, by the solver: Row-Top-k with one grouped
call per query block, Above-θ in one grouped call for the whole call (see
:mod:`repro.core.above_theta`).  Above-θ goes further: a run of consecutive
buckets whose pairs all take LENGTH is one :class:`~repro.core.bucket.Span`,
screened by :func:`screen_pairs` as a single slice of the store.

The screen is conservative and runs in float32: the store keeps one f32
buffer aligned with its rows, in which each bucket lazily fills its slice
with its rows scaled by their lengths and a power of two
(:meth:`~repro.core.bucket.Bucket.fill_screen`), the query block is
rounded to f32, and each pair's threshold is lowered by the derived
rounding slack :func:`~repro.core.kernels.screen_slack` and rounded toward
−∞ (:func:`screen_thresholds`).  So the block costs one sgemm and one
compare, and every row the exact f64 test would keep survives it.

The block product spans the longest prefix in the block, so a threshold
test over the whole block is the last step that touches every score.
Survivors (~0.5 % of the block on the perfbench shapes) are pulled out by
flat index, and each pair's shorter prefix is cut from them alone; no
step after the test costs more than the survivors it returns.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bucket import Bucket, Span
from repro.core.kernels import screen_slack
from repro.core.retrievers.base import BucketRetriever
from repro.core.vector_store import PreparedQueries

#: Largest number of block-product scores held at once (1 MiB of f32);
#: the query block shrinks as a bucket's longest prefix grows.
BLOCK_ELEMENTS = 1 << 18

#: Fewest queries a bucket must hold before the solvers score its LENGTH
#: pairs with a block product; below it the fixed cost of the vectorised
#: step outweighs the per-pair calls it saves, and pairs go one by one.
MIN_BLOCK_PAIRS = 4

#: Range of ``w = ‖q‖·2ᴱ`` the f32 screen covers (:func:`screen_thresholds`,
#: :func:`~repro.core.kernels.screen_slack`); outside it a pair keeps every row.
SCREEN_EXPONENTS = (-1000, 1020)
SCREEN_SCALES = (2.0**SCREEN_EXPONENTS[0], 2.0**SCREEN_EXPONENTS[1])


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


def screen_thresholds(thresholds: np.ndarray, query_norms: np.ndarray | None,
                      exponent: int, rank: int) -> np.ndarray:
    """Per-pair f32 thresholds of the block screen on rows scaled by ``2^-exponent``.

    Pair ``j`` keeps a row whose f32 product entry reaches entry ``j``:
    ``thresholds[j] / w`` with ``w = ‖q_j‖·2^exponent`` (``‖q‖ = 1`` when
    ``query_norms`` is ``None``), clipped to ``[−2, 2]``, lowered by
    :func:`~repro.core.kernels.screen_slack` and rounded toward −∞.  A pair
    whose ``w`` lies outside ``[2⁻¹⁰⁰⁰, 2¹⁰²⁰]`` — a zero-norm query, a
    bucket of zero-length rows, or lengths whose f64 score could underflow
    past the slack or overflow — keeps every row (−∞).  ±∞ thresholds keep
    every row or none; no input yields NaN.
    """
    unscreened = None
    if query_norms is None:
        if not SCREEN_EXPONENTS[0] <= exponent <= SCREEN_EXPONENTS[1]:
            return np.full(thresholds.shape, -np.inf, dtype=np.float32)
        # Clipping θ to ±2w first gives clip(θ / w, −2, 2) without overflow.
        scale = math.ldexp(1.0, exponent)
        scaled = np.minimum(thresholds, 2.0 * scale)
        np.maximum(scaled, -2.0 * scale, out=scaled)
        scaled /= scale
    else:
        # A w or θ / w past the float range is ±inf, and w = 0 gives ±inf or
        # NaN: such pairs are unscreened below, the rest clipped.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scales = np.ldexp(query_norms, exponent)
            scaled = thresholds / scales
        np.minimum(scaled, 2.0, out=scaled)
        np.maximum(scaled, -2.0, out=scaled)
        unscreened = (scales < SCREEN_SCALES[0]) | (scales > SCREEN_SCALES[1])
    scaled -= screen_slack(rank)
    if unscreened is not None:
        scaled[unscreened] = -np.inf
    limits = scaled.astype(np.float32)
    np.nextafter(limits, -np.inf, out=limits, where=limits > scaled)
    return limits


def block_survivors(bucket: Bucket | Span, query_directions: np.ndarray, cutoffs: np.ndarray,
                    thresholds: np.ndarray,
                    query_norms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows of each LENGTH pair that can still reach the pair's threshold.

    Pair ``j`` scores ``query_directions[j]`` against the prefix
    ``[0, cutoffs[j])`` of a bucket or a :class:`~repro.core.bucket.Span`;
    its exact score is ``cos · (‖q_j‖ · ‖p‖)`` —
    ``query_norms=None`` means ``‖q‖ = 1`` (Row-Top-k) — and it needs
    ``score >= thresholds[j]``.  The screen is one f32 product of the query
    block (rounded to f32; pass it as ``float32`` to skip the copy) with
    the rows' slice of the store's screen buffer (``screen_slice()``),
    compared with the :func:`screen_thresholds` of the pairs, so every row
    the exact kernel would keep survives.

    The product covers the longest prefix, ``[0, max(cutoffs))``.  Survivors
    of the threshold test are read by flat index from the pair-major test
    mask, which yields them in pair-then-row order; only then are rows past
    their own pair's cutoff, and a span's gap rows, dropped, so these cuts
    cost the survivors, not the block.

    Returns ``(pairs, rows)`` as ``intp`` arrays, sorted by pair and then by
    row (``tests/test_block_screen.py`` pins this against a 2-D ``np.nonzero``
    of the cut mask).
    """
    limit = int(cutoffs.max())
    rows, exponent = bucket.screen_slice()
    queries = np.asarray(query_directions, dtype=np.float32)
    limits = screen_thresholds(thresholds, query_norms, exponent, queries.shape[1])
    keep = np.matmul(queries, rows[:limit].T) >= limits[:, None]
    pairs, rows = np.divmod(np.flatnonzero(keep), limit)
    if int(cutoffs.min()) < limit:
        inside = rows < cutoffs[pairs]
        pairs, rows = pairs[inside], rows[inside]
    if isinstance(bucket, Span):
        pairs, rows = bucket.live_rows(pairs, rows)
    return pairs, rows


def score_length_pairs(bucket: Bucket, queries: PreparedQueries, positions: np.ndarray,
                       query_norms, thetas: np.ndarray, thresholds: np.ndarray, stats):
    """Generate and screen a bucket's LENGTH pairs, one query block at a time.

    Pair ``j`` is the query ``positions[j]`` of ``queries`` (norm
    ``query_norms[j]``, or 1 when ``None``) with LENGTH threshold
    ``thetas[j]`` and keep-threshold ``thresholds[j]`` on the exact score.
    :meth:`LengthRetriever.cutoffs` gives each pair's prefix, and
    :func:`screen_pairs` screens them.
    """
    cutoffs = LengthRetriever.cutoffs(bucket, thetas, 1.0 if query_norms is None else query_norms)
    yield from screen_pairs(bucket, queries, positions, query_norms, cutoffs, cutoffs,
                            thresholds, stats)


def screen_pairs(bucket: Bucket | Span, queries: PreparedQueries, positions: np.ndarray,
                 query_norms, cutoffs: np.ndarray, counts: np.ndarray, thresholds: np.ndarray,
                 stats):
    """Screen LENGTH pairs against the prefixes of a bucket or a span, one query block at a time.

    Pair ``j`` is the query ``positions[j]`` of ``queries`` (norm
    ``query_norms[j]``, or 1 when ``None``) against rows ``[0, cutoffs[j])``
    of ``bucket``, which hold ``counts[j]`` live rows (a span's gap rows
    excluded), with keep-threshold ``thresholds[j]`` on the exact score.
    Pairs go through :func:`block_survivors` in blocks whose product holds
    at most :data:`BLOCK_ELEMENTS` scores, with the queries' f32
    directions.  Yields ``(pairs, candidates)`` per block for its
    survivors, sorted by pair and then by candidate; ``pairs`` index
    ``positions`` and ``candidates`` index the rows of ``bucket``.  The
    caller verifies them with the exact kernel,
    :func:`~repro.core.kernels.gather_matvec`.

    Counters follow the per-pair route: every live prefix row is a generated
    candidate and an inner product (the block product computes it).
    """
    total = int(counts.sum())
    stats.candidates += total
    stats.inner_products += total
    if total == 0:
        return
    directions = queries.directions32
    width = max(1, BLOCK_ELEMENTS // int(cutoffs.max()))
    for start in range(0, cutoffs.size, width):
        block = slice(start, start + width)
        if not counts[block].any():
            continue
        members = positions[block]
        pairs, candidates = block_survivors(
            bucket, directions[members], cutoffs[block], thresholds[block],
            None if query_norms is None else query_norms[block])
        if pairs.size:
            yield pairs + start, candidates
