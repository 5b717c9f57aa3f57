"""Greedy length-based bucketisation of the probe matrix (paper Section 3.2).

The probes are already sorted by decreasing length inside the
:class:`~repro.core.vector_store.VectorStore`.  The greedy strategy scans them
in order and starts a new bucket whenever

* the current length falls below ``length_ratio`` (default 90%) of the current
  bucket's maximum length, provided the bucket already holds at least
  ``min_bucket_size`` vectors (default 30, as in the paper), or
* the bucket reaches the maximum size allowed by the cache budget.

The cache budget models the paper's requirement that all per-bucket data
structures (original vectors, sorted lists, CP arrays) fit into the processor
cache.  A cache-oblivious variant (no size cap) is available for the ablation
experiment of Section 6.2 ("Caching effects").
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.vector_store import VectorStore
from repro.exceptions import InvalidParameterError

#: Default cache budget in KiB; roughly an L2 cache slice, small enough that
#: the KDD-like dataset is split into many buckets (as in the paper's ablation).
DEFAULT_CACHE_KIB = 256

#: Fraction by which an incrementally updated bucket may outgrow its size
#: bound before it is split, and the spare rows a store re-pack leaves after
#: each bucket (as a fraction of its rows).
SLACK_FRACTION = 0.25

#: A store re-pack runs a fresh greedy cut when the bucket count differs
#: from that of :func:`greedy_boundaries` over the current lengths by more
#: than this fraction of the latter.
DRIFT_LIMIT = 0.5


def max_bucket_size_for_cache(rank: int, cache_kib: float) -> int:
    """Largest bucket size whose working set fits in ``cache_kib`` KiB.

    Per probe vector the bucket retrievers touch: the direction (``rank``
    float64), the sorted-list values (``rank`` float64), the sorted-list local
    identifiers (``rank`` int64), the length (1 float64) and a CP-array slot
    (2 float64 + 1 int64).  The estimate is deliberately simple; it only needs
    to scale the bucket size with ``rank`` the way the paper's cache bound does.
    """
    bytes_per_vector = rank * 8 * 3 + 8 + 8 * 3
    budget = int(cache_kib * 1024)
    return max(1, budget // bytes_per_vector)


def size_bound(rank: int, max_bucket_size: int | None,
               cache_kib: float | None) -> int | None:
    """The effective bucket size cap: ``max_bucket_size``, else the cache's, else ``None``."""
    if max_bucket_size is None and cache_kib is not None:
        return max_bucket_size_for_cache(rank, cache_kib)
    return max_bucket_size


def slack_bound(bound: int | None) -> int | None:
    """Largest size an incrementally updated bucket may reach before a split."""
    return None if bound is None else int(bound * (1.0 + SLACK_FRACTION))


def bucketize(
    store: VectorStore,
    min_bucket_size: int = 30,
    max_bucket_size: int | None = None,
    length_ratio: float = 0.9,
    cache_kib: float | None = DEFAULT_CACHE_KIB,
) -> list[Bucket]:
    """Partition a length-sorted probe store into buckets of similar length.

    Parameters
    ----------
    store:
        Length-sorted probe vectors.
    min_bucket_size:
        Buckets are not split before reaching this many vectors (avoids the
        bucket-processing overhead of tiny buckets).
    max_bucket_size:
        Hard cap on the bucket size.  If ``None`` it is derived from
        ``cache_kib``; pass ``None`` for *both* to get the cache-oblivious
        variant with a single unbounded bucket split only by length ratio.
    length_ratio:
        A new bucket starts when the next length drops below
        ``length_ratio * l_b`` of the current bucket.
    cache_kib:
        Cache budget used to derive ``max_bucket_size`` when that is ``None``.

    Returns
    -------
    list[Bucket]
        Buckets ordered by decreasing maximum length, covering all probes.
    """
    if store.size == 0:
        raise InvalidParameterError("cannot bucketise an empty probe store")
    boundaries = greedy_boundaries(
        store.lengths,
        store.rank,
        min_bucket_size=min_bucket_size,
        max_bucket_size=max_bucket_size,
        length_ratio=length_ratio,
        cache_kib=cache_kib,
    )
    buckets = [
        Bucket(store, start, end, index)
        for index, (start, end) in enumerate(zip(boundaries[:-1], boundaries[1:]))
    ]
    return buckets


def greedy_boundaries(
    lengths: np.ndarray,
    rank: int,
    min_bucket_size: int = 30,
    max_bucket_size: int | None = None,
    length_ratio: float = 0.9,
    cache_kib: float | None = DEFAULT_CACHE_KIB,
) -> list[int]:
    """Greedy bucket boundaries over a decreasing length array.

    :func:`bucketize` runs it over the whole store.  LEMP's ``partial_fit``
    runs it over the rows of one changed bucket only, to split a bucket
    past its slack bound or length ratio; a store re-pack runs it over the
    whole store to measure the bucket-count drift, and uses its cut only
    past :data:`DRIFT_LIMIT`.  Returns ``[0, b1, ..., len(lengths)]``.
    """
    if not 0.0 < length_ratio <= 1.0:
        raise InvalidParameterError(f"length_ratio must be in (0, 1], got {length_ratio}")
    if min_bucket_size < 1:
        raise InvalidParameterError(f"min_bucket_size must be >= 1, got {min_bucket_size}")

    max_bucket_size = size_bound(rank, max_bucket_size, cache_kib)
    if max_bucket_size is not None and max_bucket_size < 1:
        raise InvalidParameterError(f"max_bucket_size must be >= 1, got {max_bucket_size}")
    if max_bucket_size is not None and max_bucket_size < min_bucket_size:
        # A tight cache budget wins over the minimum-size heuristic.
        min_bucket_size = max_bucket_size

    size = int(lengths.shape[0])
    boundaries = [0]
    if size == 0:
        return boundaries
    # Lengths are non-increasing, so the positions whose length drops below
    # ``length_ratio`` of a bucket's first length form a suffix; its start is
    # one binary search on the (ascending) negated lengths.  A bucket ends at
    # the first position that is past the minimum size and in that suffix,
    # or at the size cap, whichever comes first: one step per bucket.
    negated = -np.asarray(lengths, dtype=np.float64)
    start = 0
    while True:
        end = start + min_bucket_size
        if max_bucket_size is None or max_bucket_size > min_bucket_size:
            drop = int(np.searchsorted(negated, -(length_ratio * lengths[start]), side="right"))
            end = max(end, drop)
        if max_bucket_size is not None:
            end = min(end, start + max_bucket_size)
        if end >= size:
            break
        boundaries.append(end)
        start = end
    boundaries.append(size)
    return boundaries


def bucket_boundaries(buckets: list[Bucket]) -> np.ndarray:
    """Return the ``(num_buckets + 1,)`` array of position boundaries."""
    bounds = [bucket.start for bucket in buckets]
    bounds.append(buckets[-1].end)
    return np.asarray(bounds, dtype=np.intp)
