"""L2AP-style all-pairs similarity index with prefix L2-norm bounds.

Reference [18] of the paper (Anastasiu & Karypis, ICDE 2014) indexes, for each
vector, only the *suffix* of its coordinates: the leading coordinates whose
prefix norm stays below a base similarity threshold ``t`` are left out of the
inverted lists, because any pair that overlaps only on that prefix cannot reach
similarity ``t``.  Query processing scans the inverted lists of the query's
non-zero coordinates, accumulates partial dot products, and filters candidates
with the Cauchy–Schwarz bound on the un-indexed prefix before exact
verification.

This implementation keeps the same structure (fixed coordinate order, prefix
norms stored per indexed entry, accumulate-then-filter) at bucket scale; the
elaborate battery of additional bounds of the original system is represented
by the single prefix-norm filter, which is the one that interacts with LEMP's
per-probe thresholds.
"""

from __future__ import annotations

import numpy as np


class L2APIndex:
    """Inverted index with prefix-norm information over a set of unit vectors.

    Parameters
    ----------
    directions:
        ``(size, rank)`` array of unit row vectors (a bucket's directions).
    base_threshold:
        Smallest cosine-similarity threshold any query will use against this
        index.  Coordinates of a vector are left un-indexed as long as the
        vector's prefix norm stays strictly below this value; pass ``0.0`` to
        index every non-zero coordinate (always correct, less index pruning).
    """

    def __init__(self, directions: np.ndarray, base_threshold: float = 0.0) -> None:
        directions = np.asarray(directions, dtype=np.float64)
        if directions.ndim != 2:
            raise ValueError("directions must be 2-D (size, rank)")
        self.size, self.rank = directions.shape
        self.base_threshold = float(np.clip(base_threshold, 0.0, 1.0))

        squares = directions * directions
        prefix_sq = np.cumsum(squares, axis=1)
        prefix_norms = np.sqrt(np.clip(prefix_sq, 0.0, None))
        # Coordinate f of vector x is indexed iff the prefix norm *including* f
        # has reached the base threshold; everything before stays un-indexed.
        indexed_mask = prefix_norms >= self.base_threshold
        indexed_mask &= squares > 0.0

        # The norm of the un-indexed prefix of each vector (used in the filter).
        first_indexed = np.argmax(indexed_mask, axis=1)
        has_indexed = indexed_mask.any(axis=1)
        prefix_before = np.zeros(self.size)
        rows = np.nonzero(has_indexed & (first_indexed > 0))[0]
        prefix_before[rows] = prefix_norms[rows, first_indexed[rows] - 1]
        prefix_before[~has_indexed] = 1.0
        self.unindexed_prefix_norm = prefix_before

        self._list_lids: list[np.ndarray] = []
        self._list_values: list[np.ndarray] = []
        for coordinate in range(self.rank):
            rows = np.nonzero(indexed_mask[:, coordinate])[0]
            self._list_lids.append(rows.astype(np.intp))
            self._list_values.append(directions[rows, coordinate])

    def indexed_entries(self) -> int:
        """Total number of (vector, coordinate) entries stored in the inverted lists."""
        return int(sum(lids.size for lids in self._list_lids))

    def memory_bytes(self) -> int:
        """Resident footprint of the inverted lists and per-row filter arrays."""
        total = sum(
            int(lids.nbytes + values.nbytes)
            for lids, values in zip(self._list_lids, self._list_values)
        )
        total += int(self.unindexed_prefix_norm.nbytes)
        return int(total)

    def candidates(
        self,
        query_direction: np.ndarray,
        thresholds,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate and filter candidates for one unit query.

        Parameters
        ----------
        query_direction:
            Unit query vector.
        thresholds:
            Either a scalar cosine threshold or a ``(size,)`` array of
            per-probe thresholds (LEMP's ``θ_p(q)``).

        Returns
        -------
        (lids, accumulated):
            Candidate local identifiers surviving the prefix-norm filter and
            the partial (indexed-suffix) dot products accumulated for them.
        """
        query_direction = np.asarray(query_direction, dtype=np.float64)
        accumulator = np.zeros(self.size)
        seen = np.zeros(self.size, dtype=bool)
        for coordinate in np.nonzero(query_direction)[0]:
            lids = self._list_lids[coordinate]
            if lids.size == 0:
                continue
            accumulator[lids] += query_direction[coordinate] * self._list_values[coordinate]
            seen[lids] = True

        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim == 0:
            thresholds = np.full(self.size, float(thresholds))
        # Cauchy–Schwarz on the un-indexed prefix: cos <= accumulated + ‖x_prefix‖.
        upper_bound = accumulator + self.unindexed_prefix_norm
        keep = seen & (upper_bound >= thresholds - 1e-12)
        lids = np.nonzero(keep)[0]
        return lids, accumulator[lids]
