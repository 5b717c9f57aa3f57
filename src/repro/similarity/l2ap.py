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

Compressed mode (LEMP's ``gen_dtype``)
--------------------------------------

Passing ``element_bounds`` builds the index over a compressed tier's values
(f32/f16, or the f32 expansion of int8 codes) with every bound widened so the
filter still never drops a true candidate:

* the per-row index-reduction threshold shrinks to
  ``base − 2·sqrt(r)·ε_row`` — one ``sqrt(r)·ε`` covers the compressed prefix
  norm under-reading the exact one, one covers the coordinates the
  compression rounded to exact zero (which never enter any list but carry at
  most ``ε`` of exact value each, ``‖q̄‖₁·ε ≤ sqrt(r)·ε`` of cosine total);
* the stored un-indexed prefix norm grows by ``sqrt(r)·ε_row`` (capped at 1,
  the norm of a unit vector);
* the query-time filter adds ``‖q̄‖₁·ε_row`` for the compression error of the
  accumulated (indexed) and zero-rounded coordinates, and tests *every* row —
  a row none of the scanned lists touched can still hold up to ``‖q̄‖₁·ε`` of
  exact cosine, so the ``seen`` requirement of the exact filter would not be
  conservative here.

Inverted-list values stay in the storage dtype with ``int32`` identifiers,
so a compressed index is also materially smaller than the f64 one.
"""

from __future__ import annotations

import numpy as np


class L2APIndex:
    """Inverted index with prefix-norm information over a set of unit vectors.

    Parameters
    ----------
    directions:
        ``(size, rank)`` array of unit row vectors (a bucket's directions),
        or — in compressed mode — a tier's storage-dtype values for them.
    base_threshold:
        Smallest cosine-similarity threshold any query will use against this
        index.  Coordinates of a vector are left un-indexed as long as the
        vector's prefix norm stays strictly below this value; pass ``0.0`` to
        index every non-zero coordinate (always correct, less index pruning).
    element_bounds:
        ``None`` for an exact index.  Otherwise the per-row bound on
        ``|exact value − stored value|`` per coordinate, switching the index
        into compressed mode (see the module docstring).
    """

    def __init__(self, directions: np.ndarray, base_threshold: float = 0.0,
                 element_bounds: np.ndarray | None = None) -> None:
        directions = np.asarray(directions)
        if directions.ndim != 2:
            raise ValueError("directions must be 2-D (size, rank)")
        self.size, self.rank = directions.shape
        self.base_threshold = float(np.clip(base_threshold, 0.0, 1.0))
        if element_bounds is None:
            self.element_bounds: np.ndarray | None = None
        else:
            self.element_bounds = np.ascontiguousarray(
                np.asarray(element_bounds, dtype=np.float64)
            )
            if self.element_bounds.shape != (self.size,):
                raise ValueError(
                    f"element_bounds must have one entry per row, got shape "
                    f"{self.element_bounds.shape} for {self.size} rows"
                )

        values = np.asarray(directions, dtype=np.float64)
        squares = values * values
        prefix_sq = np.cumsum(squares, axis=1)
        prefix_norms = np.sqrt(np.clip(prefix_sq, 0.0, None))
        root = float(np.sqrt(max(self.rank, 1)))
        if self.element_bounds is None:
            base_rows = np.full(self.size, self.base_threshold)
            prefix_pad = 0.0
        else:
            # Widened per-row reduction threshold and prefix norm (see the
            # module docstring for the derivation).
            base_rows = np.clip(
                self.base_threshold - 2.0 * root * self.element_bounds, 0.0, None
            )
            prefix_pad = root * self.element_bounds
        # Coordinate f of vector x is indexed iff the prefix norm *including* f
        # has reached the (per-row) base threshold; everything before stays
        # un-indexed.
        indexed_mask = prefix_norms >= base_rows[:, None]
        indexed_mask &= squares > 0.0

        # The norm of the un-indexed prefix of each vector (used in the filter).
        first_indexed = np.argmax(indexed_mask, axis=1)
        has_indexed = indexed_mask.any(axis=1)
        prefix_before = np.zeros(self.size)
        rows = np.nonzero(has_indexed & (first_indexed > 0))[0]
        prefix_before[rows] = prefix_norms[rows, first_indexed[rows] - 1]
        prefix_before[~has_indexed] = 1.0
        if self.element_bounds is not None:
            prefix_before = np.minimum(prefix_before + prefix_pad, 1.0)
        self.unindexed_prefix_norm = prefix_before

        lids_dtype = np.intp if self.element_bounds is None else np.int32
        self._list_lids: list[np.ndarray] = []
        self._list_values: list[np.ndarray] = []
        for coordinate in range(self.rank):
            rows = np.nonzero(indexed_mask[:, coordinate])[0]
            self._list_lids.append(rows.astype(lids_dtype))
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
        if self.element_bounds is not None:
            total += int(self.element_bounds.nbytes)
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
            # Upcast before the multiply: compressed lists store f16/f32
            # values and the accumulation must run in f64.
            values = np.asarray(self._list_values[coordinate], dtype=np.float64)
            accumulator[lids] += query_direction[coordinate] * values
            seen[lids] = True

        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim == 0:
            thresholds = np.full(self.size, float(thresholds))
        # Cauchy–Schwarz on the un-indexed prefix: cos <= accumulated + ‖x_prefix‖.
        if self.element_bounds is not None:
            # Compressed mode: add the compression slack and test every row —
            # even rows no scanned list touched can carry ‖q̄‖₁·ε of cosine.
            query_l1 = float(np.sum(np.abs(query_direction)))
            upper_bound = (
                accumulator + query_l1 * self.element_bounds + self.unindexed_prefix_norm
            )
            keep = upper_bound >= thresholds - 1e-12
        else:
            upper_bound = accumulator + self.unindexed_prefix_norm
            keep = seen & (upper_bound >= thresholds - 1e-12)
        lids = np.nonzero(keep)[0]
        return lids, accumulator[lids]
