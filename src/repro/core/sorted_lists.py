"""Sorted-list (TA-style) index over the directions of one bucket.

For every coordinate ``f`` the index keeps the bucket's probe directions
ordered by their value ``p̄_f`` (paper Fig. 4c), so that the feasible region
``[L_f, U_f]`` of a query translates into a contiguous *scan range* found by
two binary searches.  The lists are stored as two ``(rank, size)`` arrays
(values and local identifiers), i.e. column-wise as recommended in Appendix A.
"""

from __future__ import annotations

import numpy as np


class SortedListIndex:
    """Per-coordinate sorted lists of ``(lid, value)`` pairs for one bucket.

    Values are stored in *ascending* order so scan ranges map directly onto
    ``numpy.searchsorted``; this is a mirror image of the paper's descending
    lists and does not change which entries fall inside a feasible region.
    """

    def __init__(self, directions: np.ndarray) -> None:
        directions = np.asarray(directions, dtype=np.float64)
        if directions.ndim != 2:
            raise ValueError("directions must be a 2-D array (size, rank)")
        self.size, self.rank = directions.shape
        order = np.argsort(directions, axis=0, kind="stable")
        self.lids = np.ascontiguousarray(order.T)
        self.values = np.ascontiguousarray(
            np.take_along_axis(directions, order, axis=0).T
        )

    def scan_range(self, coordinate: int, lower: float, upper: float) -> tuple[int, int]:
        """Return the half-open index range of entries with value in ``[lower, upper]``."""
        values = self.values[coordinate]
        start = int(np.searchsorted(values, lower, side="left"))
        end = int(np.searchsorted(values, upper, side="right"))
        return start, end

    def scan(self, coordinate: int, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(lids, values)`` of entries of list ``coordinate`` inside ``[lower, upper]``."""
        start, end = self.scan_range(coordinate, lower, upper)
        return self.lids[coordinate, start:end], self.values[coordinate, start:end]

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the index, used for cache budgeting."""
        return int(self.lids.nbytes + self.values.nbytes)
