"""COORD: coordinate-based pruning with the CP array (paper Section 4.2, Alg. 2).

For the ``phi`` focus coordinates with largest ``|q̄_f|``, COORD computes the
feasible region ``[L_f, U_f]``, finds the corresponding scan range of the
bucket's sorted lists with binary search, counts per-probe occurrences in the
CP array, and keeps the probes that appeared in *every* scan range.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.cp_array import count_scan_hits, scan_prefixes
from repro.core.retrievers.base import BucketRetriever


def select_focus_coordinates(query_direction: np.ndarray, phi: int) -> np.ndarray:
    """The ``phi`` coordinates with the largest absolute query value, largest first.

    Ties keep coordinate order, so the focus set of ``phi`` is a prefix of
    the focus set of every larger ``phi``.
    """
    phi = max(1, min(phi, query_direction.shape[0]))
    return np.argsort(-np.abs(query_direction), kind="stable")[:phi]


class CoordRetriever(BucketRetriever):
    """Candidate generation by intersecting focus-coordinate scan ranges.

    With a compressed generation tier (``gen``, LEMP's ``gen_dtype`` knob)
    the scan ranges run over the tier's quantized sorted lists, widened by
    the per-element error bound: a probe inside every exact feasible region
    is inside every widened compressed one, so the intersection can only
    over-produce, never drop a true candidate.
    """

    name = "COORD"

    #: Whether the scan accumulates the extended CP array (INCR) too.
    partial_products = False

    def __init__(self, gen=None) -> None:
        #: Optional :class:`~repro.core.screening.ScreenTier` the sorted
        #: lists are built over instead of the exact f64 directions.
        self.gen = gen

    def _index(self, bucket: Bucket):
        if self.gen is not None:
            return bucket.gen_sorted_lists(self.gen)
        return bucket.sorted_lists()

    def unpruned(self, query_norm: float, theta: float, theta_b: float) -> bool:
        """Whether :meth:`retrieve` returns every row without scanning."""
        # The feasible region is the whole value range: no pruning possible.
        return not np.isfinite(theta_b) or theta_b <= 0.0

    def keep(self, bucket, index, query_direction, focus, query_norm, theta,
             counts, partial_dot, partial_sqnorm) -> np.ndarray:
        """Candidate mask of the CP array scanned over ``focus``."""
        return counts == focus.size

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 3,
    ) -> np.ndarray:
        if self.unpruned(query_norm, theta, theta_b):
            return self.all_candidates(bucket)
        focus = select_focus_coordinates(query_direction, phi)
        index = self._index(bucket)
        counts = count_scan_hits(index, query_direction, focus, theta_b, bucket.size)
        return np.nonzero(counts == focus.size)[0].astype(np.intp)

    def focus_counts(self, bucket: Bucket, query_direction: np.ndarray, query_norm: float,
                     theta: float, theta_b: float, phis) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-list entries scanned and candidates kept by :meth:`retrieve` at each φ.

        Returns two integer arrays aligned with ``phis``.  The focus set of
        a smaller φ is a prefix of the largest one's, so a single walk over
        the largest focus set's scan ranges
        (:func:`~repro.core.cp_array.scan_prefixes`) reads off every φ's
        CP array on the way.  The kept counts equal ``retrieve(...).size``.
        """
        phis = [max(1, min(int(phi), query_direction.shape[0])) for phi in phis]
        scanned = np.zeros(len(phis), dtype=np.int64)
        kept = np.full(len(phis), bucket.size, dtype=np.int64)
        if self.unpruned(query_norm, theta, theta_b):
            return scanned, kept
        focus = select_focus_coordinates(query_direction, max(phis))
        index = self._index(bucket)
        prefixes = scan_prefixes(index, query_direction, focus, theta_b, bucket.size,
                                 partial=self.partial_products)
        for depth, (entries, counts, partial_dot, partial_sqnorm) in enumerate(prefixes, 1):
            at = [slot for slot, phi in enumerate(phis) if phi == depth]
            if at:
                scanned[at] = entries
                kept[at] = np.count_nonzero(self.keep(
                    bucket, index, query_direction, focus[:depth], query_norm, theta,
                    counts, partial_dot, partial_sqnorm))
        return scanned, kept
