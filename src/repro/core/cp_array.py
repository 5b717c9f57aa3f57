"""Candidate-pruning (CP) arrays for COORD and INCR (paper Sections 4.2–4.3).

The CP array counts, for every probe in a bucket, in how many focus-coordinate
scan ranges it appeared.  The *extended* CP array additionally accumulates the
partial inner product ``q̄_Fᵀ p̄_F`` and the partial squared norm ``‖p̄_F‖²``
over the coordinates in which the probe was seen, which INCR combines with the
Cauchy–Schwarz bound on the unseen part.

Both aggregations are implemented with ``numpy.bincount`` over the scan-range
slices, which is the vectorised equivalent of the per-entry counter updates in
Algorithm 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.sorted_lists import SortedListIndex
from repro.core.thresholds import feasible_region

__all__ = ["count_scan_hits", "accumulate_partial_products", "scan_prefixes", "scan_ranges"]


def scan_ranges(
    index: SortedListIndex,
    query_direction: np.ndarray,
    focus: np.ndarray,
    theta_b: float,
) -> list[tuple[int, int, int]]:
    """Compute the scan range of every focus coordinate.

    Returns a list of ``(coordinate, start, end)`` triples; entries of list
    ``coordinate`` in positions ``[start, end)`` lie inside the feasible region
    of that coordinate.  On a compressed index the regions are widened (and
    rounded outward to the storage dtype) in one vectorised shot before the
    binary searches — equivalent to per-coordinate :meth:`SortedListIndex
    .scan_range` calls, minus their per-call widening overhead.
    """
    lowers, uppers = feasible_region(query_direction[focus], theta_b)
    lowers, uppers = index.widen_batch(lowers, uppers)
    values = index.values
    searchsorted = np.searchsorted
    ranges = []
    for position, coordinate in enumerate(np.asarray(focus, dtype=np.intp)):
        row = values[int(coordinate)]
        start = int(searchsorted(row, lowers[position], side="left"))
        end = int(searchsorted(row, uppers[position], side="right"))
        ranges.append((int(coordinate), start, end))
    return ranges


def scan_prefixes(
    index: SortedListIndex,
    query_direction: np.ndarray,
    focus: np.ndarray,
    theta_b: float,
    size: int,
    partial: bool = False,
):
    """Walk the focus scan ranges in order, yielding the CP array after each.

    Yields ``(scanned, counts, partial_dot, partial_sqnorm)`` once per focus
    coordinate: the sorted-list entries scanned so far and the CP array
    over the focus prefix scanned so far (the arrays are updated in place,
    so copy what must outlive the next step).  The extended arrays are
    accumulated only with ``partial=True`` and are ``None`` otherwise.
    Since a focus set of size ``φ`` is a prefix of the one of size
    ``φ_max``, one walk gives the CP array of every smaller ``φ`` on the way.
    """
    counts = np.zeros(size, dtype=np.int64)
    partial_dot = np.zeros(size, dtype=np.float64) if partial else None
    partial_sqnorm = np.zeros(size, dtype=np.float64) if partial else None
    scanned = 0
    for coordinate, start, end in scan_ranges(index, query_direction, focus, theta_b):
        # ``bincount`` wants intp bins and f64 weights; converting once here
        # (a no-op view on an exact index) instead of letting each of the
        # three calls convert internally keeps the compressed (gen_dtype)
        # index's int32/f32 storage off the hot path.  The ``dtype=np.float64``
        # on the products upcasts the stored values inside the ufunc loop —
        # the partial products must accumulate in f64 for the widened INCR
        # bound derivation to hold.
        lids = np.asarray(index.lids[coordinate, start:end], dtype=np.intp)
        counts += np.bincount(lids, minlength=size)
        if partial:
            values = index.values[coordinate, start:end]
            partial_dot += np.bincount(
                lids,
                weights=np.multiply(values, query_direction[coordinate], dtype=np.float64),
                minlength=size,
            )
            partial_sqnorm += np.bincount(
                lids, weights=np.multiply(values, values, dtype=np.float64), minlength=size
            )
        scanned += end - start
        yield scanned, counts, partial_dot, partial_sqnorm


def count_scan_hits(
    index: SortedListIndex,
    query_direction: np.ndarray,
    focus: np.ndarray,
    theta_b: float,
    size: int,
) -> np.ndarray:
    """CP array of COORD: per-probe count of focus scan ranges it appears in."""
    counts = np.zeros(size, dtype=np.int64)
    for _, counts, _, _ in scan_prefixes(index, query_direction, focus, theta_b, size):
        pass
    return counts


def accumulate_partial_products(
    index: SortedListIndex,
    query_direction: np.ndarray,
    focus: np.ndarray,
    theta_b: float,
    size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended CP array of INCR.

    Returns
    -------
    (counts, partial_dot, partial_sqnorm):
        ``counts[lid]`` — number of focus scan ranges probe ``lid`` appeared in;
        ``partial_dot[lid]`` — accumulated ``Σ q̄_f p̄_f`` over those coordinates;
        ``partial_sqnorm[lid]`` — accumulated ``Σ p̄_f²`` over those coordinates.
    """
    counts = np.zeros(size, dtype=np.int64)
    partial_dot, partial_sqnorm = np.zeros(size), np.zeros(size)
    for _, counts, partial_dot, partial_sqnorm in scan_prefixes(
            index, query_direction, focus, theta_b, size, partial=True):
        pass
    return counts, partial_dot, partial_sqnorm
