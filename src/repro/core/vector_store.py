"""Length/direction decomposition of a set of vectors (paper Section 3.1).

LEMP represents every probe (and query) vector ``v`` by its Euclidean length
``\\|v\\|`` and its direction ``v / \\|v\\|``.  The :class:`VectorStore` holds a
whole matrix of vectors in this decomposed form, sorted by decreasing length,
together with the mapping back to the original row identifiers (the paper's
``id`` column in Fig. 4a).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.screening import ScreenTier, validate_screen_dtype
from repro.exceptions import DimensionMismatchError
from repro.utils.validation import as_float_matrix


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, elementwise on ``uint64`` (a bijection)."""
    values = values ^ (values >> np.uint64(30))
    values *= np.uint64(0xBF58476D1CE4E5B9)
    values ^= values >> np.uint64(27)
    values *= np.uint64(0x94D049BB133111EB)
    values ^= values >> np.uint64(31)
    return values


@functools.lru_cache(maxsize=None)
def _row_hash_weights(rank: int) -> np.ndarray:
    """``(rank, 2)`` odd multipliers of the two row-hash lanes (fixed, seedless)."""
    counters = np.arange(1, 2 * rank + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    weights = _splitmix64(counters) | np.uint64(1)
    weights.flags.writeable = False
    return weights.reshape(rank, 2)


def row_hashes(directions: np.ndarray) -> np.ndarray:
    """128-bit content hash of each row's direction bits, as ``(rows, 2) uint64``.

    Each lane is a sum of the row's float64 bit patterns times fixed odd
    multipliers, modulo 2**64 (one integer matrix product), then mixed by a
    bijective finaliser.  A change to a single entry moves its bit pattern
    by a non-zero amount, which an odd multiplier keeps non-zero modulo
    2**64, so it always changes the hash.  The hash is a pure per-row
    function of the bytes: patching rows in or out gives the same array as
    hashing the updated matrix.
    """
    bits = np.ascontiguousarray(directions, dtype=np.float64).view(np.uint64)
    return _splitmix64(bits @ _row_hash_weights(bits.shape[1]))


class VectorStore:
    """Vectors stored as (length, direction) pairs sorted by decreasing length.

    Parameters
    ----------
    vectors:
        Array of shape ``(num_vectors, rank)``; rows are vectors.  This is the
        transpose of the paper's column-major factor matrices.

    Attributes
    ----------
    lengths:
        ``(num_vectors,)`` Euclidean norms, sorted in decreasing order.
    directions:
        ``(num_vectors, rank)`` unit vectors in the same order.  Zero vectors
        keep an all-zero direction.
    ids:
        ``(num_vectors,)`` original row index of each stored vector.
    """

    def __init__(self, vectors) -> None:
        matrix = as_float_matrix(vectors, "vectors")
        lengths = np.linalg.norm(matrix, axis=1)
        # Stable sort keeps ties in original order, which makes the layout
        # deterministic and easy to test.
        order = np.argsort(-lengths, kind="stable")
        self.ids = order
        self.lengths = np.ascontiguousarray(lengths[order])
        sorted_vectors = matrix[order]
        safe_lengths = np.where(self.lengths > 0.0, self.lengths, 1.0)
        self.directions = np.ascontiguousarray(sorted_vectors / safe_lengths[:, None])
        self.rank = matrix.shape[1]
        self.size = matrix.shape[0]
        #: Lazily built compressed copies of :attr:`directions`, keyed by
        #: screen dtype name (see :mod:`repro.core.screening`).
        self._screen_tiers: dict[str, ScreenTier] = {}
        self._row_hashes: np.ndarray | None = None

    @classmethod
    def from_state(cls, ids, lengths, directions) -> "VectorStore":
        """Rebuild a store from previously exported arrays, skipping the
        norm/sort computations of :meth:`__init__` (used by index loading)."""
        store = cls.__new__(cls)
        store.ids = np.asarray(ids, dtype=np.intp)
        store.lengths = np.ascontiguousarray(np.asarray(lengths, dtype=np.float64))
        store.directions = np.ascontiguousarray(np.asarray(directions, dtype=np.float64))
        store.size, store.rank = store.directions.shape
        store._screen_tiers = {}
        store._row_hashes = None
        return store

    def content_hashes(self) -> np.ndarray:
        """Per-row 128-bit hashes of :attr:`directions` (``(size, 2) uint64``).

        Bucket fingerprints digest these instead of the direction bytes (see
        :func:`row_hashes`).  Built on first use;
        :meth:`merge` hashes only the inserted rows and :meth:`delete` hashes
        none, so the cached array always equals a fresh build.  Like the
        screening tiers, a racing double-build is deterministic and
        idempotent.
        """
        hashes = self._row_hashes
        if hashes is None:
            hashes = row_hashes(self.directions)
            self._row_hashes = hashes
        return hashes

    # --------------------------------------------------------- screening tiers

    def screen_tier(self, dtype_name: str) -> ScreenTier:
        """The compressed screening copy of :attr:`directions` for a dtype.

        Built on first use and cached; incremental updates (:meth:`merge` /
        :meth:`delete`) patch every built tier in sync with the store, so a
        cached tier always equals a fresh build on the current directions.
        A racing double-build under concurrent worker views is deterministic
        and idempotent (quantization is a pure per-row function), matching
        the lazy per-bucket index contract.
        """
        name = validate_screen_dtype(dtype_name)
        tier = self._screen_tiers.get(name)
        if tier is None:
            tier = ScreenTier.build(self.directions, name)
            self._screen_tiers[name] = tier
        return tier

    def set_screen_tier(self, tier: ScreenTier) -> None:
        """Install a restored (persisted) tier instead of building one."""
        self._screen_tiers[tier.dtype_name] = tier

    def __len__(self) -> int:
        return self.size

    # --------------------------------------------------------------- updates

    def merge(self, vectors) -> np.ndarray:
        """Insert new vectors into the length-sorted arrays.

        The new rows receive ids ``size, size + 1, ...`` so the store is
        indistinguishable from one built on the concatenated matrix (ties in
        length placed after existing equal-length vectors, matching the stable
        sort of :meth:`__init__`).

        Returns the *pre-insertion* positions (into the old arrays, sorted
        ascending) at which the new vectors were placed, so callers that slice
        the store (buckets) can shift their boundaries.
        """
        matrix = as_float_matrix(vectors, "vectors")
        if matrix.shape[1] != self.rank:
            raise DimensionMismatchError(
                f"new vectors must have rank {self.rank}, got {matrix.shape[1]}"
            )
        new_lengths = np.linalg.norm(matrix, axis=1)
        # Order the batch by decreasing length (stable: ties keep row order),
        # then find where each lands in the existing descending array.  Using
        # side="right" on the negated (ascending) lengths places new vectors
        # after existing equal-length ones, as a fresh stable sort would.
        batch_order = np.argsort(-new_lengths, kind="stable")
        sorted_new_lengths = new_lengths[batch_order]
        positions = np.searchsorted(-self.lengths, -sorted_new_lengths, side="right")

        safe = np.where(sorted_new_lengths > 0.0, sorted_new_lengths, 1.0)
        new_directions = matrix[batch_order] / safe[:, None]
        new_ids = self.size + batch_order

        self.lengths = np.insert(self.lengths, positions, sorted_new_lengths)
        self.directions = np.ascontiguousarray(
            np.insert(self.directions, positions, new_directions, axis=0)
        )
        self.ids = np.insert(self.ids, positions, new_ids)
        self.size = self.lengths.shape[0]
        for tier in self._screen_tiers.values():
            tier.insert(positions, new_directions)
        if self._row_hashes is not None:
            self._row_hashes = np.insert(
                self._row_hashes, positions, row_hashes(new_directions), axis=0
            )
        return positions

    def delete(self, positions) -> None:
        """Remove the vectors at the given sorted-array positions.

        The surviving vectors are renumbered to consecutive ids in original
        row order, matching a fresh build on the reduced matrix.
        """
        positions = np.asarray(positions, dtype=np.intp)
        removed = np.sort(self.ids[positions])
        self.lengths = np.delete(self.lengths, positions)
        self.directions = np.ascontiguousarray(np.delete(self.directions, positions, axis=0))
        remaining = np.delete(self.ids, positions)
        # Each survivor's new id is its old id minus the removed ids below it.
        self.ids = remaining - np.searchsorted(removed, remaining)
        self.size = self.lengths.shape[0]
        for tier in self._screen_tiers.values():
            tier.delete(positions)
        if self._row_hashes is not None:
            self._row_hashes = np.delete(self._row_hashes, positions, axis=0)

    def vector(self, position: int) -> np.ndarray:
        """Reconstruct the original (unnormalised) vector stored at ``position``."""
        return self.directions[position] * self.lengths[position]

    def vectors(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Reconstruct the original vectors for positions ``[start, end)``."""
        if end is None:
            end = self.size
        return self.directions[start:end] * self.lengths[start:end, None]


class PreparedQueries:
    """Query matrix pre-processed the same way as the probe store.

    Queries are normalised and sorted by decreasing length (paper footnote 1),
    which lets the Above-θ solver prune whole query ranges per bucket with a
    single vectorised comparison.
    """

    def __init__(self, queries) -> None:
        matrix = as_float_matrix(queries, "queries")
        lengths = np.linalg.norm(matrix, axis=1)
        order = np.argsort(-lengths, kind="stable")
        self.ids = order
        self.norms = np.ascontiguousarray(lengths[order])
        sorted_queries = matrix[order]
        safe = np.where(self.norms > 0.0, self.norms, 1.0)
        self.directions = np.ascontiguousarray(sorted_queries / safe[:, None])
        self.rank = matrix.shape[1]
        self.size = matrix.shape[0]

    def __len__(self) -> int:
        return self.size

    def focus_coordinates(self, position: int, phi: int) -> np.ndarray:
        """Return the ``phi`` coordinates of query ``position`` with largest ``|q̄_f|``.

        These are the focus coordinates used by COORD/INCR (Section 4.2): large
        query coordinates produce the tightest feasible regions.
        """
        direction = self.directions[position]
        phi = min(phi, self.rank)
        if phi >= self.rank:
            return np.argsort(-np.abs(direction), kind="stable")
        top = np.argpartition(-np.abs(direction), phi - 1)[:phi]
        return top[np.argsort(-np.abs(direction[top]), kind="stable")]
