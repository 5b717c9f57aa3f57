"""Length/direction decomposition of a set of vectors (paper Section 3.1).

LEMP represents every probe (and query) vector ``v`` by its Euclidean length
``\\|v\\|`` and its direction ``v / \\|v\\|``.  The :class:`VectorStore` holds a
whole matrix of vectors in this decomposed form, sorted by decreasing length,
together with the mapping back to the original row identifiers (the paper's
``id`` column in Fig. 4a).
"""

from __future__ import annotations

import functools
import mmap

import numpy as np

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


def renumber_ids(ids: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Ids after removing the ids flagged in ``removed`` (a mask over the old ids).

    Each survivor's new id is its old id minus the number of removed ids
    below it, one prefix count over the mask.  An id of ``-1`` (a gap row of
    the store) stays ``-1``.
    """
    below = np.zeros(removed.size + 1, dtype=np.intp)
    np.cumsum(removed, out=below[:-1])
    return ids - below[ids]


def vector_lengths(matrix: np.ndarray) -> np.ndarray:
    """Euclidean row lengths that neither overflow nor underflow.

    Rows whose plain ``np.linalg.norm`` is below ``2⁻⁵⁰⁰`` or above
    ``2⁵⁰⁰`` (where the squares may have underflowed or overflowed) are
    re-measured scaled by their largest magnitude; every other row keeps
    the plain norm's bits.
    """
    with np.errstate(over="ignore", under="ignore"):
        lengths = np.linalg.norm(matrix, axis=1)
    risky = ~((lengths >= 2.0**-500) & (lengths <= 2.0**500))
    if risky.any():
        rows = matrix[risky]
        peaks = np.max(np.abs(rows), axis=1)
        safe = np.where(peaks > 0.0, peaks, 1.0)
        lengths[risky] = peaks * np.linalg.norm(rows / safe[:, None], axis=1)
    return lengths


def zeroed_f32_rows(rows: int, rank: int) -> np.ndarray:
    """A zeroed ``(rows, rank)`` float32 array in an anonymous memory map.

    The map's pages cost nothing until they are written, so an array
    allocated with every store buffer becomes resident only where it is
    filled.  (NumPy asks for transparent huge pages on large arrays, so an
    ``np.zeros`` array would become resident 2 MiB at a time.)
    """
    size = rows * rank * np.dtype(np.float32).itemsize
    pages = mmap.mmap(-1, size) if size else bytearray()
    return np.frombuffer(pages, dtype=np.float32).reshape(rows, rank)


def span_positions(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The positions of the half-open spans ``[starts[i], ends[i])``, concatenated."""
    sizes = np.asarray(ends, dtype=np.intp) - starts
    offsets = np.asarray(starts, dtype=np.intp) - (np.cumsum(sizes) - sizes)
    return np.repeat(offsets, sizes) + np.arange(int(sizes.sum()), dtype=np.intp)


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
        ``(capacity,)`` Euclidean norms, sorted in decreasing order over the
        live rows.
    directions:
        ``(capacity, rank)`` unit vectors in the same order.  Zero vectors
        keep an all-zero direction.
    ids:
        ``(capacity,)`` original row index of each stored vector; ``-1``
        marks a gap row.
    size:
        Number of live rows.
    screen_rows:
        ``(capacity, rank)`` float32 buffer of the LENGTH block screen, zero
        until a bucket fills its slice
        (:meth:`~repro.core.bucket.Bucket.fill_screen`).  It is allocated
        with the row arrays (:func:`zeroed_f32_rows`), so only the pages of
        buckets a call screens become resident, and it is never persisted.

    A store built by the constructor or :meth:`from_state` is *packed*: its
    buffers hold exactly the ``size`` live rows.  The first index mutation
    :meth:`repack`-s it into buffers with spare rows after each bucket's
    slice, so later writes shift rows inside one slice only (see
    :meth:`repro.core.lemp.Lemp.partial_fit`).  Buffer order is always
    bucket order, so the live rows, read in buffer order, are sorted by
    decreasing length.  Gap rows are zero in every row-aligned array (length
    0, a zero direction, id ``-1``), so a read that spans several buckets'
    slices sees nothing of a removed row.
    """

    def __init__(self, vectors) -> None:
        matrix = as_float_matrix(vectors, "vectors")
        lengths = vector_lengths(matrix)
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
        self.packed = True
        self._row_hashes: np.ndarray | None = None
        self.screen_rows = zeroed_f32_rows(self.size, self.rank)

    @classmethod
    def from_state(cls, ids, lengths, directions) -> "VectorStore":
        """Rebuild a store from previously exported arrays, skipping the
        norm/sort computations of :meth:`__init__` (used by index loading)."""
        store = cls.__new__(cls)
        store.ids = np.asarray(ids, dtype=np.intp)
        store.lengths = np.ascontiguousarray(np.asarray(lengths, dtype=np.float64))
        store.directions = np.ascontiguousarray(np.asarray(directions, dtype=np.float64))
        store.size, store.rank = store.directions.shape
        store.packed = True
        store._row_hashes = None
        store.screen_rows = zeroed_f32_rows(store.size, store.rank)
        return store

    @property
    def capacity(self) -> int:
        """Number of buffer rows, gaps included."""
        return int(self.lengths.shape[0])

    def live_positions(self) -> np.ndarray:
        """Buffer positions of the live rows, in (decreasing-length) store order."""
        if self.packed:
            return np.arange(self.size, dtype=np.intp)
        return np.flatnonzero(self.ids >= 0)

    def content_hashes(self) -> np.ndarray:
        """Per-row 128-bit hashes of :attr:`directions` (``(capacity, 2) uint64``).

        Bucket fingerprints digest these instead of the direction bytes (see
        :func:`row_hashes`).  Built on first use over every buffer row (gap
        rows too, which no fingerprint reads); :meth:`merge` hashes only the
        inserted rows and moves the others with their rows, so the cached
        array always equals :func:`row_hashes` of the buffer.  A racing
        double-build is deterministic and idempotent.
        """
        hashes = self._row_hashes
        if hashes is None:
            hashes = row_hashes(self.directions)
            self._row_hashes = hashes
        return hashes

    def __len__(self) -> int:
        return self.size

    # --------------------------------------------------------------- updates

    def batch(self, vectors) -> "VectorStore":
        """New rows prepared for :meth:`merge`: a store of their own.

        The rows are sorted and normalised exactly as :meth:`__init__` does,
        and receive ids ``size, size + 1, ...`` in input order.
        """
        matrix = as_float_matrix(vectors, "vectors")
        if matrix.shape[1] != self.rank:
            raise DimensionMismatchError(
                f"new vectors must have rank {self.rank}, got {matrix.shape[1]}"
            )
        batch = VectorStore(matrix)
        batch.ids += self.size
        return batch

    def _row_fields(self) -> list[str]:
        """Names of the row-aligned arrays that move with the rows."""
        fields = ["lengths", "directions", "ids"]
        if self._row_hashes is not None:
            fields.append("_row_hashes")
        return fields

    def merge(self, positions, sources, batch: "VectorStore | None" = None,
              vacated=None) -> None:
        """Write row ``sources[i]`` to buffer row ``positions[i]``, in place.

        A source below :attr:`capacity` names a current buffer row;
        ``capacity + j`` names row ``j`` of ``batch`` (from :meth:`batch`).
        Every row-aligned array moves together, so the cost is the rows
        written times the rank: LEMP writes only the slices of the buckets
        a write touches.
        ``vacated`` positions become gap rows: zero in every row-aligned
        array and in :attr:`screen_rows`, id ``-1``.  Screen rows that are
        already zero are not written, so zeroing leaves pages no bucket
        filled non-resident.  The caller keeps :attr:`size` up to date.
        """
        self._write(positions, sources, batch, None)
        if vacated is not None:
            for name in self._row_fields():
                getattr(self, name)[vacated] = -1 if name == "ids" else 0
            vacated = np.asarray(vacated, dtype=np.intp)
            filled = vacated[self.screen_rows[vacated].any(axis=1)]
            self.screen_rows[filled] = 0.0

    def repack(self, positions, sources, capacity: int) -> None:
        """Move row ``sources[i]`` to row ``positions[i]`` of fresh buffers.

        The new buffers have ``capacity`` rows; rows not written are gaps.
        This is the O(n) step LEMP amortises over many writes (and runs
        before the first write on a packed store, whose buffers may be
        read-only memory maps).  :attr:`screen_rows` is replaced by a zeroed
        buffer of the new capacity, which the buckets fill again on use.
        """
        self._write(positions, sources, None, int(capacity))
        self.packed = False
        self.screen_rows = zeroed_f32_rows(int(capacity), self.rank)

    def _write(self, positions, sources, batch, capacity) -> None:
        positions = np.asarray(positions, dtype=np.intp)
        sources = np.asarray(sources, dtype=np.intp)
        if capacity is None:
            # Rows already in place (before an insert point, say) stay put.
            moved = sources != positions
            positions, sources = positions[moved], sources[moved]
        new = sources >= self.capacity
        old_positions, old_sources = positions[~new], sources[~new]
        new_positions, new_sources = positions[new], sources[new] - self.capacity
        if batch is not None and self._row_hashes is not None:
            # The batch carries the row hashes this store has built.
            batch.content_hashes()
        for name in self._row_fields():
            array = getattr(self, name)
            # The right-hand side is gathered before any row is written.
            values = array[old_sources]
            if capacity is not None:
                shape = (capacity,) + array.shape[1:]
                array = (np.full(shape, -1, dtype=array.dtype) if name == "ids"
                         else np.zeros(shape, dtype=array.dtype))
                setattr(self, name, array)
            array[old_positions] = values
            if new_sources.size:
                array[new_positions] = getattr(batch, name)[new_sources]

    def vector(self, position: int) -> np.ndarray:
        """Reconstruct the original (unnormalised) vector stored at ``position``."""
        return self.directions[position] * self.lengths[position]

    def vectors(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Reconstruct the original vectors for buffer positions ``[start, end)``."""
        if end is None:
            end = self.capacity
        return self.directions[start:end] * self.lengths[start:end, None]


class PreparedQueries:
    """Query matrix pre-processed the same way as the probe store.

    Queries are normalised and sorted by decreasing length (paper footnote 1),
    which lets the Above-θ solver prune whole query ranges per bucket with a
    single vectorised comparison.
    """

    def __init__(self, queries) -> None:
        matrix = as_float_matrix(queries, "queries")
        lengths = vector_lengths(matrix)
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

    @functools.cached_property
    def directions32(self) -> np.ndarray:
        """:attr:`directions` rounded to float32: the LENGTH block screen's queries."""
        return self.directions.astype(np.float32)

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
