"""Probe buckets: contiguous length-sorted slices of a :class:`VectorStore`.

A bucket corresponds to one block ``P^b`` of the paper's bucketised probe
matrix (Fig. 2 / Fig. 4a).  Buckets expose views on the lengths, directions and
original identifiers of their probes and *lazily* build the auxiliary indexes
used by the different retrieval algorithms (sorted lists for COORD/INCR/TA, a
cover tree for LEMP-Tree, an L2AP index and LSH signatures for LEMP-L2AP /
LEMP-BLSH) and the f32 rows of the LENGTH block screen.  Lazy construction
mirrors the paper: buckets that are always pruned never pay any indexing
cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.sorted_lists import SortedListIndex
from repro.core.tuning_cache import BucketFingerprint, fingerprint_content
from repro.core.vector_store import VectorStore


def gen_lists_key(dtype_name: str) -> str:
    """Auxiliary-index key of the compressed sorted lists for a gen dtype."""
    return f"gen_lists:{dtype_name}"


class Bucket:
    """One bucket of probes of roughly similar length.

    Parameters
    ----------
    store:
        The length-sorted probe store the bucket slices into.
    start, end:
        Half-open buffer position range ``[start, end)`` within the store.
        The rows up to the next bucket's ``start`` (or the buffer end) are
        the bucket's spare rows (see :meth:`repro.core.lemp.Lemp.partial_fit`).
    index:
        Ordinal number of the bucket (0 = longest vectors).
    epoch:
        Index-mutation epoch the bucket was created in (see
        :mod:`repro.core.tuning_cache`).  Buckets a ``partial_fit`` /
        ``remove`` does not touch keep their original epoch (a re-pack moves
        them without changing their rows); rebuilt buckets get the current
        epoch, which invalidates exactly their cached tuning entries.
    """

    def __init__(self, store: VectorStore, start: int, end: int, index: int,
                 epoch: int = 0) -> None:
        if not 0 <= start < end <= store.capacity:
            raise ValueError(
                f"invalid bucket range [{start}, {end}) for a store of {store.capacity} rows"
            )
        self.store = store
        self.start = start
        self.end = end
        self.index = index
        self.epoch = epoch
        self._sorted_lists: SortedListIndex | None = None
        self._screen_rows: tuple[np.ndarray, int] | None = None
        self._extra_indexes: dict[str, object] = {}
        self._fingerprint: BucketFingerprint | None = None

    # ------------------------------------------------------------------ views

    @property
    def size(self) -> int:
        """Number of probe vectors in the bucket."""
        return self.end - self.start

    def __len__(self) -> int:
        return self.size

    @property
    def lengths(self) -> np.ndarray:
        """Lengths of the bucket's probes, in decreasing order."""
        return self.store.lengths[self.start:self.end]

    @property
    def directions(self) -> np.ndarray:
        """Unit directions of the bucket's probes (``size x rank``)."""
        return self.store.directions[self.start:self.end]

    @property
    def ids(self) -> np.ndarray:
        """Original probe-matrix row identifiers of the bucket's probes."""
        return self.store.ids[self.start:self.end]

    @property
    def max_length(self) -> float:
        """``l_b``: length of the longest probe in the bucket."""
        return float(self.store.lengths[self.start])

    @property
    def min_length(self) -> float:
        """Length of the shortest probe in the bucket."""
        return float(self.store.lengths[self.end - 1])

    def vectors(self) -> np.ndarray:
        """Reconstruct the bucket's original (unnormalised) probe vectors."""
        return self.directions * self.lengths[:, None]

    def fingerprint(self) -> BucketFingerprint:
        """Content fingerprint of the bucket (cached; bucket content is immutable).

        A bucket's probe content never changes in place — index mutations
        replace changed buckets with fresh :class:`Bucket` objects — so the
        fingerprint is computed once from the length slice, the store's
        per-row direction hashes and the creation epoch, and then memoised.
        """
        if self._fingerprint is None:
            hashes = self.store.content_hashes()[self.start:self.end]
            self._fingerprint = fingerprint_content(self.lengths, hashes, self.epoch)
        return self._fingerprint

    # ------------------------------------------------------------ lazy indexes

    @property
    def sorted_lists_built(self) -> bool:
        """Whether the sorted-list index has already been constructed."""
        return self._sorted_lists is not None

    def sorted_lists(self) -> SortedListIndex:
        """Return the bucket's sorted-list index, building it on first use."""
        if self._sorted_lists is None:
            self._sorted_lists = SortedListIndex(self.directions)
        return self._sorted_lists

    def screen_rows(self) -> tuple[np.ndarray, int]:
        """The LENGTH block screen's f32 rows and their scale exponent ``E``, built once.

        Row ``i`` is ``directions[i] · lengths[i] · 2⁻ᴱ`` rounded once to
        float32, where ``E`` is the exponent of ``l_b`` (``l_b = m·2ᴱ`` with
        ``m ∈ [0.5, 1)``, ``E = 0`` for a zero-length bucket), so every
        scaled length is below 1 and none can overflow float32 (see
        :func:`~repro.core.kernels.screen_slack`).  Bucket content never
        changes in place, so the copy lives as long as the bucket: ``4·r``
        bytes per row.
        """
        if self._screen_rows is None:
            exponent = int(np.frexp(self.max_length)[1])
            scaled = np.ldexp(self.lengths, -exponent)
            rows = np.empty((self.size, self.store.rank), dtype=np.float32)
            np.multiply(self.directions, scaled[:, None], out=rows)
            self._screen_rows = rows, exponent
        return self._screen_rows

    def gen_sorted_lists(self, tier) -> SortedListIndex:
        """Sorted lists built over a compressed tier's values, lazily.

        ``tier`` is the :class:`~repro.core.screening.ScreenTier` selected by
        LEMP's ``gen_dtype`` knob; the index stores the tier's storage-dtype
        values with ``int32`` identifiers and widens every scan range by the
        tier's per-element error bound (see
        :class:`~repro.core.sorted_lists.SortedListIndex`).  One index is
        kept per tier dtype, alongside — never replacing — the exact f64
        lists, so toggling ``gen_dtype`` on a warm retriever reuses whatever
        is already built.
        """
        def build() -> SortedListIndex:
            values, bounds = tier.gen_view(self.start, self.end)
            return SortedListIndex.from_compressed(values, bounds)

        return self.get_index(gen_lists_key(tier.dtype_name), build)

    def get_index(self, key: str, builder):
        """Return a named auxiliary index, building it with ``builder()`` on first use.

        Used by the LEMP-Tree / LEMP-L2AP / LEMP-BLSH retrievers to attach
        their per-bucket data structures without the bucket knowing about
        every retrieval algorithm.
        """
        if key not in self._extra_indexes:
            self._extra_indexes[key] = builder()
        return self._extra_indexes[key]

    def peek_index(self, key: str):
        """Return a named auxiliary index, or ``None`` if it was never built.

        Unlike :meth:`get_index` this never constructs anything; the
        threshold-guarded retrievers (LEMP-L2AP, LEMP-BLSH) use it to inspect
        the cached index's building threshold before deciding to reuse it.
        """
        return self._extra_indexes.get(key)

    def set_index(self, key: str, value):
        """Store (or replace) a named auxiliary index and return it."""
        self._extra_indexes[key] = value
        return value

    def drop_index(self, key: str) -> None:
        """Discard a named auxiliary index so it is rebuilt on next use.

        Needed by retrievers whose index depends on the retrieval threshold
        (LEMP-L2AP, LEMP-BLSH) when the same :class:`Bucket` is reused for a
        new problem instance.
        """
        self._extra_indexes.pop(key, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Bucket(index={self.index}, size={self.size}, "
            f"max_length={self.max_length:.4g}, min_length={self.min_length:.4g})"
        )
