"""Probe buckets: contiguous length-sorted slices of a :class:`VectorStore`.

A bucket corresponds to one block ``P^b`` of the paper's bucketised probe
matrix (Fig. 2 / Fig. 4a).  Buckets expose views on the lengths, directions and
original identifiers of their probes and *lazily* build the auxiliary indexes
used by the different retrieval algorithms (sorted lists for COORD/INCR/TA, a
cover tree for LEMP-Tree, an L2AP index and LSH signatures for LEMP-L2AP /
LEMP-BLSH) and their slice of the store's f32 LENGTH screen buffer.  Lazy
construction mirrors the paper: buckets that are always pruned never pay any
indexing cost.

A :class:`BucketLayout` holds a bucket list with the per-bucket arrays a
solver call reads, so a call finds its live buckets and LENGTH prefixes
with a few searches instead of a pass over every bucket; a :class:`Span` is
a run of consecutive buckets that LENGTH screens as one slice of the buffer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sorted_lists import SortedListIndex
from repro.core.tuning_cache import BucketFingerprint, fingerprint_content
from repro.core.thresholds import local_thresholds
from repro.core.vector_store import VectorStore, span_positions


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
        #: The :attr:`VectorStore.screen_rows` buffer this bucket's slice was filled in.
        self._filled: np.ndarray | None = None
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

    @property
    def screen_exponent(self) -> int:
        """``E``, the exponent of ``l_b = m·2ᴱ`` with ``m ∈ [0.5, 1)`` (0 for ``l_b = 0``)."""
        return math.frexp(self.max_length)[1]

    def move(self, start: int, end: int) -> None:
        """Point the bucket at the same rows after a re-pack moved them to ``[start, end)``."""
        self.start, self.end = start, end
        self._filled = None

    def fill_screen(self) -> np.ndarray:
        """The store's f32 screen buffer, with this bucket's slice filled.

        Row ``i`` of the slice is ``directions[i] · lengths[i] · 2⁻ᴱ``
        rounded once to float32 (:attr:`screen_exponent`), so every scaled
        length is below 1 and none can overflow float32 (see
        :func:`~repro.core.kernels.screen_slack`).  Bucket content never
        changes in place, so the slice is written once per buffer: the
        bucket remembers the buffer it filled and fills again only when a
        re-pack has replaced it.  Buckets of one store do not overlap, so no
        bucket overwrites another's slice, and threads that fill one slice
        at once write the same bits.
        """
        rows = self.store.screen_rows
        if self._filled is not rows:
            scaled = np.ldexp(self.lengths, -self.screen_exponent)
            np.multiply(self.directions, scaled[:, None], out=rows[self.start:self.end])
            self._filled = rows
        return rows

    def screen_slice(self) -> tuple[np.ndarray, int]:
        """The bucket's filled rows of the f32 screen buffer and their exponent ``E``."""
        return self.fill_screen()[self.start:self.end], self.screen_exponent

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


class Span:
    """Consecutive buckets of one screen exponent, read as one slice of the buffer.

    The slice ``[start, end)`` runs from the first bucket's start to the
    last one's end, gap rows between the buckets included: those are zero
    in the screen buffer and in :attr:`lengths`, and :meth:`live_rows`
    drops them from a screen's survivors.  Every row of the slice is scaled
    by the same ``2⁻ᴱ``, with ``s·l_p ≤ 1``, which is all
    :func:`~repro.core.kernels.screen_slack` assumes of one product.
    """

    def __init__(self, buckets: list[Bucket], starts: np.ndarray, ends: np.ndarray) -> None:
        self.buckets = buckets
        self.store = buckets[0].store
        self.start = int(starts[0])
        self.end = int(ends[-1])
        self.exponent = buckets[0].screen_exponent
        self._starts = starts - self.start
        self._ends = ends - self.start

    @property
    def lengths(self) -> np.ndarray:
        """Lengths of the slice's rows; gap rows read 0."""
        return self.store.lengths[self.start:self.end]

    def screen_slice(self) -> tuple[np.ndarray, int]:
        """The slice's rows of the f32 screen buffer, each bucket's filled, and ``E``."""
        for bucket in self.buckets:
            rows = bucket.fill_screen()
        return rows[self.start:self.end], self.exponent

    def owners(self, rows: np.ndarray) -> np.ndarray:
        """Position in the span of the bucket at or before each slice row."""
        return np.searchsorted(self._starts, rows, side="right") - 1

    def live_rows(self, pairs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(pair, row)`` entries whose row lies inside a bucket, not in a gap."""
        if len(self.buckets) == 1:
            return pairs, rows
        inside = rows < self._ends[self.owners(rows)]
        return pairs[inside], rows[inside]


class BucketLayout:
    """A store's buckets in walk order, with the arrays a solver call reads.

    Built once per bucket list (:meth:`repro.core.lemp.Lemp.layout`): the
    buckets' buffer ``starts`` and ``ends``, their longest lengths
    ``max_lengths`` (non-increasing) and screen ``exponents``, ``offsets``
    (live rows before each bucket) and the live rows' lengths in walk order,
    which are sorted like the store.
    """

    def __init__(self, buckets) -> None:
        self.buckets = buckets
        count = len(buckets)
        self.store = buckets[0].store if count else None
        self.starts = np.fromiter((bucket.start for bucket in buckets), np.intp, count)
        self.ends = np.fromiter((bucket.end for bucket in buckets), np.intp, count)
        self.max_lengths = self.store.lengths[self.starts] if count else np.empty(0)
        self.exponents = np.frexp(self.max_lengths)[1]
        self.offsets = np.concatenate(([0], np.cumsum(self.ends - self.starts)))
        rows = span_positions(self.starts, self.ends) if count else np.empty(0, np.intp)
        self._negated_lengths = -self.store.lengths[rows] if count else np.empty(0)
        #: Row-Top-k's fixed-point seed rows and their exponent, filled on
        #: first use (:func:`repro.core.top_k.seed_thresholds`).
        self.seed_probes: tuple[np.ndarray, int] | None = None

    def span(self, first: int, stop: int) -> Span:
        """Buckets ``[first, stop)`` as one :class:`Span`."""
        return Span(self.buckets[first:stop], self.starts[first:stop], self.ends[first:stop])

    def walk(self, theta: float, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each query's live buckets and LENGTH prefix at ``theta``, from θ/‖q‖ once.

        Returns ``(live, prefix)`` per query (``norms`` non-increasing).
        ``live[j]`` counts the buckets with local threshold ``θ_b ≤ 1``
        (:func:`~repro.core.thresholds.local_thresholds`); for ``θ > 0`` they
        are the first ``live[j]`` buckets, found with one search over
        ``max_lengths`` and stepped to the exact comparison, which rounding
        may move across buckets of nearly equal lengths.  For ``θ ≤ 0``
        every bucket is live.  ``prefix[j]`` counts the live rows of the
        query's live buckets with ``‖p‖ ≥ θ/‖q‖`` (all of them for
        ``θ ≤ 0``): :meth:`~repro.core.retrievers.length.LengthRetriever.retrieve`'s
        prefix, summed over the buckets, from one search over the live
        lengths.  ``live`` and ``prefix`` are non-increasing.
        """
        count = len(self.buckets)
        if count == 0 or not theta > 0.0:
            everything = count if theta <= 0.0 else 0  # NaN reaches nothing
            live = np.full(norms.size, everything, dtype=np.intp)
            return live, self.offsets[live]
        with np.errstate(divide="ignore", over="ignore"):
            least = theta / norms
        live = np.searchsorted(-self.max_lengths, -least, side="right")
        while True:
            # The live buckets are a prefix, so a query steps one way only.
            last = local_thresholds(theta, norms, self.max_lengths[np.maximum(live - 1, 0)])
            after = local_thresholds(theta, norms, self.max_lengths[np.minimum(live, count - 1)])
            step = ((live < count) & (after <= 1.0)).astype(np.intp)
            step -= (live > 0) & ~(last <= 1.0)
            if not step.any():
                break
            live += step
        prefix = np.searchsorted(self._negated_lengths, -least, side="right")
        return live, np.minimum(prefix, self.offsets[live])

    def positions(self, prefix: np.ndarray) -> np.ndarray:
        """Buffer position just past each prefix of ``prefix`` live rows."""
        owner = np.searchsorted(self.offsets[1:], prefix, side="left")
        return self.starts[owner] + prefix - self.offsets[owner]
