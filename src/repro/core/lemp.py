"""The LEMP retriever: public entry point of the library.

:class:`Lemp` wires together the preprocessing phase (length/direction
decomposition and bucketisation), the sample-based tuner, and the Above-θ /
Row-Top-k solvers.  The ``algorithm`` parameter selects which bucket retrieval
method is used, mirroring the paper's LEMP-X naming:

========= =====================================================================
name      bucket algorithm
========= =====================================================================
``"L"``    LENGTH (length-based prefix pruning)
``"C"``    COORD (coordinate-based pruning)
``"I"``    INCR (incremental pruning)
``"TA"``   threshold algorithm on the bucket's sorted lists
``"TREE"`` per-bucket cover tree
``"L2AP"`` per-bucket L2AP-style inverted index
``"BLSH"`` LENGTH + BayesLSH-Lite signature filtering (approximate)
``"LC"``   tuned mix of LENGTH and COORD
``"LI"``   tuned mix of LENGTH and INCR (the paper's overall winner, default)
========= =====================================================================
"""

from __future__ import annotations

import numpy as np

from repro.core.above_theta import solve_above_theta
from repro.core.api import Retriever
from repro.core.bucket import Bucket, BucketLayout
from repro.core.bucketize import (
    DEFAULT_CACHE_KIB,
    DRIFT_LIMIT,
    SLACK_FRACTION,
    bucketize,
    greedy_boundaries,
    size_bound,
    slack_bound,
)
from repro.core.results import AboveThetaResult, TopKResult
from repro.core.retrievers import (
    BlshBucketRetriever,
    CoordRetriever,
    IncrRetriever,
    L2APBucketRetriever,
    LengthRetriever,
    TABucketRetriever,
    TreeBucketRetriever,
)
from repro.core.retrievers.blsh import INDEX_KEY as BLSH_INDEX_KEY
from repro.core.retrievers.l2ap import INDEX_KEY as L2AP_INDEX_KEY
from repro.core.selector import DEFAULT_PHI, FixedSelector, PerBucketSelector
from repro.core.top_k import seed_thresholds, solve_row_top_k
from repro.core.tuner import (
    DEFAULT_PHI_GRID,
    DEFAULT_SAMPLE_SIZE,
    combine_tuning,
    tune_mixed,
    tune_phi,
)
from repro.core.tuning_cache import TuningCache
from repro.core.vector_store import (
    PreparedQueries,
    VectorStore,
    renumber_ids,
    span_positions,
)
from repro.engine.registry import register_retriever
from repro.exceptions import DimensionMismatchError, UnknownAlgorithmError
from repro.utils.timer import Timer
from repro.utils.validation import (
    as_float_matrix,
    require_positive,
    require_positive_int,
    validate_probe_ids,
)

#: Names of all supported bucket algorithms.
ALGORITHMS = ("L", "C", "I", "TA", "TREE", "L2AP", "BLSH", "LC", "LI")


def _target_buckets(longest: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bucket each new row goes to, given each bucket's longest row.

    That is the last bucket whose longest row is at least as long (the first
    bucket for a row longer than every indexed one), so the row lands after
    every equal-length row, where a fresh stable sort puts it.
    """
    return np.maximum(np.searchsorted(-longest, -lengths, side="right") - 1, 0)


@register_retriever("lemp", variant_kw="algorithm", variants=ALGORITHMS, default_variant="LI")
class Lemp(Retriever):
    """LEMP retriever over a fixed probe matrix.

    Parameters
    ----------
    algorithm:
        Bucket retrieval method, one of :data:`ALGORITHMS` (case-insensitive).
    min_bucket_size, max_bucket_size, length_ratio, cache_kib:
        Bucketisation parameters, see :func:`repro.core.bucketize.bucketize`.
        Passing ``cache_kib=None`` together with ``max_bucket_size=None`` gives
        the cache-oblivious variant used in the Section 6.2 ablation.
    phi:
        Fixed focus-set size for coordinate-based methods.  ``None`` (default)
        lets the sample-based tuner pick a per-bucket value.
    tune_sample, phi_grid:
        Tuner sample size and candidate focus-set sizes (Section 4.4).
    seed:
        Seed for the tuner's query sample and the BLSH signatures.
    tune_cache:
        Whether tuning artifacts (tuned φ / switch points, threshold-derived
        L2AP/BLSH bucket indexes) are memoised across retrieval calls in a
        :class:`~repro.core.tuning_cache.TuningCache`.  Enabled by default;
        disabling restores the tune-per-call behaviour.  Results are
        identical either way for the exact algorithms — tuning only steers
        candidate generation, and candidates are verified exactly.
    """

    def __init__(
        self,
        algorithm: str = "LI",
        min_bucket_size: int = 30,
        max_bucket_size: int | None = None,
        length_ratio: float = 0.9,
        cache_kib: float | None = DEFAULT_CACHE_KIB,
        phi: int | None = None,
        tune_sample: int = DEFAULT_SAMPLE_SIZE,
        phi_grid=DEFAULT_PHI_GRID,
        seed: int = 0,
        tune_cache: bool = True,
    ) -> None:
        super().__init__()
        algorithm = str(algorithm).upper()
        if algorithm not in ALGORITHMS:
            raise UnknownAlgorithmError(
                f"unknown LEMP algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        self.algorithm = algorithm
        self.min_bucket_size = min_bucket_size
        self.max_bucket_size = max_bucket_size
        self.length_ratio = length_ratio
        self.cache_kib = cache_kib
        self.phi = phi
        self.tune_sample = tune_sample
        self.phi_grid = tuple(phi_grid)
        self.seed = seed
        self.name = f"LEMP-{algorithm}"
        self.store: VectorStore | None = None
        self.buckets: list = []
        self._layout: BucketLayout | None = None
        self.tuning_cache = TuningCache(enabled=bool(tune_cache))
        self._epoch = 0

    # ------------------------------------------------------------------- fit

    def fit(self, probes) -> "Lemp":
        """Decompose and bucketise the probe matrix (preprocessing phase)."""
        self._epoch = 0
        self.tuning_cache.clear()
        with Timer() as timer:
            self.store = VectorStore(probes)
            self.buckets = bucketize(
                self.store,
                min_bucket_size=self.min_bucket_size,
                max_bucket_size=self.max_bucket_size,
                length_ratio=self.length_ratio,
                cache_kib=self.cache_kib,
            )
        self.stats.preprocessing_seconds += timer.elapsed
        self._fitted = True
        return self

    @property
    def num_buckets(self) -> int:
        """Number of buckets the probe matrix was split into."""
        return len(self.buckets)

    @property
    def num_probes(self) -> int | None:
        """Number of indexed probe rows, or ``None`` before :meth:`fit`."""
        return None if self.store is None else self.store.size

    def get_params(self) -> dict:
        """Constructor arguments needed to rebuild an equivalent retriever."""
        return {
            "algorithm": self.algorithm,
            "min_bucket_size": self.min_bucket_size,
            "max_bucket_size": self.max_bucket_size,
            "length_ratio": self.length_ratio,
            "cache_kib": self.cache_kib,
            "phi": self.phi,
            "tune_sample": self.tune_sample,
            "phi_grid": list(self.phi_grid),
            "seed": self.seed,
            "tune_cache": self.tuning_cache.enabled,
        }

    # -------------------------------------------------- incremental maintenance

    def _spans(self, ordinals: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of the buckets at ``ordinals`` (default: all)."""
        buckets = self.buckets if ordinals is None else [
            self.buckets[index] for index in ordinals.tolist()]
        starts = np.fromiter((bucket.start for bucket in buckets), dtype=np.intp,
                             count=len(buckets))
        ends = np.fromiter((bucket.end for bucket in buckets), dtype=np.intp,
                           count=len(buckets))
        return starts, ends

    def _has_room(self, targets: np.ndarray) -> bool:
        """Whether every bucket's slice has spare rows for its new rows."""
        starts, ends = self._spans()
        room = np.append(starts[1:], self.store.capacity) - ends
        return bool(np.all(np.bincount(targets, minlength=room.size) <= room))

    def _targets(self, lengths: np.ndarray) -> np.ndarray:
        """The bucket each new row of ``lengths`` goes to (see :func:`_target_buckets`)."""
        return _target_buckets(self.store.lengths[self._spans()[0]], lengths)

    def _recut(self, lengths: np.ndarray, bucket: Bucket, bound: int | None) -> list[int]:
        """Cuts of ``bucket``'s rows after a write: one piece unless it must split.

        The rows stay one bucket while they fit the slack bound
        (:func:`~repro.core.bucketize.slack_bound` of the size bound
        ``bound``) and their length ratio (shortest over longest) is no
        worse than ``length_ratio`` or than the bucket's own ratio before
        the write.  Otherwise they are cut as a fresh fit cuts them.  A
        removal never splits a bucket; an insert splits it once it outgrows
        the slack bound, or when rows beyond its length range stretch the
        ratio.
        """
        if lengths.size == 0:
            return [0]
        loose = slack_bound(bound)
        before = bucket.min_length / bucket.max_length if bucket.max_length > 0.0 else 1.0
        if ((loose is None or lengths.size <= loose)
                and lengths[-1] >= min(before, self.length_ratio) * lengths[0]):
            return [0, int(lengths.size)]
        return greedy_boundaries(lengths, self.store.rank,
                                 min_bucket_size=self.min_bucket_size, max_bucket_size=bound,
                                 length_ratio=self.length_ratio, cache_kib=None)

    def _rebucketize(self, touched: np.ndarray, sources: np.ndarray, lengths: np.ndarray,
                     sizes: np.ndarray, batch: VectorStore | None = None) -> None:
        """Replace each changed bucket by a local re-cut of its rows, in its own slice.

        ``touched`` holds the changed buckets' ordinals (ascending) and
        ``sizes`` their row counts after the write; ``sources`` and
        ``lengths`` are their rows after the write, bucket after bucket in
        store order, as :meth:`~repro.core.vector_store.VectorStore.merge`
        sources, and those rows' lengths.  Each bucket's rows are written
        from its ``start`` on, cut by :meth:`_recut` and wrapped in new
        :class:`Bucket` objects at the current epoch, which no tuning entry
        can match; a bucket left without rows disappears.  Every other
        bucket keeps its object, its cached per-bucket indexes and its
        tuning entries.  The cost is the changed buckets' rows times the
        rank, plus one pass over the bucket list.
        """
        starts, ends = self._spans(touched)
        bound = size_bound(self.store.rank, self.max_bucket_size, self.cache_kib)
        replaced, offset = {}, 0
        for index, start, size in zip(touched.tolist(), starts.tolist(), sizes.tolist()):
            cuts = self._recut(lengths[offset:offset + size], self.buckets[index], bound)
            replaced[index] = [
                Bucket(self.store, start + low, start + high, index, epoch=self._epoch)
                for low, high in zip(cuts[:-1], cuts[1:])
            ]
            offset += size
        if self.tuning_cache.num_keys:
            # Fingerprint the replaced buckets before their rows are overwritten.
            self.tuning_cache.discard({self.buckets[index].fingerprint() for index in replaced})
        self.store.merge(span_positions(starts, starts + sizes), sources, batch,
                         span_positions(np.minimum(starts + sizes, ends), ends))
        buckets: list[Bucket] = []
        previous = 0
        for index, pieces in replaced.items():
            buckets.extend(self.buckets[previous:index])
            buckets.extend(pieces)
            previous = index + 1
        buckets.extend(self.buckets[previous:])
        for ordinal in range(int(touched[0]), len(buckets)):
            bucket = buckets[ordinal]
            if bucket.index != ordinal:
                # BLSH signatures are seeded per bucket ordinal; drop them
                # when the ordinal shifts, so a later build matches the one
                # a reloaded index makes.
                bucket.drop_index(BLSH_INDEX_KEY)
                bucket.index = ordinal
        self.buckets = buckets
        self.stats.buckets_rebuilt += sum(len(pieces) for pieces in replaced.values())

    def _repack(self, pending: np.ndarray | None = None) -> None:
        """Re-pack the store with spare rows after every bucket: O(n · rank).

        Each bucket's slice gets room for its rows, the ``pending`` rows
        about to be inserted into it, and :data:`SLACK_FRACTION` of both.
        The cuts and :class:`Bucket` objects are kept (their rows only move)
        unless the bucket count has drifted from a fresh greedy cut of the
        current lengths by more than :data:`DRIFT_LIMIT`; then the fresh cut
        replaces every bucket.
        """
        store = self.store
        live = store.live_positions()
        sizes = np.fromiter((bucket.size for bucket in self.buckets), dtype=np.intp,
                            count=len(self.buckets))
        fresh = greedy_boundaries(
            store.lengths[live], store.rank, min_bucket_size=self.min_bucket_size,
            max_bucket_size=self.max_bucket_size, length_ratio=self.length_ratio,
            cache_kib=self.cache_kib,
        )
        recut = abs(sizes.size - (len(fresh) - 1)) > DRIFT_LIMIT * (len(fresh) - 1)
        if recut:
            sizes = np.diff(np.asarray(fresh, dtype=np.intp))
        capacities = sizes.copy()
        if pending is not None:
            longest = store.lengths[live[np.cumsum(sizes) - sizes]]
            targets = np.maximum(np.searchsorted(-longest, -pending, side="right") - 1, 0)
            capacities += np.bincount(targets, minlength=sizes.size)
        capacities += np.ceil(SLACK_FRACTION * capacities).astype(np.intp)
        starts = np.cumsum(capacities) - capacities
        store.repack(span_positions(starts, starts + sizes), live, int(capacities.sum()))
        if recut:
            self.buckets = [
                Bucket(store, int(start), int(start + size), index, epoch=self._epoch)
                for index, (start, size) in enumerate(zip(starts, sizes))
            ]
            self.stats.buckets_rebuilt += sizes.size
            self.tuning_cache.clear()
        else:
            for bucket, start, size in zip(self.buckets, starts.tolist(), sizes.tolist()):
                bucket.move(start, start + size)
            self._layout = None
        self.stats.store_repacks += 1

    def partial_fit(self, new_probes) -> "Lemp":
        """Insert new probe rows into the fitted index.

        The new rows get ids ``size, size + 1, ...``.  Each goes to the
        bucket whose length range covers it (one binary search over the
        buckets' longest rows) and is merged into that bucket's slice,
        shifting rows inside the slice only; :meth:`_rebucketize` re-cuts
        the changed buckets alone.  A write therefore costs the rows written
        times the touched buckets' size, not O(n · rank).  When a slice has
        no spare rows left — and on the first write to a freshly fitted or
        loaded index — :meth:`_repack` re-packs the whole store once.

        The layout may differ from a fresh :meth:`fit` on the concatenated
        matrix, but the results do not: Row-Top-k is byte-identical to it,
        and Above-θ returns the same pairs with the same score bits, in the
        solver's walk order over this layout.  A 0-row write does nothing.
        Mutations must not run while a query runs on the same retriever;
        :class:`~repro.serve.engine.ServingEngine` serialises them.
        """
        if not self._fitted:
            return self.fit(new_probes)
        batch = self.store.batch(new_probes)
        if batch.size == 0:
            return self
        self._epoch += 1
        with Timer() as timer:
            if not self.buckets:
                # An empty index takes the rows as a fresh fit would.
                self.store = batch
                self.buckets = bucketize(
                    batch, min_bucket_size=self.min_bucket_size,
                    max_bucket_size=self.max_bucket_size, length_ratio=self.length_ratio,
                    cache_kib=self.cache_kib,
                )
                for bucket in self.buckets:
                    bucket.epoch = self._epoch
                self.stats.buckets_rebuilt += len(self.buckets)
            else:
                self._insert(batch)
        self.stats.preprocessing_seconds += timer.elapsed
        return self

    def _insert(self, batch: VectorStore) -> None:
        targets = self._targets(batch.lengths)
        if self.store.packed or not self._has_room(targets):
            self._repack(batch.lengths)
            targets = self._targets(batch.lengths)
        touched, counts = np.unique(targets, return_counts=True)
        starts, ends = self._spans(touched)
        old = span_positions(starts, ends)
        old_lengths = self.store.lengths[old]
        # The touched buckets' rows, concatenated, are sorted by decreasing
        # length, and every row of a bucket before a new row's target is at
        # least as long as it, every row after shorter: one search over the
        # concatenation finds each new row's place in its own bucket.
        at = np.searchsorted(-old_lengths, -batch.lengths, side="right")
        self._rebucketize(
            touched,
            np.insert(old, at, self.store.capacity + np.arange(batch.size)),
            np.insert(old_lengths, at, batch.lengths),
            ends - starts + counts,
            batch,
        )
        self.store.size += batch.size

    def remove(self, probe_ids) -> "Lemp":
        """Remove probe rows by original id from the fitted index.

        The rows are found with one dense mask over the ids, each changed
        bucket closes its gap inside its own slice (:meth:`_rebucketize`),
        and the survivors are renumbered to consecutive ids in original row
        order by a prefix count over the removed ids.  Results carry the
        same guarantee as :meth:`partial_fit`'s; removing no rows does
        nothing.  The first write to a freshly fitted or loaded index
        re-packs the store once, and so does a removal that leaves more
        gap rows than live ones (amortised over the removed rows).
        """
        self._require_fitted()
        probe_ids = validate_probe_ids(probe_ids, self.store.size)
        if probe_ids.size == 0:
            return self
        self._epoch += 1
        with Timer() as timer:
            if self.store.packed:
                self._repack()
            store = self.store
            # One slot past the last id: gap rows (id -1) read it as kept.
            removed = np.zeros(store.size + 1, dtype=bool)
            removed[probe_ids] = True
            positions = np.flatnonzero(removed[store.ids])
            owners = np.searchsorted(self._spans()[0], positions, side="right") - 1
            touched, counts = np.unique(owners, return_counts=True)
            starts, ends = self._spans(touched)
            old = span_positions(starts, ends)
            rows = old[~removed[store.ids[old]]]
            self._rebucketize(touched, rows, store.lengths[rows], ends - starts - counts)
            store.ids = renumber_ids(store.ids, removed[:-1])
            store.size -= probe_ids.size
            if 2 * store.size < store.capacity:
                # Mostly gaps: re-pack, which also re-cuts buckets that
                # removals have left too many and too small.
                self._repack()
        self.stats.preprocessing_seconds += timer.elapsed
        return self

    # ------------------------------------------------------------- persistence

    def index_state(self) -> dict[str, np.ndarray]:
        """Export the fitted length-sorted store, bucket boundaries and epochs.

        The live rows are exported compactly, in store order, with the cuts
        and epochs kept: a reloaded index has the same buckets, the same
        Above-θ walk order and the same tuning-cache fingerprints, and the
        persisted format does not depend on the spare rows.
        """
        self._require_fitted()
        store = self.store
        live = None if store.packed else store.live_positions()

        def rows(array: np.ndarray) -> np.ndarray:
            return array if live is None else array[live]

        sizes = [bucket.size for bucket in self.buckets]
        return {
            "ids": rows(store.ids),
            "lengths": rows(store.lengths),
            "directions": rows(store.directions),
            "bounds": np.cumsum([0] + sizes).astype(np.intp),
            "bucket_epochs": np.asarray([bucket.epoch for bucket in self.buckets],
                                        dtype=np.int64),
            "epoch": np.asarray(self._epoch, dtype=np.int64),
        }

    def restore_index(self, probes, state) -> "Lemp":
        """Rebuild the index from :meth:`index_state` arrays without refitting.

        Bucket epochs (when present in ``state``) are restored too, so
        fingerprints — and with them any persisted tuning-cache entries —
        keep matching after the reload.
        """
        self.store = VectorStore.from_state(state["ids"], state["lengths"], state["directions"])
        bounds = np.asarray(state["bounds"], dtype=np.intp)
        if "bucket_epochs" in state:
            epochs = np.asarray(state["bucket_epochs"], dtype=np.int64)
        else:
            epochs = np.zeros(max(bounds.size - 1, 0), dtype=np.int64)
        self.buckets = [
            Bucket(self.store, int(start), int(end), index, epoch=int(epochs[index]))
            for index, (start, end) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        self._epoch = int(state["epoch"]) if "epoch" in state else int(epochs.max(initial=0))
        self.tuning_cache.clear()
        self._fitted = True
        return self

    def _check_rank(self, prepared: PreparedQueries) -> None:
        if prepared.rank != self.store.rank:
            raise DimensionMismatchError(
                "query and probe matrices must have the same rank: "
                f"{prepared.rank} != {self.store.rank}"
            )

    # -------------------------------------------------------------- selectors

    def _coordinate_retriever(self, problem: str):
        if self.algorithm in {"C", "LC"}:
            return CoordRetriever()
        if self.algorithm in {"I", "LI"}:
            return IncrRetriever()
        if self.algorithm == "TA":
            return TABucketRetriever()
        if self.algorithm == "TREE":
            return TreeBucketRetriever()
        if self.algorithm == "L2AP":
            return L2APBucketRetriever(
                use_index_reduction=(problem == "above_theta"), cache=self.tuning_cache,
            )
        if self.algorithm == "BLSH":
            return BlshBucketRetriever(seed=self.seed, cache=self.tuning_cache)
        return None

    def _invalidate_threshold_dependent_indexes(self) -> None:
        """Drop per-bucket indexes whose content depends on the threshold.

        Only needed with the tuning cache disabled, and only for L2AP: with
        the cache enabled the L2AP retriever guards reuse itself with the
        theta_b lower-bound rule, and the BLSH signature filter carries no
        threshold state at all (its minimum-match base is recomputed per
        call), so it is reusable unconditionally.
        """
        if self.tuning_cache.enabled:
            return
        if self.algorithm == "L2AP":
            for bucket in self.buckets:
                bucket.drop_index(L2AP_INDEX_KEY)

    def _tuning_key(self, problem: str, parameter: float) -> tuple:
        """Cache key of one tuning artifact: problem, parameter, sample seed.

        All other inputs of the tuner (bucket contents, phi grid, sample
        size) are either covered by the per-bucket fingerprints or constant
        for the lifetime of this retriever instance.
        """
        return (problem, float(parameter), self.seed)

    def _build_selector(
        self, queries: PreparedQueries, query_thetas, problem: str, parameter: float
    ):
        """Create the per-call selector, running the tuner only on buckets
        without a cached tuning entry for ``(problem, parameter, seed)``."""
        default_phi = self.phi if self.phi is not None else DEFAULT_PHI

        if self.algorithm == "L":
            return FixedSelector(LengthRetriever(), phi=default_phi)
        if self.algorithm in {"TA", "TREE", "L2AP", "BLSH"}:
            return FixedSelector(self._coordinate_retriever(problem), phi=default_phi)

        coordinate = self._coordinate_retriever(problem)
        if self.algorithm in {"C", "I"} and self.phi is not None:
            return FixedSelector(coordinate, phi=self.phi)

        # Tuned algorithms ("C", "I" with free phi; mixed "LC", "LI").
        use_cache = self.tuning_cache.enabled and queries.size > 0
        key = self._tuning_key(problem, parameter)
        if use_cache:
            cached, stale = self.tuning_cache.lookup(key, self.buckets)
            self.tuning_cache.record(hit=not stale)
        else:
            cached, stale = {}, self.buckets

        mixed = self.algorithm in {"LC", "LI"}
        length = LengthRetriever() if mixed else None
        tuning = None
        if stale:
            with Timer() as timer:
                if mixed:
                    tuning = tune_mixed(
                        stale,
                        queries,
                        query_thetas,
                        length,
                        coordinate,
                        phi_grid=self.phi_grid,
                        sample_size=self.tune_sample,
                        seed=self.seed,
                    )
                else:
                    tuning = tune_phi(
                        stale,
                        queries,
                        query_thetas,
                        coordinate,
                        phi_grid=self.phi_grid,
                        sample_size=self.tune_sample,
                        seed=self.seed,
                    )
            self.stats.tuning_seconds += timer.elapsed
            if use_cache:
                self.tuning_cache.store(key, stale, tuning)

        per_bucket_phi, switch_thresholds = combine_tuning(cached, tuning)
        if not mixed:
            return FixedSelector(coordinate, phi=DEFAULT_PHI, per_bucket_phi=per_bucket_phi)
        return PerBucketSelector(
            length,
            coordinate,
            switch_thresholds=switch_thresholds,
            per_bucket_phi=per_bucket_phi,
            default_phi=default_phi,
        )

    def layout(self) -> BucketLayout:
        """The buckets as a :class:`~repro.core.bucket.BucketLayout`, rebuilt after a write.

        Every write but a re-pack that keeps the cuts assigns a new bucket
        list; that re-pack moves the buckets in place and drops the layout.
        """
        layout = self._layout
        if layout is None or layout.buckets is not self.buckets:
            layout = self._layout = BucketLayout(self.buckets)
        return layout

    def worker_view(self) -> "Lemp":
        """A query-only view (:meth:`~repro.core.api.Retriever.worker_view`) sharing the layout.

        The layout is built on this retriever before it is copied, so views
        made one per chunk in a worker process, or one per thread, do not
        each rebuild it.

        Views are safe to query concurrently for every LEMP variant: lazy
        per-bucket index builds are deterministic and idempotent, and every
        candidate is verified with the deterministic kernel, so results do
        not depend on interleaving.  LEMP-BLSH's per-(query, bucket)
        minimum-match base is a pure function of the pair's own local
        threshold (see :mod:`repro.core.retrievers.blsh`), so its
        approximate results are order-free too.  Caveat for LEMP-L2AP: which
        view rebuilds a bucket's threshold-reduced index first depends on
        interleaving, so cold candidate counters (never results) can differ
        from a serial run until every index has ratcheted to the smallest
        base.
        """
        if self._fitted:
            self.layout()
        return super().worker_view()

    # --------------------------------------------------------------- problems

    def above_theta(self, queries, theta: float) -> AboveThetaResult:
        """Solve the Above-θ problem (Problem 1) for the given query matrix."""
        self._require_fitted()
        require_positive(theta, "theta")
        with Timer() as preprocess_timer:
            prepared = PreparedQueries(queries)
        self.stats.preprocessing_seconds += preprocess_timer.elapsed
        self._check_rank(prepared)

        self._invalidate_threshold_dependent_indexes()
        query_thetas = np.full(prepared.size, float(theta))
        selector = self._build_selector(
            prepared, query_thetas, problem="above_theta", parameter=float(theta)
        )

        with Timer() as timer:
            query_ids, probe_ids, scores = solve_above_theta(
                prepared, self.layout(), float(theta), selector, self.stats,
            )
        self.stats.retrieval_seconds += timer.elapsed
        self.stats.num_queries += prepared.size
        self.stats.results += int(query_ids.size)
        return AboveThetaResult(query_ids, probe_ids, scores, float(theta))

    def row_top_k(self, queries, k: int) -> TopKResult:
        """Solve the Row-Top-k problem (Problem 2) for the given query matrix."""
        self._require_fitted()
        require_positive_int(k, "k")
        with Timer() as preprocess_timer:
            prepared = PreparedQueries(queries)
        self.stats.preprocessing_seconds += preprocess_timer.elapsed
        self._check_rank(prepared)

        self._invalidate_threshold_dependent_indexes()
        layout = self.layout()
        # Each query's θ′, fixed for the call: the tuner's surrogate threshold too.
        seeds = seed_thresholds(prepared, layout, k)
        selector = self._build_selector(prepared, seeds, problem="row_top_k", parameter=float(k))

        with Timer() as timer:
            indices, scores = solve_row_top_k(prepared, layout, k, seeds, selector, self.stats)
        self.stats.retrieval_seconds += timer.elapsed
        self.stats.num_queries += prepared.size
        self.stats.results += int(np.sum(indices >= 0))
        return TopKResult(indices, scores, k)

    def column_top_k(self, queries, k: int) -> TopKResult:
        """Top-k *queries* for every probe (the paper's column-wise variant).

        The paper notes that the top-k entries of each column of ``Q Pᵀ`` are
        obtained by swapping the roles of the two matrices.  This convenience
        method builds the swapped retriever on the fly; for repeated use,
        construct ``Lemp().fit(queries)`` once and call :meth:`row_top_k`.
        """
        self._require_fitted()
        queries = as_float_matrix(queries, "queries")
        swapped = Lemp(
            algorithm=self.algorithm,
            min_bucket_size=self.min_bucket_size,
            max_bucket_size=self.max_bucket_size,
            length_ratio=self.length_ratio,
            cache_kib=self.cache_kib,
            phi=self.phi,
            tune_sample=self.tune_sample,
            phi_grid=self.phi_grid,
            seed=self.seed,
            tune_cache=self.tuning_cache.enabled,
        ).fit(queries)
        store = self.store
        live = store.live_positions()
        probes = (store.directions[live] * store.lengths[live, None])[np.argsort(store.ids[live])]
        result = swapped.row_top_k(probes, k)
        self.stats.merge(swapped.stats)
        return result
