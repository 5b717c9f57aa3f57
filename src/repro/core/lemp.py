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
from repro.core.bucket import Bucket
from repro.core.bucketize import DEFAULT_CACHE_KIB, bucketize, greedy_boundaries
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
from repro.core.bucket import gen_lists_key
from repro.core.retrievers.blsh import INDEX_KEY as BLSH_INDEX_KEY
from repro.core.retrievers.l2ap import INDEX_KEY as L2AP_INDEX_KEY
from repro.core.retrievers.l2ap import gen_index_key as l2ap_gen_index_key
from repro.core.screening import (
    SCREEN_DTYPES,
    ScreenTier,
    validate_gen_dtype,
    validate_screen_dtype,
)
from repro.core.selector import DEFAULT_PHI, FixedSelector, PerBucketSelector
from repro.core.top_k import solve_row_top_k
from repro.core.tuner import (
    DEFAULT_PHI_GRID,
    DEFAULT_SAMPLE_SIZE,
    combine_tuning,
    tune_mixed,
    tune_phi,
)
from repro.core.tuning_cache import TuningCache
from repro.core.vector_store import PreparedQueries, VectorStore
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

#: Number of longest probes scored exactly to seed the Row-Top-k tuner.
_TOPK_TUNING_SEED_PROBES = 200


@register_retriever(
    "lemp", variant_kw="algorithm", variants=ALGORITHMS, default_variant="LI",
    suffix_kw="screen_dtype", suffixes=("f32", "f16", "int8"),
)
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
    screen_dtype:
        Optional quantized screening tier (``"f32"``, ``"f16"``, or
        ``"int8"``; also available as a spec suffix, e.g. ``"lemp:LI/f16"``).
        Candidates are pre-filtered with compressed dot products against a
        conservatively widened threshold before exact verification, so
        results stay byte-identical to ``screen_dtype=None`` while the hot
        loop reads 2–8x fewer bytes per screened-out candidate (see
        :mod:`repro.core.screening`).  The attribute is plain and may be
        reassigned between calls — the tier is built lazily on first use and
        kept in sync by ``partial_fit`` / ``remove``.
    gen_dtype:
        Optional compressed *candidate generation* tier (``"f32"``, ``"f16"``
        or ``"int8"``).  The coordinate-based index scans (sorted lists / CP
        arrays for COORD, INCR, TA; the L2AP inverted lists; the BLSH
        signature build) run over a quantized copy of the probe directions
        with every feasible region and pruning bound *widened* by the tier's
        per-row error bound, so generation can only over-produce — never drop
        — a candidate the exact scan would surface, and exact f64
        verification keeps results byte-identical to ``gen_dtype=None``.
        The compressed lists are 2–2.7x smaller than the f64 ones
        (``int32`` ids plus storage-dtype values).  When it equals
        ``screen_dtype`` the two features share one quantized tier.  Like
        ``screen_dtype`` the attribute is plain and may be reassigned between
        calls; compressed indexes are cached per dtype alongside the exact
        ones.  TREE ignores the knob (the cover tree prunes with exact
        geometry); LENGTH needs no directions at all.
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
        screen_dtype: str | None = None,
        gen_dtype: str | None = None,
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
        self.screen_dtype = validate_screen_dtype(screen_dtype)
        self.gen_dtype = validate_gen_dtype(gen_dtype)
        self.name = f"LEMP-{algorithm}"
        self.store: VectorStore | None = None
        self.buckets: list = []
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

    @property
    def supports_parallel_queries(self) -> bool:
        """Whether the engine may shard queries across concurrent worker views.

        ``True`` for every LEMP variant.  For the exact algorithms candidate
        generation only reads shared state (lazy per-bucket index builds are
        deterministic and idempotent; the L2AP lower-bound rule keeps
        concurrently rebuilt indexes exact), and every candidate is verified
        with the deterministic kernel, so results are bit-identical to
        serial execution regardless of interleaving.  The approximate
        LEMP-BLSH qualifies too: its per-(query, bucket) minimum-match base
        is a pure function of the pair's own local threshold (see
        :mod:`repro.core.retrievers.blsh`), so its — approximate — results
        are the same for any query processing order.  (Before the base was
        order-free, BLSH *ratcheted* a shared per-bucket base down in
        processing order and was excluded from parallel queries.)

        Caveat for LEMP-L2AP: on a *cold* parallel call the order in which
        worker views rebuild a bucket's threshold-reduced index is
        interleaving-dependent, so candidate-count statistics (never the
        results) can differ from a serial run until every index has
        ratcheted to the smallest base; warm calls are fully
        deterministic.
        """
        return True

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
            "screen_dtype": self.screen_dtype,
            "gen_dtype": self.gen_dtype,
        }

    # -------------------------------------------------- incremental maintenance

    def _bucket_bounds(self) -> np.ndarray:
        bounds = [bucket.start for bucket in self.buckets]
        bounds.append(self.buckets[-1].end if self.buckets else 0)
        return np.asarray(bounds, dtype=np.intp)

    def _preserved_spans(self, bounds: np.ndarray, kept: np.ndarray,
                         shift: np.ndarray) -> dict[tuple[int, int], Bucket]:
        """Map each kept old bucket's ``(start, end)`` in the updated store to it."""
        return {
            (int(bounds[i] + shift[i]), int(bounds[i + 1] + shift[i])): self.buckets[i]
            for i in np.flatnonzero(kept)
        }

    def _rebucketize(self, preserved: dict[tuple[int, int], Bucket]) -> None:
        """Re-run the greedy boundary scan, reusing unchanged buckets.

        ``preserved`` maps a ``(start, end)`` span in the *updated* store to
        the old :class:`Bucket` whose content occupies exactly that span.
        Wherever the fresh boundaries reproduce such a span, the old bucket —
        with its cached sorted lists / CP arrays / trees and its tuning-cache
        epoch — is kept; only buckets whose content actually changed are
        rebuilt, at the current (just bumped) epoch, which no tuning entry
        can match.  Because the boundary scan is the same one :meth:`fit`
        runs, the resulting layout (and therefore every query result, bit
        for bit) matches a fresh fit on the updated probe matrix.  One
        boundary shift moves every later cut under the size cap, so on
        large indexes most buckets are rebuilt and re-tuned.
        """
        boundaries = greedy_boundaries(
            self.store.lengths,
            self.store.rank,
            min_bucket_size=self.min_bucket_size,
            max_bucket_size=self.max_bucket_size,
            length_ratio=self.length_ratio,
            cache_kib=self.cache_kib,
        )
        buckets: list[Bucket] = []
        kept: list[Bucket] = []
        for index, (start, end) in enumerate(zip(boundaries[:-1], boundaries[1:])):
            bucket = preserved.get((start, end))
            if bucket is not None:
                if bucket.index != index:
                    # BLSH signatures are seeded per bucket ordinal; drop them
                    # when the ordinal shifts so a later build matches a
                    # fresh fit on the updated matrix.
                    bucket.drop_index(BLSH_INDEX_KEY)
                bucket.start, bucket.end, bucket.index = start, end, index
                kept.append(bucket)
                buckets.append(bucket)
            else:
                buckets.append(Bucket(self.store, start, end, index, epoch=self._epoch))
        self.buckets = buckets
        if self.tuning_cache.num_keys:
            self.tuning_cache.prune({bucket.fingerprint() for bucket in kept})

    def partial_fit(self, new_probes) -> "Lemp":
        """Insert new probe rows into the fitted index.

        Each new probe is merged into the length-sorted store (an O(n + m)
        sorted merge, not a re-sort), the greedy bucket boundaries are
        recomputed over the merged lengths, and every bucket that received no
        insertion keeps its cached per-bucket indexes.  The new rows get ids
        ``size, size + 1, ...`` and the index becomes indistinguishable from a
        fresh :meth:`fit` on the concatenated probe matrix — query results
        match bit for bit.
        """
        if not self._fitted:
            return self.fit(new_probes)
        self._epoch += 1
        with Timer() as timer:
            positions = self.store.merge(new_probes)
            # A bucket's content stays contiguous iff no insertion fell
            # strictly inside it (an insert at position start lands just
            # before the bucket; one at end lands just after it): count the
            # inserts at or before each bucket's first and last position.
            bounds = self._bucket_bounds()
            before, inside = np.searchsorted(
                positions, np.stack((bounds[:-1], bounds[1:] - 1)), side="right"
            )
            self._rebucketize(self._preserved_spans(bounds, before == inside, before))
        self.stats.preprocessing_seconds += timer.elapsed
        return self

    def remove(self, probe_ids) -> "Lemp":
        """Remove probe rows by original id from the fitted index.

        Surviving probes are renumbered to consecutive ids in original row
        order, the greedy boundaries are recomputed, and buckets that lost no
        probes keep their cached indexes — again matching a fresh :meth:`fit`
        on the reduced probe matrix bit for bit.
        """
        self._require_fitted()
        probe_ids = validate_probe_ids(probe_ids, self.store.size)
        if probe_ids.size == 0:
            return self
        self._epoch += 1
        with Timer() as timer:
            positions = np.nonzero(np.isin(self.store.ids, probe_ids))[0]
            # Removals before each bound; a bucket with none inside survives.
            bounds = self._bucket_bounds()
            removed = np.searchsorted(positions, bounds, side="left")
            preserved = self._preserved_spans(bounds, removed[:-1] == removed[1:], -removed[:-1])
            self.store.delete(positions)
            self._rebucketize(preserved)
        self.stats.preprocessing_seconds += timer.elapsed
        return self

    # ------------------------------------------------------------- persistence

    def index_state(self) -> dict[str, np.ndarray]:
        """Export the fitted length-sorted store, bucket boundaries and epochs.

        With an active ``screen_dtype`` the compressed screening tier is
        exported too (building it now if no query has forced it yet), so a
        reloaded — or memory-mapped — index screens without re-quantizing.
        An active ``gen_dtype`` likewise exports its tier under ``gen_*``
        keys — unless it equals ``screen_dtype``, in which case the one
        shared tier travels once under the ``screen_*`` keys.
        """
        self._require_fitted()
        state = {
            "ids": self.store.ids,
            "lengths": self.store.lengths,
            "directions": self.store.directions,
            "bounds": self._bucket_bounds(),
            "bucket_epochs": np.asarray([bucket.epoch for bucket in self.buckets],
                                        dtype=np.int64),
            "epoch": np.asarray(self._epoch, dtype=np.int64),
        }
        if self.screen_dtype is not None:
            state.update(self.store.screen_tier(self.screen_dtype).state_arrays())
        if self.gen_dtype is not None and self.gen_dtype != self.screen_dtype:
            gen_arrays = self.store.screen_tier(self.gen_dtype).state_arrays()
            state.update({
                "gen_" + key[len("screen_"):]: value
                for key, value in gen_arrays.items()
            })
        return state

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
        if self.screen_dtype is not None and "screen_data" in state:
            # Validated restore: a corrupt tier raises ScreeningError here,
            # at load time, instead of producing NaN bounds at query time.
            # (A format-3 index has no tier arrays; the tier is then simply
            # rebuilt lazily on first screened query.)
            self.store.set_screen_tier(ScreenTier.from_state(
                self.screen_dtype,
                state["screen_data"],
                state.get("screen_scale"),
                state.get("screen_offset"),
                expected_shape=self.store.directions.shape,
            ))
        if self.gen_dtype is not None and "gen_data" in state:
            # gen_dtype == screen_dtype shares the tier restored above; a
            # distinct gen tier travels under the gen_* keys (format >= 5).
            # Pre-format-5 indexes simply rebuild the tier lazily.
            self.store.set_screen_tier(ScreenTier.from_state(
                self.gen_dtype,
                state["gen_data"],
                state.get("gen_scale"),
                state.get("gen_offset"),
                expected_shape=self.store.directions.shape,
            ))
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
        gen = self._gen_tier()
        if self.algorithm in {"C", "LC"}:
            return CoordRetriever(gen=gen)
        if self.algorithm in {"I", "LI"}:
            return IncrRetriever(gen=gen)
        if self.algorithm == "TA":
            return TABucketRetriever(gen=gen)
        if self.algorithm == "TREE":
            # The cover tree prunes with exact geometry; gen_dtype is a no-op.
            return TreeBucketRetriever()
        if self.algorithm == "L2AP":
            return L2APBucketRetriever(
                use_index_reduction=(problem == "above_theta"), cache=self.tuning_cache,
                gen=gen,
            )
        if self.algorithm == "BLSH":
            return BlshBucketRetriever(seed=self.seed, cache=self.tuning_cache, gen=gen)
        return None

    def _invalidate_threshold_dependent_indexes(self) -> None:
        """Drop per-bucket indexes whose content depends on the threshold.

        Only needed with the tuning cache disabled, and only for L2AP: with
        the cache enabled the L2AP retriever guards reuse itself with the
        theta_b lower-bound rule, and the BLSH signature filter carries no
        threshold state at all (its minimum-match base is recomputed per
        call), so it is reusable unconditionally.  Exact and compressed L2AP
        indexes are cached under distinct keys; all flavours are dropped.
        """
        if self.tuning_cache.enabled:
            return
        if self.algorithm == "L2AP":
            for bucket in self.buckets:
                bucket.drop_index(L2AP_INDEX_KEY)
                for dtype_name in SCREEN_DTYPES:
                    bucket.drop_index(l2ap_gen_index_key(dtype_name))

    def _tuning_key(self, problem: str, parameter: float) -> tuple:
        """Cache key of one tuning artifact: problem, parameter, sample seed.

        All other inputs of the tuner (bucket contents, phi grid, sample
        size) are either covered by the per-bucket fingerprints or constant
        for the lifetime of this retriever instance.  ``gen_dtype`` is
        deliberately *excluded*: compressed generation only inflates
        candidate sets marginally, so tuning artifacts remain valid — and a
        warm engine toggling ``gen_dtype`` keeps its tuned φ / switch points,
        which keeps counter comparisons across the toggle meaningful.
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

    def _screen_tier(self) -> ScreenTier | None:
        """The active screening tier, or ``None`` when screening is off.

        The first call after a (re)fit builds the compressed copy; the build
        is timed into ``preprocessing_seconds`` (it is index preparation, not
        retrieval).  The tier lives on the :class:`VectorStore`, so engine
        worker views — which share the store — share one tier, and incremental
        updates patch it in place.
        """
        if self.screen_dtype is None:
            return None
        with Timer() as timer:
            tier = self.store.screen_tier(self.screen_dtype)
        self.stats.preprocessing_seconds += timer.elapsed
        return tier

    def _gen_tier(self) -> ScreenTier | None:
        """The active candidate-generation tier, or ``None`` when off.

        Same lifecycle as :meth:`_screen_tier`: built lazily on the store
        (timed into ``preprocessing_seconds``), shared across worker views,
        and patched in place by ``partial_fit`` / ``remove``.  When
        ``gen_dtype == screen_dtype`` both features read one tier.
        """
        if self.gen_dtype is None:
            return None
        with Timer() as timer:
            tier = self.store.screen_tier(self.gen_dtype)
        self.stats.preprocessing_seconds += timer.elapsed
        return tier

    def generation_memory_bytes(self) -> int:
        """Resident bytes of the built candidate-generation index structures.

        Sums, over all buckets, the structures the *current* ``gen_dtype``
        mode would scan: the exact sorted lists / L2AP inverted index when
        ``gen_dtype`` is ``None``, the compressed flavours otherwise (plus
        the BLSH signature filter, whose content is mode-independent).  Only
        structures already built are counted — call after a warm-up probe for
        a meaningful comparison across modes.
        """
        total = 0
        for bucket in self.buckets:
            if self.gen_dtype is None:
                lists = bucket.sorted_lists() if bucket.sorted_lists_built else None
                l2ap = bucket.peek_index(L2AP_INDEX_KEY)
            else:
                lists = bucket.peek_index(gen_lists_key(self.gen_dtype))
                l2ap = bucket.peek_index(l2ap_gen_index_key(self.gen_dtype))
            blsh = bucket.peek_index(BLSH_INDEX_KEY)
            for structure in (lists, l2ap, blsh):
                if structure is not None:
                    total += structure.memory_bytes()
        return int(total)

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

        screen = self._screen_tier()
        with Timer() as timer:
            query_ids, probe_ids, scores = solve_above_theta(
                prepared, self.buckets, float(theta), selector, self.stats,
                screen=screen,
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
        query_thetas = self._surrogate_topk_thresholds(prepared, k)
        selector = self._build_selector(
            prepared, query_thetas, problem="row_top_k", parameter=float(k)
        )

        screen = self._screen_tier()
        with Timer() as timer:
            indices, scores = solve_row_top_k(
                prepared, self.buckets, k, selector, self.stats, screen=screen
            )
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
            screen_dtype=self.screen_dtype,
            gen_dtype=self.gen_dtype,
        ).fit(queries)
        probes = self.store.vectors()[np.argsort(self.store.ids)]
        result = swapped.row_top_k(probes, k)
        self.stats.merge(swapped.stats)
        return result

    def _surrogate_topk_thresholds(self, prepared: PreparedQueries, k: int) -> np.ndarray:
        """Estimate per-query top-k thresholds for the tuner.

        The k-th largest score against the longest few hundred probes is a
        lower bound on (and usually close to) the final θ′ of each query, so
        tuning against it reflects the local thresholds the solver will see.
        """
        if prepared.size == 0 or self.store is None or self.store.size == 0:
            return np.zeros(prepared.size)
        seed_count = min(self.store.size, max(_TOPK_TUNING_SEED_PROBES, k))
        seed_vectors = self.store.vectors(0, seed_count)
        scores = prepared.directions @ seed_vectors.T
        effective_k = min(k, seed_count)
        partition = np.partition(-scores, effective_k - 1, axis=1)
        return -partition[:, effective_k - 1]
