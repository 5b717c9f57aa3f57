"""Batched-query facade over any :class:`~repro.core.api.Retriever`.

:class:`RetrievalEngine` is the serving-oriented entry point of the library.
It owns a retriever (built from a spec string or passed in), normalises the
probe matrix once at :meth:`fit` (keeping a copy only for retrievers that
cannot export their index state), and executes query workloads in bounded
chunks so a million-row query matrix never materialises one giant candidate
set.  Every call is recorded as an :class:`EngineCall` for monitoring, and
the fitted index can be written to / restored from disk (see
:mod:`repro.engine.persistence`).

Three equivalent calling styles::

    engine.row_top_k(queries, 10, batch_size=4096)       # merged result
    engine.query(queries).batch_size(4096).top_k(10)     # fluent builder
    for offset, part in engine.iter_row_top_k(queries, 10, 4096):
        ...                                              # streaming batches

How a call *runs* is decided by the engine's
:class:`~repro.engine.planner.ExecutionPlanner`: each call gets an explicit
:class:`~repro.engine.planner.ExecutionPlan` — chunks, backend, workers —
built from the call shape.  Chunks run one after another in the calling
thread, or, with a :class:`~repro.serve.WorkerPool` attached, on worker
processes; the pool stays bit-identical to serial execution (see
:mod:`repro.engine.executor` for the mechanics).
:meth:`RetrievalEngine.explain` returns the plan a call *would* use without
executing anything, and the executed call records the identical plan on its
:class:`EngineCall`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import AboveThetaResult, TopKResult
from repro.engine.executor import run_plan
from repro.engine.planner import (
    BACKEND_PROCESSES,
    BACKEND_SERIAL,
    ExecutionPlan,
    ExecutionPlanner,
)
from repro.engine.registry import create_retriever, spec_for_instance
from repro.exceptions import InvalidParameterError, UnsupportedOperationError
from repro.utils.timer import Timer
from repro.utils.validation import as_float_matrix, require_positive, require_positive_int

#: Batch size used when the caller does not pick one.
DEFAULT_BATCH_SIZE = 8192

#: Default cap on the engine's per-call :attr:`RetrievalEngine.history`.
DEFAULT_HISTORY_LIMIT = 512


@dataclass
class EngineCall:
    """Record of one engine-level retrieval call (for monitoring/reporting).

    ``tuning_cache_hits`` / ``tuning_cache_misses`` count, for retrievers
    with a :class:`~repro.core.tuning_cache.TuningCache` (LEMP), how many of
    the call's batches reused cached tuning versus having to run the
    sample-based tuner.  A warm chunked call shows exactly one miss (the
    first batch tunes and populates the cache) and hits for every further
    batch; a fully warm repeat call shows only hits.

    ``plan`` is the full :class:`~repro.engine.planner.ExecutionPlan` the
    call executed — the same value :meth:`RetrievalEngine.explain` returns
    for the same call shape on the same engine state.  ``workers`` is a
    read-only view into the plan.
    """

    problem: str
    parameter: float
    num_queries: int
    num_batches: int
    seconds: float
    num_results: int
    #: The executed plan.
    plan: ExecutionPlan
    tuning_cache_hits: int = 0
    tuning_cache_misses: int = 0

    @property
    def workers(self) -> int:
        """Worker processes the call's chunks ran on (1 = serial)."""
        return self.plan.workers


class RetrievalEngine:
    """Facade wrapping a retriever with batching, stats, updates and persistence.

    Parameters
    ----------
    retriever:
        Either a spec string understood by
        :func:`repro.engine.registry.create_retriever` (``"lemp:LI"``,
        ``"naive"``, …) or an already-constructed retriever instance.
    history_limit:
        Cap on the per-call :attr:`history` list (default
        :data:`DEFAULT_HISTORY_LIMIT`; oldest records are evicted first),
        or ``None`` for unbounded growth; eviction bounds the memory a
        long-running serving process spends on per-call records.
    **kwargs:
        Constructor arguments forwarded when ``retriever`` is a spec string
        (ignored otherwise; passing them with an instance is an error).
    """

    def __init__(self, retriever,
                 history_limit: int | None = DEFAULT_HISTORY_LIMIT, **kwargs) -> None:
        """Build (from a spec string) or wrap (an instance) the retriever."""
        self.planner = ExecutionPlanner()
        if history_limit is not None:
            history_limit = require_positive_int(history_limit, "history_limit")
        self.history_limit = history_limit
        if isinstance(retriever, str):
            self.spec: str | None = retriever
            self._construct_kwargs = dict(kwargs)
            self.retriever = create_retriever(retriever, **kwargs)
        else:
            if kwargs:
                raise InvalidParameterError(
                    "constructor kwargs are only accepted together with a spec string"
                )
            self.retriever = retriever
            self.spec = spec_for_instance(retriever)
            params = getattr(retriever, "get_params", None)
            self._construct_kwargs = dict(params()) if callable(params) else {}
        self.history: list[EngineCall] = []
        self._probes: np.ndarray | None = None
        #: Attached :class:`~repro.serve.WorkerPool` (``None`` = serial).
        self.worker_pool = None

    # ------------------------------------------------------------- life cycle

    @property
    def stats(self):
        """The wrapped retriever's cumulative :class:`~repro.core.stats.RunStats`."""
        return self.retriever.stats

    @property
    def tuning_cache(self):
        """The retriever's :class:`~repro.core.tuning_cache.TuningCache`, or ``None``.

        ``None`` for retrievers without tuned state (naive, TA, trees, …).
        Use it to inspect cumulative hit/miss and index build/reuse counters;
        per-call deltas are recorded on each :class:`EngineCall` in
        :attr:`history`.
        """
        return getattr(self.retriever, "tuning_cache", None)

    def _tuning_counters(self) -> tuple[int, int]:
        """Current cumulative (hits, misses) of the retriever's tuning cache."""
        cache = self.tuning_cache
        if cache is None:
            return 0, 0
        return cache.hits, cache.misses

    @property
    def num_probes(self) -> int:
        """Number of probe rows currently indexed.

        Falls back to the retriever's own count when the engine keeps no
        probe matrix (see :meth:`fit`).
        """
        if self._probes is not None:
            return int(self._probes.shape[0])
        indexed = getattr(self.retriever, "num_probes", None)
        return int(indexed) if indexed is not None else 0

    @property
    def rank(self) -> int | None:
        """The factor rank queries must have, or ``None`` if not yet known."""
        store = getattr(self.retriever, "store", None)
        if store is not None:
            return int(store.rank)
        if self._probes is not None:
            return int(self._probes.shape[1])
        return None

    def _keeps_probes(self) -> bool:
        """Whether the engine needs its own copy of the probe matrix.

        Retrievers that export and restore their index state (LEMP) hold the
        probes already and are saved from that state; the engine keeps a
        copy only to save and reload the others (see
        :func:`~repro.engine.persistence.save_engine`).
        """
        from repro.engine.persistence import _overrides_restore

        return not _overrides_restore(self.retriever)

    def fit(self, probes) -> "RetrievalEngine":
        """Normalise the probe matrix once and index it."""
        probes = as_float_matrix(probes, "probes")
        self.retriever.fit(probes)
        self._probes = probes if self._keeps_probes() else None
        return self

    def partial_fit(self, new_probes) -> "RetrievalEngine":
        """Insert new probe rows into the fitted index (where supported)."""
        new_probes = as_float_matrix(new_probes, "new_probes")
        already_fitted = getattr(self.retriever, "_fitted", False) or self._probes is not None
        _require_method(self.retriever, "partial_fit")(new_probes)
        if self._probes is not None:
            self._probes = np.vstack([self._probes, new_probes])
        elif not already_fitted and self._keeps_probes():
            # partial_fit on a fresh retriever is a fit; when the retriever
            # was fitted outside the engine the full matrix is unknown and
            # _probes stays None (num_probes falls back to the retriever).
            self._probes = new_probes
        return self

    def remove(self, probe_ids) -> "RetrievalEngine":
        """Remove probe rows by original id (where supported); survivors are
        renumbered consecutively, as in a fresh fit on the reduced matrix."""
        probe_ids = np.unique(np.asarray(probe_ids, dtype=np.int64))
        _require_method(self.retriever, "remove")(probe_ids)
        if self._probes is not None:
            self._probes = np.delete(self._probes, probe_ids, axis=0)
        return self

    # ---------------------------------------------------------------- queries

    def query(self, queries) -> "QueryBuilder":
        """Start a fluent query: ``engine.query(q).batch_size(n).top_k(k)``."""
        return QueryBuilder(self, queries)

    # ------------------------------------------------------ planning/execution

    def _resolve_batch_size(self, batch_size: int | None) -> int:
        if batch_size is None:
            return DEFAULT_BATCH_SIZE
        return require_positive_int(batch_size, "batch_size")

    def _plan(self, problem: str, parameter: float, num_queries: int,
              batch_size: int | None) -> ExecutionPlan:
        """Build the call's :class:`~repro.engine.planner.ExecutionPlan`.

        With a :class:`~repro.serve.WorkerPool` attached
        (:meth:`use_worker_pool`), planning targets the process backend: the
        worker count is the pool size and the planner emits a
        ``backend="processes"`` plan the executor routes to the pool.
        """
        pool = self.worker_pool
        return self.planner.plan(
            problem=problem,
            parameter=float(parameter),
            num_queries=int(num_queries),
            batch_size=self._resolve_batch_size(batch_size),
            workers=1 if pool is None else pool.size,
            backend=BACKEND_SERIAL if pool is None else BACKEND_PROCESSES,
        )

    def use_worker_pool(self, pool) -> "RetrievalEngine":
        """Route subsequent calls through a process :class:`~repro.serve.WorkerPool`.

        While attached, every call is planned on the ``"processes"`` backend:
        chunks are executed by worker processes that each hold a read-only
        memory-mapping of the same persisted index, and results/stats are
        merged in plan order — byte-identical to running the call serially in
        this process.  Detach with :meth:`detach_worker_pool`; the engine
        does not own the pool's lifetime (call ``pool.shutdown()`` yourself).

        Raises :class:`~repro.exceptions.UnsupportedOperationError` when
        the retriever has no :meth:`~repro.core.api.Retriever.worker_view`
        (the clustered extension), since each worker solves on one.
        """
        if getattr(self.retriever, "worker_view", None) is None:
            raise UnsupportedOperationError(
                f"{type(self.retriever).__name__} has no worker_view(), so its "
                "calls cannot run on a worker process pool"
            )
        self.worker_pool = pool
        return self

    def detach_worker_pool(self) -> "RetrievalEngine":
        """Stop routing calls to a worker pool; back to in-process execution."""
        self.worker_pool = None
        return self

    def explain(self, queries, *, theta: float | None = None, k: int | None = None,
                batch_size: int | None = None) -> ExecutionPlan:
        """The plan the matching call would execute, without executing it.

        Exactly one of ``theta`` (Above-θ) or ``k`` (Row-Top-k) selects the
        problem; ``queries`` is the query matrix — or, as a convenience, a
        plain row count, since planning only reads the shape.  The returned
        plan compares equal (``==``) to the :attr:`EngineCall.plan` the real
        call records, provided the engine state (index, attached worker
        pool) is unchanged in between::

            plan = engine.explain(queries, k=10, batch_size=4096)
            print(plan.describe())
            engine.row_top_k(queries, 10, batch_size=4096)
            assert engine.history[-1].plan == plan
        """
        if (theta is None) == (k is None):
            raise InvalidParameterError(
                "explain() takes exactly one of theta= (Above-theta) or k= (Row-Top-k)"
            )
        if isinstance(queries, (int, np.integer)):
            num_queries = int(queries)
            if num_queries < 0:
                raise InvalidParameterError("a query row count must be non-negative")
        else:
            num_queries = int(as_float_matrix(queries, "queries").shape[0])
        if theta is not None:
            require_positive(theta, "theta")
            _require_method(self.retriever, "above_theta")
            return self._plan("above_theta", float(theta), num_queries, batch_size)
        require_positive_int(k, "k")
        _require_method(self.retriever, "row_top_k")
        return self._plan("row_top_k", float(k), num_queries, batch_size)

    def _iter_above(self, queries: np.ndarray, theta: float, plan: ExecutionPlan):
        def solve(retriever, block):
            return retriever.above_theta(block, theta)

        yield from run_plan(self, plan, queries, solve)

    def iter_above_theta(self, queries, theta: float, batch_size: int | None = None):
        """Yield ``(row_offset, AboveThetaResult)`` per query batch.

        Batch results carry batch-local query ids; add ``row_offset`` (or use
        :meth:`above_theta` for the pre-merged view) to map them back to rows
        of the full query matrix.

        Per-batch cost note: retrievers that tune per call (the mixed LEMP
        algorithms) run their sample-based tuner on the first batch and reuse
        the cached tuning for every further batch at the same parameters (see
        :mod:`repro.core.tuning_cache`), so small batch sizes no longer
        multiply the tuning overhead.  With the cache disabled
        (``tune_cache=False``) every batch tunes afresh.

        With a :class:`~repro.serve.WorkerPool` attached, upcoming batches
        are prefetched on the pool (a bounded window of
        ``2 * plan.workers``), so abandoning the iterator early may still
        have computed — and counted into the retriever's statistics — a few
        batches beyond the last one consumed.  Yield order remains strict
        query order either way.
        """
        queries = as_float_matrix(queries, "queries")
        require_positive(theta, "theta")
        _require_method(self.retriever, "above_theta")
        plan = self._plan("above_theta", float(theta), queries.shape[0], batch_size)
        yield from self._iter_above(queries, theta, plan)

    def above_theta(self, queries, theta: float,
                    batch_size: int | None = None) -> AboveThetaResult:
        """Solve Above-θ over the full query matrix in bounded batches."""
        queries = as_float_matrix(queries, "queries")
        require_positive(theta, "theta")
        _require_method(self.retriever, "above_theta")
        plan = self._plan("above_theta", float(theta), queries.shape[0], batch_size)
        offsets: list[int] = []
        parts: list[AboveThetaResult] = []
        hits_before, misses_before = self._tuning_counters()
        with Timer() as timer:
            for start, part in self._iter_above(queries, float(theta), plan):
                offsets.append(start)
                parts.append(part)
        merged = AboveThetaResult.concat(parts, float(theta), query_offsets=offsets)
        self._record(plan, len(parts), timer.elapsed, merged.num_results,
                     hits_before, misses_before)
        return merged

    def _iter_top_k(self, queries: np.ndarray, k: int, plan: ExecutionPlan):
        def solve(retriever, block):
            return retriever.row_top_k(block, k)

        yield from run_plan(self, plan, queries, solve)

    def iter_row_top_k(self, queries, k: int, batch_size: int | None = None):
        """Yield ``(row_offset, TopKResult)`` per query batch."""
        queries = as_float_matrix(queries, "queries")
        require_positive_int(k, "k")
        _require_method(self.retriever, "row_top_k")
        plan = self._plan("row_top_k", float(k), queries.shape[0], batch_size)
        yield from self._iter_top_k(queries, k, plan)

    def row_top_k(self, queries, k: int, batch_size: int | None = None) -> TopKResult:
        """Solve Row-Top-k over the full query matrix in bounded batches."""
        queries = as_float_matrix(queries, "queries")
        require_positive_int(k, "k")
        _require_method(self.retriever, "row_top_k")
        plan = self._plan("row_top_k", float(k), queries.shape[0], batch_size)
        parts: list[TopKResult] = []
        hits_before, misses_before = self._tuning_counters()
        with Timer() as timer:
            for _, part in self._iter_top_k(queries, int(k), plan):
                parts.append(part)
        merged = TopKResult.concat(parts, int(k))
        self._record(plan, len(parts), timer.elapsed, int(np.sum(merged.indices >= 0)),
                     hits_before, misses_before)
        return merged

    def _record(self, plan: ExecutionPlan, num_batches: int, seconds: float,
                num_results: int, hits_before: int = 0, misses_before: int = 0) -> None:
        hits_after, misses_after = self._tuning_counters()
        call = EngineCall(plan.problem, plan.parameter, plan.num_queries,
                          num_batches, seconds, num_results, plan,
                          tuning_cache_hits=hits_after - hits_before,
                          tuning_cache_misses=misses_after - misses_before)
        self.history.append(call)
        if self.history_limit is not None and len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Write the fitted index (arrays + JSON metadata) to a directory."""
        from repro.engine.persistence import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path, *, mmap_mode: str | None = None) -> "RetrievalEngine":
        """Restore an engine written by :meth:`save`.

        ``mmap_mode="r"`` memory-maps the index arrays read-only instead of
        copying them into the heap — N processes loading the same directory
        then share one set of physical pages (see
        :func:`repro.engine.persistence.load_engine`).
        """
        from repro.engine.persistence import load_engine

        return load_engine(path, mmap_mode=mmap_mode)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        """Debug representation with spec and index size."""
        spec = self.spec or type(self.retriever).__name__
        return f"RetrievalEngine(spec={spec!r}, num_probes={self.num_probes})"


class QueryBuilder:
    """Fluent builder for one query workload against an engine.

    Terminal methods: :meth:`top_k`, :meth:`above` (merged results),
    :meth:`top_k_batches`, :meth:`above_batches` (streaming per-batch), and
    :meth:`explain` (the plan, not executed).
    """

    def __init__(self, engine: RetrievalEngine, queries) -> None:
        """Bind the builder to an engine and a query matrix."""
        self._engine = engine
        self._queries = queries
        self._batch_size: int | None = None

    def batch_size(self, size: int) -> "QueryBuilder":
        """Set the chunk size used to split the query matrix."""
        self._batch_size = require_positive_int(size, "batch_size")
        return self

    def top_k(self, k: int) -> TopKResult:
        """Run Row-Top-k and return the merged result."""
        return self._engine.row_top_k(self._queries, k, batch_size=self._batch_size)

    def above(self, theta: float) -> AboveThetaResult:
        """Run Above-θ and return the merged result."""
        return self._engine.above_theta(self._queries, theta, batch_size=self._batch_size)

    def top_k_batches(self, k: int):
        """Yield ``(row_offset, TopKResult)`` per batch without merging."""
        return self._engine.iter_row_top_k(self._queries, k, self._batch_size)

    def above_batches(self, theta: float):
        """Yield ``(row_offset, AboveThetaResult)`` per batch without merging."""
        return self._engine.iter_above_theta(self._queries, theta, self._batch_size)

    def explain(self, *, theta: float | None = None, k: int | None = None) -> ExecutionPlan:
        """The plan the matching terminal would execute, without executing it.

        Exactly one of ``theta`` or ``k`` infers the problem, mirroring
        :meth:`RetrievalEngine.explain`; the builder's batch size applies.
        """
        return self._engine.explain(
            self._queries, theta=theta, k=k, batch_size=self._batch_size
        )


def _require_method(retriever, method: str):
    implementation = getattr(retriever, method, None)
    if implementation is None:
        raise UnsupportedOperationError(
            f"{type(retriever).__name__} does not implement {method}()"
        )
    return implementation
