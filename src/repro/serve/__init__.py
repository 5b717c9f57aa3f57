"""Serving front-end: micro-batching, admission control, process workers.

The :mod:`repro.serve` package turns the library's batch-oriented engine
into an online service without giving up its determinism contract:

* :class:`ServingEngine` — an asyncio facade admitting concurrent
  ``above_theta`` / ``row_top_k`` requests, coalescing compatible ones in
  a work-conserving micro-batcher, executing each micro-batch through the
  engine's planner/executor, and demultiplexing per-request results that
  are byte-identical to standalone calls.
* :class:`MicroBatcher` / :class:`BatchKey` — the coalescing mechanism:
  requests group by (problem, exact parameter) and flush on a row budget
  or as soon as the solver is idle, so they coalesce only while it is busy.
* :class:`EngineManager` — the multi-tenant layer above it: many named
  persisted indexes served at once with LRU row-budgeted residency
  (evict back to disk / reload on demand via the mmap path), per-tenant
  lifetime stats, and ``partial_fit`` / ``remove`` interleaved safely
  with in-flight queries on the same tenant.
* :class:`WorkerPool` — the planner's third execution backend: N worker
  processes each memory-mapping one read-only saved index
  (``load_engine(path, mmap_mode="r")``), attached to an engine with
  :meth:`~repro.engine.facade.RetrievalEngine.use_worker_pool`.
* :func:`serve_compatibility` — per-retriever feature report, also
  printed by ``repro explain``.

Typical composition — an asyncio server whose batches fan out over
processes sharing one index mapping::

    engine = RetrievalEngine.load(index_dir, mmap_mode="r")
    with WorkerPool(index_dir, workers=4) as pool:
        engine.use_worker_pool(pool)
        async with ServingEngine(engine) as serving:
            ...await serving.row_top_k(rows, 10)...
"""

from repro.exceptions import (
    RequestTimeoutError,
    ServiceOverloadedError,
    ServingError,
    UnknownTenantError,
)
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH_ROWS,
    BatchKey,
    FlushRecord,
    MicroBatcher,
    PendingRequest,
)
from repro.serve.engine import (
    DEFAULT_FLUSH_LOG_LIMIT,
    DEFAULT_MAX_PENDING_ROWS,
    ServingEngine,
    describe_serve_compatibility,
    serve_compatibility,
)
from repro.serve.manager import EngineManager
from repro.serve.workers import WorkerPool

__all__ = [
    "DEFAULT_FLUSH_LOG_LIMIT",
    "DEFAULT_MAX_BATCH_ROWS",
    "DEFAULT_MAX_PENDING_ROWS",
    "BatchKey",
    "EngineManager",
    "FlushRecord",
    "MicroBatcher",
    "PendingRequest",
    "RequestTimeoutError",
    "ServiceOverloadedError",
    "ServingEngine",
    "ServingError",
    "UnknownTenantError",
    "WorkerPool",
    "describe_serve_compatibility",
    "serve_compatibility",
]
