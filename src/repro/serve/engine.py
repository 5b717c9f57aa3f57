"""Asyncio serving front-end: admission, coalescing, demultiplexing.

:class:`ServingEngine` turns a :class:`~repro.engine.facade.RetrievalEngine`
into a concurrent service: any number of asyncio clients call
:meth:`~ServingEngine.above_theta` / :meth:`~ServingEngine.row_top_k`
concurrently, compatible requests are coalesced by the
:class:`~repro.serve.batcher.MicroBatcher` into one solver call per
micro-batch, and each caller receives exactly the rows it submitted.

Dispatch is work-conserving: a request that finds the solver idle is
solved in the event-loop turn that admitted it, and requests that arrive
while the solver is busy coalesce until it finishes a work item.  The
engine tracks that outstanding work — flushed batches and
:meth:`~ServingEngine.mutate` calls alike — from hand-off until each work
item is done, and flushes every pending group when one finishes.  There
is no delay setting: batches form exactly while load keeps the solver
busy.

The demultiplexing step is where LEMP's determinism contract pays off:

* **Row-Top-k** output is in original query-row order, so request ``i``'s
  result is the contiguous row slice ``[offset, offset + rows)`` of the
  merged result — a pure view, byte-identical to a standalone call.
* **Above-θ** output is bucket-major (outer loop over buckets, inner loop
  over the batch's length-sorted queries).  Because the length sort is
  *stable*, a request's rows keep their relative order inside any merged
  batch, so filtering the merged result by the request's query-id range
  (and shifting ids back to request-local rows) reproduces the standalone
  result byte for byte.

Integer work counters are per-(query, bucket) and therefore additive: the
merged batch's :class:`~repro.core.stats.RunStats` deltas equal the sum of
the per-request serial deltas exactly, as long as both sides run with the
same tuning decisions: a warm tuning cache, or the same tuned queries (the
tuner prices counted work, so its decisions are a pure function of the
tuned queries, their thresholds and the seed).

Concurrency model: all batching state lives on the event loop; the solver
runs on a dedicated single-thread executor, which serialises engine calls
(``RetrievalEngine`` is not safe for concurrent calls; a call's chunks
run in parallel only on an attached :class:`~repro.serve.WorkerPool`).
Admission control bounds the rows admitted but not yet answered; beyond
the bound, requests are shed with
:class:`~repro.exceptions.ServiceOverloadedError` before consuming any
solver time.  Per-request deadlines raise
:class:`~repro.exceptions.RequestTimeoutError` in the caller while the
batch itself runs to completion for its other members.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.core.results import AboveThetaResult, TopKResult
from repro.exceptions import (
    InvalidParameterError,
    RequestTimeoutError,
    ServiceOverloadedError,
    ServingError,
)
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH_ROWS,
    BatchKey,
    FlushRecord,
    MicroBatcher,
    PendingRequest,
)
from repro.utils.validation import (
    as_float_matrix,
    require_positive,
    require_positive_int,
)

#: Default admission bound: rows admitted (queued or solving) at once.
DEFAULT_MAX_PENDING_ROWS = 4096

#: Default cap on the :attr:`ServingEngine.flushes` observability log.
DEFAULT_FLUSH_LOG_LIMIT = 512


def _consume_exception(future: asyncio.Future) -> None:
    """Done-callback retrieving an abandoned future's exception, if any."""
    if not future.cancelled():
        future.exception()


class ServingEngine:
    """Concurrent asyncio facade over one :class:`~repro.engine.facade.RetrievalEngine`.

    Parameters
    ----------
    engine:
        The engine every micro-batch is solved on.  It may run each call's
        chunks on a process :class:`~repro.serve.WorkerPool` attached via
        :meth:`~repro.engine.facade.RetrievalEngine.use_worker_pool` —
        the serving layer only serialises the *calls*, not their insides.
    max_batch_rows:
        The micro-batcher's row budget: a group that reaches it flushes at
        once, even while the solver is busy (see :mod:`repro.serve.batcher`).
    max_pending_rows:
        Admission bound on rows admitted but not yet answered.  A request
        that would exceed it is shed with
        :class:`~repro.exceptions.ServiceOverloadedError` — except when
        nothing at all is in flight, so a single request larger than the
        bound degrades to a plain serial call instead of starving forever.
    default_timeout:
        Per-request deadline in seconds applied when a call does not pass
        its own ``timeout`` (``None`` = wait indefinitely).
    flush_log_limit:
        Cap on the :attr:`flushes` observability log (default
        :data:`DEFAULT_FLUSH_LOG_LIMIT`; oldest records are evicted
        first), or ``None`` for unbounded growth.  The traffic counters
        stay monotonic regardless — the limit only bounds the memory a
        long-running server spends on per-batch records, mirroring the
        engine layer's ``history_limit``.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose` explicitly)::

        async with ServingEngine(engine) as serving:
            results = await asyncio.gather(
                *(serving.row_top_k(rows, 10) for rows in workload)
            )
    """

    def __init__(self, engine, *,
                 max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS,
                 max_pending_rows: int = DEFAULT_MAX_PENDING_ROWS,
                 default_timeout: float | None = None,
                 flush_log_limit: int | None = DEFAULT_FLUSH_LOG_LIMIT) -> None:
        """Configure the front-end; no loop is touched until :meth:`start`."""
        self.engine = engine
        self.max_batch_rows = require_positive_int(max_batch_rows, "max_batch_rows")
        self.max_pending_rows = require_positive_int(max_pending_rows, "max_pending_rows")
        if default_timeout is not None:
            require_positive(default_timeout, "default_timeout")
        self.default_timeout = default_timeout
        if flush_log_limit is not None:
            flush_log_limit = require_positive_int(flush_log_limit, "flush_log_limit")
        self.flush_log_limit = flush_log_limit
        self._loop: asyncio.AbstractEventLoop | None = None
        self._batcher: MicroBatcher | None = None
        self._solver: ThreadPoolExecutor | None = None
        #: Solver work items handed off and not yet done: batch tasks and
        #: mutation futures.  Empty exactly when the solver is idle.
        self._work: set[asyncio.Future] = set()
        self._inflight_rows = 0
        self._closing = False
        #: Served-traffic counters (monotonic over the engine's lifetime).
        self.requests_admitted = 0
        self.requests_shed = 0
        self.requests_timed_out = 0
        self.rows_served = 0
        #: One :class:`~repro.serve.batcher.FlushRecord` per flushed batch.
        self.flushes: list[FlushRecord] = []

    # ------------------------------------------------------------- life cycle

    async def start(self) -> "ServingEngine":
        """Bind to the running event loop and start the solver thread."""
        if self._loop is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._solver = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-solver"
        )
        self._batcher = MicroBatcher(
            self._loop, self._on_flush, self._solver_idle,
            max_batch_rows=self.max_batch_rows,
        )
        return self

    async def aclose(self) -> None:
        """Drain pending groups, wait for in-flight work, stop the solver.

        The closing flag is raised *before* the first await: a request
        submitted while the drain loop runs is shed with
        :class:`~repro.exceptions.ServingError` instead of landing in a
        fresh group that no one would ever flush (its future would never
        resolve and its rows would leak from the admission budget).
        In-flight batches *and* mutations are awaited on the loop, so other
        coroutines keep running meanwhile and the final executor shutdown
        has nothing left to wait for.
        """
        if self._loop is None:
            return
        self._closing = True
        self._batcher.flush_all("drain")
        while self._work:
            await asyncio.gather(*list(self._work), return_exceptions=True)
        self._solver.shutdown(wait=True)
        self._loop = None
        self._batcher = None
        self._solver = None

    async def __aenter__(self) -> "ServingEngine":
        """Async context entry: :meth:`start`."""
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        """Async context exit: :meth:`aclose`."""
        await self.aclose()

    @property
    def pending_rows(self) -> int:
        """Rows admitted but not yet answered (queued + solving)."""
        return self._inflight_rows

    # --------------------------------------------------------------- requests

    async def above_theta(self, queries, theta: float, *,
                          timeout: float | None = None) -> AboveThetaResult:
        """Solve Above-θ for this caller's rows (coalesced behind the scenes)."""
        queries = as_float_matrix(queries, "queries")
        require_positive(theta, "theta")
        key = BatchKey("above_theta", float(theta))
        return await self._submit(key, queries, timeout)

    async def row_top_k(self, queries, k: int, *,
                        timeout: float | None = None) -> TopKResult:
        """Solve Row-Top-k for this caller's rows (coalesced behind the scenes)."""
        queries = as_float_matrix(queries, "queries")
        require_positive_int(k, "k")
        key = BatchKey("row_top_k", float(k))
        return await self._submit(key, queries, timeout)

    async def mutate(self, mutation, *args, **kwargs):
        """Run ``mutation(*args, **kwargs)`` on the solver thread; return its result.

        This is how index mutations (``engine.partial_fit`` /
        ``engine.remove``) interleave safely with in-flight queries: the
        solver executor is single-threaded and runs work items whole, in
        submission order, so the mutation executes *between* micro-batches —
        never inside one.  Every request therefore sees either the full
        pre-mutation or the full post-mutation index, and its result stays
        byte-identical to the same call on a quiesced engine in that state.

        The awaited return value is whatever ``mutation`` returns; its
        exceptions propagate to this caller only.  Mutations bypass row
        accounting and the micro-batcher, but they keep the solver busy:
        requests that arrive meanwhile coalesce and flush when it finishes.
        Cancelling the caller does not cancel a mutation once handed to the
        solver: it is still applied, and :meth:`aclose` waits for it.
        """
        if self._closing:
            raise ServingError(
                "ServingEngine is shutting down; mutation rejected"
            )
        if self._loop is None:
            raise InvalidParameterError(
                "ServingEngine is not started; use 'async with ServingEngine(...)' "
                "or call await serving.start() first"
            )
        work = self._loop.run_in_executor(
            self._solver, partial(mutation, *args, **kwargs)
        )
        self._hand_off(work)
        return await asyncio.shield(work)

    async def _submit(self, key: BatchKey, queries: np.ndarray,
                      timeout: float | None):
        """Admit, enqueue, await one request; demuxed result or typed error."""
        if self._closing:
            self.requests_shed += 1
            raise ServingError(
                "ServingEngine is shutting down; request shed (a request "
                "admitted during aclose() would never be flushed)"
            )
        if self._loop is None:
            raise InvalidParameterError(
                "ServingEngine is not started; use 'async with ServingEngine(...)' "
                "or call await serving.start() first"
            )
        rows = int(queries.shape[0])
        if self._inflight_rows > 0 and self._inflight_rows + rows > self.max_pending_rows:
            self.requests_shed += 1
            raise ServiceOverloadedError(
                f"request of {rows} rows shed: {self._inflight_rows} rows in "
                f"flight against a bound of {self.max_pending_rows}"
            )
        future = self._loop.create_future()
        request = PendingRequest(queries=queries, rows=rows, future=future)
        self._inflight_rows += rows
        self.requests_admitted += 1
        self._batcher.submit(key, request)
        if timeout is None:
            timeout = self.default_timeout
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except (TimeoutError, asyncio.TimeoutError):  # distinct before 3.11
            self.requests_timed_out += 1
            # The batch still runs for its other members, but this caller is
            # gone: mark the request abandoned so the demux neither resolves
            # its future nor counts its rows as served (a request must never
            # be counted both timed-out and served).  Its rows return to the
            # admission budget when the batch finishes.  The shield leaves
            # the inner future un-done, so an eventual solver error on it
            # must still be considered retrieved.
            request.abandoned = True
            future.add_done_callback(_consume_exception)
            raise RequestTimeoutError(
                f"request deadline of {timeout:g}s elapsed before its "
                "micro-batch was solved"
            ) from None

    # ------------------------------------------------------- batch execution

    def _solver_idle(self) -> bool:
        """Whether no solver work item is outstanding (the batcher's test)."""
        return not self._work

    def _hand_off(self, work: asyncio.Future) -> None:
        """Count ``work`` as outstanding solver work until it is done."""
        self._work.add(work)
        work.add_done_callback(self._work_done)

    def _work_done(self, work: asyncio.Future) -> None:
        """Release one work item and flush the groups that queued behind it.

        Flushing on every finished item, not only the last, bounds a
        group's wait: work handed off later (a key kept at its row budget)
        cannot keep it pending.  This runs as a done callback, so it also
        runs after :meth:`aclose` has dropped the batcher (the groups were
        drained there).
        """
        self._work.discard(work)
        if self._batcher is not None:
            self._batcher.flush_all("idle")

    def _on_flush(self, key: BatchKey, requests: list, reason: str,
                  opened: float) -> None:
        """Batcher callback: record the flush and hand the solve off."""
        record = FlushRecord(key, len(requests), sum(r.rows for r in requests), reason)
        self.flushes.append(record)
        if self.flush_log_limit is not None and len(self.flushes) > self.flush_log_limit:
            del self.flushes[: len(self.flushes) - self.flush_log_limit]
        self._hand_off(self._loop.create_task(
            self._run_group(key, requests, record, opened)
        ))

    def _release(self, request) -> None:
        """Return one request's rows to the admission budget, exactly once."""
        if not request.released:
            request.released = True
            self._inflight_rows -= request.rows

    async def _run_group(self, key: BatchKey, requests: list,
                         record: FlushRecord, opened: float) -> None:
        """Solve one flushed group off-loop, then demultiplex to the callers.

        A request's rows are released the moment its future resolves — the
        demux (or the error path here) releases before ``set_result`` /
        ``set_exception``, so a caller that immediately resubmits is never
        shed against rows that were already answered.  The ``finally``
        sweep only mops up requests whose futures never resolve (abandoned
        or cancelled callers) once their batch is finished.
        """
        try:
            merged = await self._loop.run_in_executor(
                self._solver, self._timed_solve, key, requests, record, opened
            )
        except Exception as error:  # noqa: BLE001 - forwarded to every caller
            for request in requests:
                if not request.future.done() and not request.abandoned:
                    self._release(request)
                    request.future.set_exception(error)
        else:
            self._demux(key, requests, merged)
        finally:
            for request in requests:
                self._release(request)

    def _timed_solve(self, key: BatchKey, requests: list,
                     record: FlushRecord, opened: float):
        """Solver-thread wrapper: time one solve into its flush record."""
        started = time.perf_counter()
        try:
            return self._solve_group(key, requests)
        finally:
            record.wait_s = started - opened
            record.solve_s = time.perf_counter() - started

    def _solve_group(self, key: BatchKey, requests: list):
        """Solver-thread body: one engine call over the stacked request rows."""
        if len(requests) == 1:
            stacked = requests[0].queries
        else:
            stacked = np.vstack([request.queries for request in requests])
        if key.problem == "above_theta":
            return self.engine.above_theta(stacked, key.parameter)
        return self.engine.row_top_k(stacked, int(key.parameter))

    def _demux(self, key: BatchKey, requests: list, merged) -> None:
        """Split the merged result back into per-request results.

        Row-Top-k demuxes by contiguous row slice; Above-θ by query-id range
        mask with ids shifted back to request-local rows.  Both reproduce
        the standalone per-request result byte for byte (see module
        docstring).  Callers that already gave up are skipped: cancelled
        futures, and requests whose deadline elapsed (``abandoned``) — a
        timed-out request is counted in ``requests_timed_out`` only, never
        in ``rows_served``.
        """
        offset = 0
        for request in requests:
            start, end = offset, offset + request.rows
            offset = end
            if request.future.done() or request.abandoned:
                continue
            if key.problem == "above_theta":
                inside = (merged.query_ids >= start) & (merged.query_ids < end)
                part = AboveThetaResult(
                    merged.query_ids[inside] - start,
                    merged.probe_ids[inside],
                    merged.scores[inside],
                    merged.theta,
                )
            else:
                part = TopKResult(
                    merged.indices[start:end], merged.scores[start:end], merged.k
                )
            self._release(request)
            self.rows_served += request.rows
            request.future.set_result(part)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        """Debug representation with batching knobs and traffic counters."""
        return (
            f"ServingEngine(max_batch_rows={self.max_batch_rows}, "
            f"admitted={self.requests_admitted}, "
            f"shed={self.requests_shed}, timed_out={self.requests_timed_out})"
        )


def serve_compatibility(engine) -> dict:
    """What the serving layer can do with this engine's retriever.

    Returns a JSON-able dict: the problems the retriever answers, whether
    micro-batching preserves byte-identity (always true for registered
    retrievers — per-row independence is a library-wide invariant), and
    whether the index can be persisted in the mmap layout the process
    backend (:class:`~repro.serve.WorkerPool`) requires.
    """
    from repro.engine.persistence import _overrides_restore

    retriever = engine.retriever
    problems = [
        problem for problem in ("above_theta", "row_top_k")
        if callable(getattr(retriever, problem, None))
    ]
    mmap_capable = hasattr(retriever, "index_state") and _overrides_restore(retriever)
    return {
        "spec": engine.spec,
        "problems": problems,
        "micro_batching": bool(problems),
        "mmap_index": mmap_capable,
        "process_backend": mmap_capable,
        # LEMP-L2AP's threshold-reduced bucket indexes keep the base of the
        # query that built them, so its candidate counters depend on call
        # history until every index has settled.
        "deterministic_counters": (
            "warm bucket indexes" if getattr(retriever, "algorithm", None) == "L2AP"
            else "always"
        ),
    }


def describe_serve_compatibility(engine) -> str:
    """Multi-line human rendering of :func:`serve_compatibility` (CLI)."""
    compat = serve_compatibility(engine)
    lines = [
        f"serving: {compat['spec']}",
        f"  problems         : {', '.join(compat['problems']) or 'none'}",
        f"  micro-batching   : {'yes (byte-identical demux)' if compat['micro_batching'] else 'no'}",
        f"  mmap index       : {'yes' if compat['mmap_index'] else 'no (refit on load)'}",
        f"  process backend  : {'yes' if compat['process_backend'] else 'no'}",
        f"  counters         : deterministic ({compat['deterministic_counters']})",
    ]
    return "\n".join(lines)
