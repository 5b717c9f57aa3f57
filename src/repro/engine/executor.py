"""Plan execution: run an :class:`~repro.engine.planner.ExecutionPlan`.

:func:`run_plan` is the only piece of the engine that touches thread
or process pools.  It takes a plan as read-only instructions and keeps the
byte-identical-to-serial contract the planner promises:

* **Warm-up first.**  On the thread backend with ``plan.workers > 1`` the
  first chunk runs on the engine's own retriever before anything is
  dispatched, so the sample-based tuner runs — and the shared
  :class:`~repro.core.tuning_cache.TuningCache` is populated — exactly once.
* **Chunk fan-out.**  Remaining chunks run on per-chunk
  :meth:`~repro.core.api.Retriever.worker_view` clones submitted to the
  engine's thread pool (or, on the process backend, every chunk runs on the
  attached :class:`~repro.serve.WorkerPool`) with a bounded prefetch window,
  and are yielded strictly in submission (= query) order.
* **Plan-order merge.**  Worker statistics are merged into the engine
  retriever's :class:`~repro.core.stats.RunStats` in batch order, never in
  completion order, so cumulative counters — and float timing sums — equal a
  serial run's exactly.

The executor never reads timings to make decisions: execution is a
deterministic replay of the plan it was handed.  It is a plain function of
the engine, so an engine holds no reference back to itself through it and
is freed as soon as its last reference goes.
"""

from __future__ import annotations

from collections import deque

from repro.engine.planner import BACKEND_PROCESSES, ExecutionPlan
from repro.exceptions import UnsupportedOperationError


def run_plan(engine, plan: ExecutionPlan, queries, solve):
    """Yield ``(row_offset, result)`` per chunk of ``plan`` on ``engine``, in query order.

    ``solve(retriever, block)`` runs one chunk; the executor decides
    which retriever object (engine's own or a worker view) each chunk
    gets.  Plans on the process backend ignore ``solve`` entirely —
    chunks are shipped to the engine's attached
    :class:`~repro.serve.WorkerPool`, which runs the equivalent serial
    solve in a worker process against its own mapping of the same index
    (see :func:`_run_processes`).
    """
    retriever = engine.retriever
    batches = [(start, queries[start:end]) for start, end in plan.chunks]
    if plan.backend == BACKEND_PROCESSES:
        yield from _run_processes(engine, plan, batches)
        return

    if plan.workers <= 1:
        for start, block in batches:
            yield start, solve(retriever, block)
        return

    first_start, first_block = batches[0]
    yield first_start, solve(retriever, first_block)
    views = [retriever.worker_view() for _ in batches[1:]]
    # The pool is sized by the configured worker count so it survives
    # calls with fewer batches; it bounds the concurrency, and the
    # in-flight window below bounds the prefetch depth.
    pool = engine._executor(engine.workers)
    window = 2 * plan.workers
    pending: deque = deque()
    next_batch = 1
    try:
        while pending or next_batch < len(batches):
            while next_batch < len(batches) and len(pending) < window:
                start, block = batches[next_batch]
                view = views[next_batch - 1]
                pending.append((start, pool.submit(solve, view, block)))
                next_batch += 1
            start, future = pending.popleft()
            yield start, future.result()
    finally:
        # If the consumer abandoned the iterator (or a chunk raised),
        # settle the in-flight futures before merging worker stats:
        # queued ones are cancelled, running ones are waited out.
        for _, future in pending:
            future.cancel()
            if not future.cancelled():
                try:
                    future.result()
                except Exception:  # noqa: S110 - chunk error already surfaced
                    pass
        # Deterministic roll-up: batch order, not completion order, so
        # counter totals (and float timing sums) are reproducible.
        for view in views:
            retriever.stats.merge(view.stats)


def _run_processes(engine, plan: ExecutionPlan, batches):
    """Chunk fan-out over the engine's attached worker-process pool.

    Every chunk (including the first — there is no warm-up on this
    backend; workers arrive with the index's persisted tuning cache
    already loaded) is submitted to the pool with the same bounded
    in-flight window as the thread path.  Workers return
    ``(result, stats)`` pairs; results are yielded strictly in batch
    order and stats are merged into the parent retriever in batch
    order, preserving the plan-order merge contract across the process
    boundary.
    """
    pool = engine.worker_pool
    if pool is None:
        raise UnsupportedOperationError(
            "plan requests the process backend but the engine has no "
            "attached worker pool; call engine.use_worker_pool(pool) first"
        )
    retriever = engine.retriever
    window = 2 * plan.workers
    pending: deque = deque()
    collected: list = []
    next_batch = 0
    try:
        while pending or next_batch < len(batches):
            while next_batch < len(batches) and len(pending) < window:
                start, block = batches[next_batch]
                pending.append(
                    (start, pool.submit(plan.problem, plan.parameter, block))
                )
                next_batch += 1
            start, future = pending.popleft()
            result, stats = future.result()
            collected.append(stats)
            yield start, result
    finally:
        for _, future in pending:
            future.cancel()
            if not future.cancelled():
                try:
                    future.result()
                except Exception:  # noqa: S110 - worker error already surfaced
                    pass
        for stats in collected:
            retriever.stats.merge(stats)
