"""Plan execution: run an :class:`~repro.engine.planner.ExecutionPlan`.

:func:`run_plan` is the only piece of the engine that touches the process
pool.  It takes a plan as read-only instructions and keeps the
byte-identical-to-serial contract the planner promises:

* **Serial chunks.**  On the serial backend every chunk runs on the
  engine's own retriever, one after another in query order.
* **Process fan-out.**  On the process backend every chunk runs on the
  attached :class:`~repro.serve.WorkerPool` with a bounded prefetch window,
  and results are yielded strictly in submission (= query) order.
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

    ``solve(retriever, block)`` runs one chunk on the engine's retriever.
    Plans on the process backend ignore ``solve`` entirely — chunks are
    shipped to the engine's attached :class:`~repro.serve.WorkerPool`,
    which runs the equivalent serial solve in a worker process against its
    own mapping of the same index (see :func:`_run_processes`).
    """
    retriever = engine.retriever
    batches = [(start, queries[start:end]) for start, end in plan.chunks]
    if plan.backend == BACKEND_PROCESSES:
        yield from _run_processes(engine, plan, batches)
        return
    for start, block in batches:
        yield start, solve(retriever, block)


def _run_processes(engine, plan: ExecutionPlan, batches):
    """Chunk fan-out over the engine's attached worker-process pool.

    Every chunk is submitted to the pool — workers arrive with the index's
    persisted tuning cache already loaded — with at most ``2 * plan.workers``
    chunks in flight.  Workers return ``(result, stats)`` pairs; results are
    yielded strictly in batch order and stats are merged into the parent
    retriever in batch order, preserving the plan-order merge contract
    across the process boundary.
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
        # If the consumer abandoned the iterator (or a chunk raised), settle
        # the in-flight futures before merging: queued ones are cancelled,
        # running ones are waited out.
        for _, future in pending:
            future.cancel()
            if not future.cancelled():
                try:
                    future.result()
                except Exception:  # noqa: S110 - worker error already surfaced
                    pass
        for stats in collected:
            retriever.stats.merge(stats)
