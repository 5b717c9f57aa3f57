"""Execution planning: how one engine call is chunked, as an inspectable value.

:class:`ExecutionPlanner` turns a call shape into a frozen
:class:`ExecutionPlan` built from two inputs only:

* the **call shape** — problem, parameter, query count, batch size, and the
  engine's configured worker count (or its attached process pool's size);
* the **retriever capabilities** —
  :attr:`~repro.core.api.Retriever.supports_parallel_queries` plus
  ``worker_view``.

The engine has one parallel axis.  A call is cut into ``batch_size``
chunks.  With ``workers > 1`` and a retriever that supports worker views,
the first chunk runs serially as a warm-up and the remaining chunks run
concurrently on ``worker_view`` threads, so a call needs at least three
chunks to run anything in parallel.  With a
:class:`~repro.serve.WorkerPool` attached, every chunk runs on a worker
process instead.  Otherwise the call is serial.

Because those inputs are all value-like, planning is a pure function: calling
:meth:`~repro.engine.facade.RetrievalEngine.explain` before a call returns a
plan equal (``==``) to the one the executed call records on its
:class:`~repro.engine.facade.EngineCall`.  The executor
(:mod:`repro.engine.executor`) keeps every plan byte-identical to serial:
chunks merge in query order and worker statistics merge in batch order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: ``ExecutionPlan.backend`` values: chunks run inline on the calling thread
#: or on the engine's thread pool, or on an attached
#: :class:`~repro.serve.WorkerPool` of index-mapping processes.
BACKEND_THREADS = "threads"
BACKEND_PROCESSES = "processes"


@dataclass(frozen=True)
class ExecutionPlan:
    """One engine call's full execution shape, decided before anything runs.

    A plan is a frozen value: :meth:`RetrievalEngine.explain
    <repro.engine.facade.RetrievalEngine.explain>` returns it without
    executing, the executed call records the identical object on its
    :class:`~repro.engine.facade.EngineCall`, and the executor treats it as
    read-only instructions.
    """

    #: ``"above_theta"`` or ``"row_top_k"``.
    problem: str
    #: θ or k of the call.
    parameter: float
    num_queries: int
    batch_size: int
    #: Half-open ``(start, end)`` query-row ranges, one per chunk, in query
    #: order.  Empty for a zero-query call.
    chunks: tuple[tuple[int, int], ...]
    #: Workers the chunks run on (1 = chunks run serially).  On the thread
    #: backend the first chunk is the warm-up (see :attr:`warmup`) and the
    #: remaining chunks run concurrently on ``worker_view`` clones.
    workers: int
    #: Whether the first chunk runs serially on the engine's own retriever
    #: before any fan-out, so the sample-based tuner runs (and the shared
    #: tuning cache is warmed) exactly once.  True iff the plan runs on
    #: worker threads.
    warmup: bool
    #: One-line human explanation of why this shape was chosen.
    reason: str
    #: Which execution backend carries the chunks:
    #: :data:`BACKEND_THREADS` (the engine's thread pool; also the value for
    #: serial plans) or :data:`BACKEND_PROCESSES` (an attached
    #: :class:`~repro.serve.WorkerPool` — every chunk is dispatched to a
    #: worker process that memory-maps the same read-only index, and no
    #: warm-up chunk runs because workers carry their own persisted-warm
    #: tuning caches).
    backend: str = BACKEND_THREADS
    #: Quantized screening tier the retriever will screen candidates with
    #: (``"f32"`` / ``"f16"`` / ``"int8"``), or ``None`` when candidates go
    #: straight to exact verification.  Informational: screening changes how
    #: many candidates reach the exact kernel, never the plan's shape or the
    #: results (see :mod:`repro.core.screening`).
    screen_dtype: str | None = None
    #: Compressed candidate-generation tier the retriever's index scans run
    #: over (``"f32"`` / ``"f16"`` / ``"int8"``), or ``None`` when generation
    #: reads the exact f64 directions.  Informational: compressed generation
    #: widens every pruning bound so it can only over-produce candidates —
    #: results and the plan's shape are unaffected (see
    #: :class:`~repro.core.lemp.Lemp`).
    gen_dtype: str | None = None

    @property
    def num_batches(self) -> int:
        """Number of chunks the query matrix is split into."""
        return len(self.chunks)

    def to_dict(self) -> dict:
        """The plan as a plain JSON-able dict."""
        return asdict(self)

    def describe(self) -> str:
        """Multi-line human rendering (what ``repro explain`` prints)."""
        lines = [
            f"plan: {self.problem}(parameter={self.parameter:g}) "
            f"over {self.num_queries} queries",
            f"  backend       : {self.backend}",
            f"  chunks        : {self.num_batches} (batch_size={self.batch_size})",
            f"  workers       : {self.workers}"
            + (" (first chunk runs serially: tuning warm-up)" if self.warmup else ""),
        ]
        if self.screen_dtype is not None:
            lines.append(
                f"  screening     : {self.screen_dtype} quantized tier "
                "(widened-bound pre-filter, exact f64 verification)"
            )
        if self.gen_dtype is not None:
            lines.append(
                f"  generation    : {self.gen_dtype} compressed index scans "
                "(bound-widened feasible regions, exact f64 verification)"
            )
        lines.append(f"  reason        : {self.reason}")
        return "\n".join(lines)


class ExecutionPlanner:
    """Builds :class:`ExecutionPlan` values for a retriever and a call shape.

    Stateless; the engine owns one and consults it per call.  See the module
    docstring for the inputs and the purity contract.
    """

    def plan(self, *, problem: str, parameter: float, num_queries: int,
             batch_size: int, workers: int, retriever,
             backend: str = BACKEND_THREADS) -> ExecutionPlan:
        """Build the plan for one call; pure in all of its inputs.

        ``workers`` is the engine's configured thread count (or, for the
        process backend, the attached pool's worker count); the plan's
        ``workers`` field is what the call will actually use.  ``backend``
        selects where chunks run: :data:`BACKEND_THREADS` (the default) or
        :data:`BACKEND_PROCESSES` when the engine has a
        :class:`~repro.serve.WorkerPool` attached.
        """
        chunks = tuple(
            (start, min(start + batch_size, num_queries))
            for start in range(0, num_queries, batch_size)
        )
        num_batches = len(chunks)

        def build(plan_workers: int, reason: str,
                  plan_backend: str = BACKEND_THREADS) -> ExecutionPlan:
            return ExecutionPlan(
                problem=problem,
                parameter=float(parameter),
                num_queries=int(num_queries),
                batch_size=int(batch_size),
                chunks=chunks,
                workers=plan_workers,
                warmup=plan_workers > 1 and plan_backend == BACKEND_THREADS,
                reason=reason,
                backend=plan_backend,
                screen_dtype=getattr(retriever, "screen_dtype", None),
                gen_dtype=getattr(retriever, "gen_dtype", None),
            )

        if num_batches == 0:
            return build(1, "empty call: nothing to run")
        if backend == BACKEND_PROCESSES:
            # Process workers each map the same read-only index and carry
            # their own (persisted-warm) tuning caches, so every chunk —
            # including the first — is dispatched: there is no shared cache
            # for a warm-up chunk to populate, and keeping the parent free
            # is the point of the backend.
            plan_workers = max(1, min(workers, num_batches))
            return build(
                plan_workers,
                f"process pool: {num_batches} chunk"
                f"{'s' if num_batches != 1 else ''} across {plan_workers} "
                "index-mapping worker processes",
                plan_backend=BACKEND_PROCESSES,
            )
        if workers <= 1:
            return build(1, "serial: engine configured with workers=1")
        if not (getattr(retriever, "supports_parallel_queries", False)
                and getattr(retriever, "worker_view", None) is not None):
            return build(1, "serial: retriever does not support worker views")
        # The warm-up chunk finishes before any fan-out, so only the chunks
        # after it can run concurrently.
        plan_workers = min(workers, num_batches - 1)
        if plan_workers <= 1:
            return build(
                1, f"serial: {num_batches} chunk{'s' if num_batches != 1 else ''}, "
                "so nothing runs concurrently with the warm-up chunk"
            )
        return build(
            plan_workers,
            f"chunked: {num_batches} chunks, the first as warm-up, "
            f"the rest across {plan_workers} workers",
        )
