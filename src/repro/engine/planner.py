"""Execution planning: how one engine call is chunked, as an inspectable value.

:class:`ExecutionPlanner` turns a call shape — problem, parameter, query
count, batch size, and the size of the engine's attached process pool, if
any — into a frozen :class:`ExecutionPlan`.

The engine has one chunk axis.  A call is cut into ``batch_size`` chunks.
They run one after another in the calling thread, or, with a
:class:`~repro.serve.WorkerPool` attached, every chunk runs on a worker
process that maps the same read-only index.

Because those inputs are all value-like, planning is a pure function: calling
:meth:`~repro.engine.facade.RetrievalEngine.explain` before a call returns a
plan equal (``==``) to the one the executed call records on its
:class:`~repro.engine.facade.EngineCall`.  The executor
(:mod:`repro.engine.executor`) keeps every plan byte-identical to a serial
call: chunks merge in query order and worker statistics merge in batch order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: ``ExecutionPlan.backend`` values: chunks run one after another in the
#: calling thread, or on an attached :class:`~repro.serve.WorkerPool` of
#: index-mapping processes.
BACKEND_SERIAL = "serial"
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
    #: Worker processes the chunks run on (1 = chunks run serially).
    workers: int
    #: One-line human explanation of why this shape was chosen.
    reason: str
    #: Which execution backend carries the chunks: :data:`BACKEND_SERIAL`
    #: (the calling thread) or :data:`BACKEND_PROCESSES` (an attached
    #: :class:`~repro.serve.WorkerPool` — every chunk is dispatched to a
    #: worker process that memory-maps the same read-only index).
    backend: str = BACKEND_SERIAL

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
            f"  workers       : {self.workers}",
            f"  reason        : {self.reason}",
        ]
        return "\n".join(lines)


class ExecutionPlanner:
    """Builds :class:`ExecutionPlan` values for a call shape.

    Stateless; the engine owns one and consults it per call.  See the module
    docstring for the inputs and the purity contract.
    """

    def plan(self, *, problem: str, parameter: float, num_queries: int,
             batch_size: int, workers: int = 1,
             backend: str = BACKEND_SERIAL) -> ExecutionPlan:
        """Build the plan for one call; pure in all of its inputs.

        ``backend`` selects where chunks run: :data:`BACKEND_SERIAL` (the
        default) or :data:`BACKEND_PROCESSES` when the engine has a
        :class:`~repro.serve.WorkerPool` attached, whose process count is
        ``workers``.  The plan's ``workers`` field is what the call will
        actually use.
        """
        chunks = tuple(
            (start, min(start + batch_size, num_queries))
            for start in range(0, num_queries, batch_size)
        )
        num_batches = len(chunks)
        plural = "s" if num_batches != 1 else ""

        def build(plan_workers: int, reason: str,
                  plan_backend: str = BACKEND_SERIAL) -> ExecutionPlan:
            return ExecutionPlan(
                problem=problem,
                parameter=float(parameter),
                num_queries=int(num_queries),
                batch_size=int(batch_size),
                chunks=chunks,
                workers=plan_workers,
                reason=reason,
                backend=plan_backend,
            )

        if num_batches == 0:
            return build(1, "empty call: nothing to run")
        if backend == BACKEND_PROCESSES:
            # Process workers each map the same read-only index and carry
            # their own (persisted-warm) tuning caches, so every chunk —
            # including the first — is dispatched: keeping the parent free
            # is the point of the backend.
            plan_workers = max(1, min(workers, num_batches))
            return build(
                plan_workers,
                f"process pool: {num_batches} chunk{plural} across {plan_workers} "
                "index-mapping worker processes",
                plan_backend=BACKEND_PROCESSES,
            )
        return build(1, f"serial: {num_batches} chunk{plural} in the calling thread")
