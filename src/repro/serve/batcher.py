"""Work-conserving micro-batching: dispatch when idle, coalesce while busy.

The batcher implements the continuous batching of inference servers on top
of LEMP's batched solvers: requests that share a :class:`BatchKey` — the
same problem and the same parameter (θ or k) — are appended to one pending
group, and a group is flushed to the solver

* when its total row count reaches ``max_batch_rows`` (flushed
  *synchronously* inside the submit that crossed the budget — a request is
  never split, so a single request larger than the budget forms its own
  batch), or
* as soon as the solver is free.  A submit to an idle solver schedules
  one dispatch with ``loop.call_soon``, so requests admitted in the same
  event-loop turn (an ``asyncio.gather`` of many clients) still share one
  batch; a submit to a busy solver only queues, and every pending group
  flushes when the solver finishes a work item (the engine calls
  :meth:`MicroBatcher.flush_all`).

No request waits on a timer: a lone request reaches an idle solver in the
loop turn that admitted it, and batches form exactly while load keeps the
solver busy.  A pending group waits for at most one work item to finish,
then queues behind the work already handed off, so a key kept at its row
budget cannot starve the others.

Coalescing is *correctness-free* by construction: every LEMP solve treats
query rows independently (per-row kernel rounding, per-(query, bucket)
counters), so a request's rows produce byte-identical results whether they
are solved alone or stacked under a batch with arbitrary other requests.
The batcher therefore only changes *when* work runs, never what it
returns; see :mod:`repro.serve.engine` for the demultiplexing that relies
on this.

The batcher is an event-loop-affine object: all methods must be called
from the loop passed at construction.  It performs no admission control of
its own — :class:`~repro.serve.ServingEngine` bounds in-flight rows before
requests ever reach it — and keeps no count of solver work: the engine
owns that and answers the ``idle`` callable.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

#: Default flush budget: rows across one group before an immediate flush.
DEFAULT_MAX_BATCH_ROWS = 256


@dataclass(frozen=True)
class BatchKey:
    """Compatibility key of one micro-batch: problem plus exact parameter.

    Requests only coalesce when a single solver call can serve them all:
    the same problem (``"above_theta"`` or ``"row_top_k"``) with the same
    θ / k.  The parameter is compared exactly (no epsilon): merging nearby
    thetas would change results, and the serving layer never trades
    correctness for batching.
    """

    problem: str
    parameter: float


@dataclass
class PendingRequest:
    """One admitted request waiting in (or flushed from) a group.

    ``future`` resolves to the request's demultiplexed result;
    ``rows`` is cached because admission accounting and flush budgeting
    read it on every submit.  ``abandoned`` is set by the engine when the
    caller's deadline elapsed — the batch still runs for its other members,
    but an abandoned request is never demultiplexed (and never counted as
    served).  ``released`` guards the one-shot return of the request's rows
    to the admission budget.
    """

    queries: np.ndarray
    rows: int
    future: asyncio.Future
    abandoned: bool = False
    released: bool = False


@dataclass
class FlushRecord:
    """Observability record of one flushed micro-batch (kept by the engine)."""

    key: BatchKey
    num_requests: int
    num_rows: int
    #: ``"rows"`` (the group reached ``max_batch_rows``), ``"idle"`` (the
    #: solver had no outstanding work, or it finished a work item) or
    #: ``"drain"`` (engine shutdown flushed the remainder).
    reason: str
    #: Seconds from the group's first admission to the start of its solve.
    #: Both timings stay 0.0 until the solve has run.
    wait_s: float = 0.0
    #: Seconds of the engine call on the solver thread.
    solve_s: float = 0.0


@dataclass
class _Group:
    """Mutable per-key accumulation state."""

    requests: list = field(default_factory=list)
    rows: int = 0
    #: ``time.perf_counter()`` at the group's first admission.
    opened: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Per-key request coalescing with a row budget and idle dispatch.

    ``flush(key, requests, reason, opened)`` is the engine-provided callback
    that takes ownership of a flushed group (``opened`` is the group's
    first-admission ``perf_counter`` time); it is invoked on the event loop,
    synchronously from :meth:`submit` for budget flushes and from
    :meth:`flush_all` otherwise.  ``idle()`` tells whether the solver has no
    outstanding work.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, flush, idle, *,
                 max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS) -> None:
        """Bind the batcher to a loop, a flush callback and an idle test."""
        self._loop = loop
        self._flush_callback = flush
        self._idle = idle
        self.max_batch_rows = int(max_batch_rows)
        self._groups: dict[BatchKey, _Group] = {}
        self._dispatch: asyncio.Handle | None = None

    @property
    def pending_rows(self) -> int:
        """Rows currently queued (admitted, not yet flushed) across groups."""
        return sum(group.rows for group in self._groups.values())

    def submit(self, key: BatchKey, request: PendingRequest) -> None:
        """Queue one request; flush its group now if it reached the row budget.

        Below the budget, a submit to an idle solver schedules one dispatch
        at the end of this loop turn; a submit to a busy solver only queues.
        """
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
        group.requests.append(request)
        group.rows += request.rows
        if group.rows >= self.max_batch_rows:
            self._flush(key, "rows")
        elif self._dispatch is None and self._idle():
            self._dispatch = self._loop.call_soon(self._dispatch_if_idle)

    def _dispatch_if_idle(self) -> None:
        """Scheduled dispatch: flush every group unless the solver got busy."""
        self._dispatch = None
        if self._idle():
            self.flush_all("idle")

    def _flush(self, key: BatchKey, reason: str) -> None:
        """Detach a group and hand it to the flush callback."""
        group = self._groups.pop(key)
        self._flush_callback(key, group.requests, reason, group.opened)

    def flush_all(self, reason: str) -> None:
        """Flush every pending group (the solver finished a work item, or shutdown)."""
        for key in list(self._groups):
            self._flush(key, reason)
