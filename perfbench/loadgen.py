"""Open-loop load: a seeded arrival schedule and a runner that keeps to it.

Requests are sent when they are due, whether or not earlier ones have been
answered, so a stalled server faces a growing queue as real independent
users would cause.  Each request is timed from its due time, which charges
a stall to every request it delays, and the generator's own lateness is
recorded separately.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

#: Schedule seconds between mutation rounds.
MUTATION_PERIOD_S = 1.0


@dataclass(frozen=True)
class Schedule:
    """Arrivals (due time, class, query-pool row) and mutation-round due times."""

    due: np.ndarray
    classes: np.ndarray
    rows: np.ndarray
    mutations: np.ndarray


def make_schedule(seed: int, rate: float, seconds: float, num_classes: int,
                  pool_size: int) -> Schedule:
    """The arrival schedule for ``seed``: a Poisson stream of ``rate`` per second.

    The count is fixed at ``rate * seconds`` and the arrival times are
    sorted uniform draws over the run, which is a Poisson process
    conditioned on its count: the offered load is the same for every seed,
    only its timing and mix vary.  Mutation rounds fall midway through each
    :data:`MUTATION_PERIOD_S`.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    count = max(1, round(rate * seconds))
    return Schedule(
        due=np.sort(rng.uniform(0.0, seconds, size=count)),
        classes=rng.integers(num_classes, size=count),
        rows=rng.integers(pool_size, size=count),
        mutations=np.arange(MUTATION_PERIOD_S / 2, seconds, MUTATION_PERIOD_S),
    )


@dataclass
class Request:
    """What happened to one scheduled request (times from ``perf_counter``)."""

    due: float
    sent: float = float("nan")
    done: float = float("nan")
    error: str | None = None
    result: object = None


class PacedClock:
    """Plays schedule seconds at the host's current speed.

    A schedule is written in seconds of the reference host.  While the host
    runs ``slowdown`` times slower, one schedule second lasts ``slowdown``
    real seconds, so the server faces the same load per unit of its work
    however fast the host happens to be.  :meth:`pace` changes the speed
    from the current moment on.
    """

    def __init__(self, slowdown: float = 1.0) -> None:
        self.slowdown = slowdown
        self._real = time.perf_counter()
        self._virtual = 0.0

    def begin(self, real: float) -> None:
        """Schedule second 0 falls at ``real``."""
        self._real, self._virtual = real, 0.0

    def virtual(self, real: float) -> float:
        """Schedule seconds at real time ``real``."""
        return self._virtual + (real - self._real) / self.slowdown

    def real(self, virtual: float) -> float:
        """Real time at which schedule second ``virtual`` falls."""
        return self._real + (virtual - self._virtual) * self.slowdown

    def pace(self, slowdown: float, now: float | None = None) -> None:
        """Run at ``slowdown`` from ``now`` (default: the current time) on."""
        now = time.perf_counter() if now is None else now
        self._virtual, self._real = self.virtual(now), now
        self.slowdown = slowdown


async def run_open_loop(schedule: Schedule, send, mutate, keep_result,
                        seconds: float, grace: float, clock: PacedClock):
    """Send scheduled requests and mutation rounds on time for ``seconds``.

    Due times follow ``clock``.  ``send(i)`` returns the awaitable answer to
    request ``i``; ``mutate(j, due)`` runs mutation round ``j`` (due at
    ``due``); ``keep_result(i)`` says whether request ``i``'s answer is kept
    for checking.  Arrivals due after ``seconds`` of real time are not sent;
    the ones sent get ``grace`` more seconds to finish before they are
    cancelled.  Returns the sent requests, the number still outstanding when
    the time was up (a backlog the server did not keep up with), and the
    schedule seconds played.
    """
    start = time.perf_counter() + 0.005
    end = start + seconds
    clock.begin(start)
    requests: list[Request] = []

    async def one(index: int, request: Request) -> None:
        request.sent = time.perf_counter()
        try:
            result = await send(index)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            request.error = type(error).__name__
        else:
            request.done = time.perf_counter()
            if keep_result(index):
                request.result = result

    async def mutations() -> None:
        for round_index, offset in enumerate(schedule.mutations):
            due = clock.real(float(offset))
            if due >= end:
                return
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            await mutate(round_index, due)

    mutator = asyncio.ensure_future(mutations())
    tasks = []
    for index, offset in enumerate(schedule.due):
        due = clock.real(float(offset))
        if due >= end:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        requests.append(Request(due=due))
        tasks.append(asyncio.ensure_future(one(index, requests[-1])))
    await asyncio.sleep(max(0.0, end - time.perf_counter()))
    played = clock.virtual(end)
    outstanding = sum(not task.done() for task in tasks)
    _, pending = await asyncio.wait(tasks + [mutator], timeout=grace)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for request in requests:
        if request.error is None and request.done != request.done:
            request.error = "Outstanding"
    if mutator.done() and not mutator.cancelled():
        mutator.result()
    return requests, outstanding, played
