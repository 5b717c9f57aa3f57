"""Host-speed calibration: fixed loops timed beside the workload.

The benchmark's host is shared, and its speed drifts: the same call can take
1.8x longer for tens of seconds at a time, with CPU time rising as much as
wall time.  Fixed loops with the instruction mix of the timed code slow down
in step with it, so each timed operation is scaled to the reference host
speed::

    scaled = raw * reference seconds / seconds of a loop sample taken beside it

Two loops, each with a reference time measured on an idle 2-vCPU Xeon at
2.0 GHz:

* the **solver** loop, for LEMP calls: a Python loop over (block, query)
  pairs doing small searchsorted / gather / matvec steps, then large
  gathers, matvecs and bincounts, as candidate generation and verification
  do;
* the **BLAS** loop, for the naive product: one matrix product.

Over a four-minute noisy stretch, ten-second medians of LEMP time varied by
a quartile spread of 0.18 (netflix shape) to 0.27 (ie-svd shape), and of
LEMP time over the adjacent solver sample by 0.05 to 0.06; naive time over
the BLAS sample varied by 0.02.  The loops use no repro code, so a change to
the repository moves the raw and the scaled times alike.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :meth:`HostClock.sample` takes on the reference host.
REFERENCE_SECONDS = 0.038
#: Seconds one :meth:`HostClock.sample_blas` takes on the reference host.
REFERENCE_BLAS_SECONDS = 0.0145
#: Queries of the short solver loop a server's heartbeat samples, and its
#: seconds on the reference host.
HEARTBEAT_QUERIES = 8
REFERENCE_HEARTBEAT_SECONDS = 0.0042

_BLOCK = 100
_QUERIES = 64
_GATHERS = 4


class HostClock:
    """Times the calibration loops; fixed inputs, independent of the workload seed.

    ``heartbeat=True`` shrinks the solver loop to :data:`HEARTBEAT_QUERIES`
    queries, for short samples taken while a server runs.  Samples are
    thread CPU time, so a sample taken beside other busy threads does not
    count the time it waited for the interpreter lock.
    """

    def __init__(self, heartbeat: bool = False) -> None:
        rng = np.random.default_rng(20150531)
        self._directions = rng.standard_normal((2000, 50))
        self._lengths = np.sort(rng.random(2000))
        queries = HEARTBEAT_QUERIES if heartbeat else _QUERIES
        self._queries = rng.standard_normal((_QUERIES, 50))[:queries]
        self._column = np.sort(self._directions[:, 3])
        self._matrix = rng.standard_normal((50_000, 50))
        self._rows = rng.integers(50_000, size=20_000 * queries // _QUERIES)
        self._ids = rng.integers(50_000, size=200_000 * queries // _QUERIES)
        self.reference = REFERENCE_HEARTBEAT_SECONDS if heartbeat else REFERENCE_SECONDS
        self.samples: list[float] = []
        self.blas_samples: list[float] = []

    def _solver_loop(self) -> float:
        total = 0.0
        for start in range(0, len(self._lengths), _BLOCK):
            block = self._directions[start:start + _BLOCK]
            lengths = self._lengths[start:start + _BLOCK]
            for query in self._queries:
                low = np.searchsorted(self._column, query[3] - 0.5)
                high = np.searchsorted(self._column, query[3] + 0.5)
                candidates = np.nonzero(lengths > 0.3)[0]
                scores = block[candidates] @ query
                total += int((scores > 1.0).sum()) + int(high - low)
        for _ in range(_GATHERS):
            total += float((self._matrix[self._rows] @ self._queries[0]).max())
            total += float(np.bincount(self._ids, minlength=len(self._matrix)).max())
        return total

    def sample(self) -> float:
        """Time one run of the solver loop, in seconds, and remember it."""
        started = time.thread_time()
        self._solver_loop()
        elapsed = time.thread_time() - started
        self.samples.append(elapsed)
        return elapsed

    def sample_blas(self) -> float:
        """Time one run of the BLAS loop, in seconds, and remember it."""
        started = time.thread_time()
        float((self._queries[:1].repeat(_QUERIES, axis=0) @ self._matrix.T).max())
        elapsed = time.thread_time() - started
        self.blas_samples.append(elapsed)
        return elapsed

    def scale(self, seconds: float, calibration: float) -> float:
        """``seconds`` measured beside a solver sample of ``calibration``, at reference speed."""
        return seconds * self.reference / calibration

    @staticmethod
    def scale_blas(seconds: float, calibration: float) -> float:
        """``seconds`` measured beside a BLAS sample of ``calibration``, at reference speed."""
        return seconds * REFERENCE_BLAS_SECONDS / calibration

    def slowdown(self) -> float:
        """Median solver sample over its reference time (1.0 = reference speed)."""
        return float(np.median(self.samples)) / self.reference
