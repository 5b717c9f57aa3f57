"""Process workers sharing one memory-mapped read-only index.

:class:`WorkerPool` is the second execution backend of the
:class:`~repro.engine.planner.ExecutionPlanner` (after serial):
N worker processes are started from an index *directory* (not a live
engine), and each worker's initializer loads that directory with
``load_engine(path, mmap_mode="r")`` — every index array becomes a
read-only :class:`numpy.memmap`, so all N workers (and the parent, if it
maps the same directory) share one physical copy of the index in the OS
page cache instead of N+1 heap copies.

Determinism across the process boundary:

* **Results** are byte-identical to a serial in-process run
  unconditionally: workers run the exact same solve on the exact same
  arrays, and the blocked verification kernel keeps each row's rounding
  independent of its co-batched rows.
* **Integer counters** match a serial run whenever both tune on the same
  queries.  The tuner prices counted work, not time, so a worker tuning a
  cold index (no ``meta["tuning_cache"]``) makes exactly the decisions a
  serial call over the same chunk makes, and a warm index hands every
  worker the persisted decisions.  A chunked *serial* call tunes on its
  first chunk only; on a cold index a worker that first sees a later chunk
  tunes on that chunk's sample instead, which can steer its candidate
  counters (never its results).  A cold LEMP-L2AP index also drifts: its
  threshold-reduced bucket indexes depend on which queries built them.

Workers are plain ``concurrent.futures`` processes started with the
``spawn`` method — no state is forked from the parent, which keeps the
pool safe to create from threaded and asyncio programs alike.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.exceptions import InvalidParameterError, PersistenceError
from repro.utils.validation import require_positive_int

#: Engine loaded once per worker process by :func:`_worker_init`.
_WORKER_ENGINE = None


def _worker_init(index_path: str) -> None:
    """Process initializer: map the shared index read-only, once."""
    global _WORKER_ENGINE
    from repro.engine.persistence import load_engine

    _WORKER_ENGINE = load_engine(index_path, mmap_mode="r")


def _worker_solve(problem: str, parameter: float, block: np.ndarray):
    """Solve one chunk in this worker; returns ``(result, stats)``.

    The solve runs on a :meth:`~repro.core.api.Retriever.worker_view` of the
    worker's engine, so the returned :class:`~repro.core.stats.RunStats` is
    exactly this chunk's delta — the parent merges the deltas in plan order,
    preserving the plan-order merge contract across the process boundary.
    """
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process was not initialised with an index")
    view = engine.retriever.worker_view()
    if problem == "above_theta":
        result = view.above_theta(block, float(parameter))
    elif problem == "row_top_k":
        result = view.row_top_k(block, int(parameter))
    else:
        raise InvalidParameterError(f"unknown problem for worker solve: {problem!r}")
    return result, view.stats


class WorkerPool:
    """N processes, one mmap'd index: the planner's ``"processes"`` backend.

    Parameters
    ----------
    index_path:
        Directory written by :meth:`~repro.engine.facade.RetrievalEngine.save`.
        Every worker maps it read-only at startup; the pool itself validates
        the path eagerly so a typo fails at construction, not first submit.
    workers:
        Number of worker processes (default 2).

    Attach to an engine with
    :meth:`~repro.engine.facade.RetrievalEngine.use_worker_pool`; the
    planner then emits ``backend="processes"`` plans whose chunks the
    executor ships here.  The pool is also a context manager::

        with WorkerPool(index_dir, workers=2) as pool:
            engine = RetrievalEngine.load(index_dir, mmap_mode="r")
            engine.use_worker_pool(pool)
            engine.row_top_k(queries, 10)
    """

    def __init__(self, index_path, workers: int = 2) -> None:
        """Validate the index directory and start the worker processes."""
        self.index_path = Path(index_path)
        if not (self.index_path / "meta.json").is_file():
            raise PersistenceError(
                f"{self.index_path} is not a saved index directory (missing meta.json); "
                "write one with engine.save(path) first"
            )
        self.size = require_positive_int(workers, "workers")
        self._executor = ProcessPoolExecutor(
            max_workers=self.size,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(str(self.index_path),),
        )

    def submit(self, problem: str, parameter: float, block: np.ndarray):
        """Submit one chunk; future resolves to ``(result, stats)``."""
        return self._executor.submit(
            _worker_solve, problem, float(parameter), np.ascontiguousarray(block)
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker processes (idempotent)."""
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry; the pool is already running."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Shut the pool down on context exit."""
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        """Debug representation with path and size."""
        return f"WorkerPool(index_path={str(self.index_path)!r}, workers={self.size})"
