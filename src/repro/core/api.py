"""Common interface implemented by every large-entry retrieval method.

The evaluation harness and the :class:`repro.engine.RetrievalEngine` facade
treat LEMP and all baselines (Naive, TA, single- and dual-tree) uniformly
through this interface: ``fit`` indexes the probe matrix, ``above_theta``
solves Problem 1 and ``row_top_k`` solves Problem 2, and ``stats`` exposes the
timings and pruning counters the paper reports.

Beyond the three abstract retrieval methods, the base class defines three
optional capability groups with safe defaults:

* **incremental maintenance** — :meth:`partial_fit` / :meth:`remove` update a
  fitted index in place.  The defaults raise
  :class:`~repro.exceptions.UnsupportedOperationError`; LEMP and the naive
  baseline override them with real implementations.
* **persistence** — :meth:`index_state` / :meth:`restore_index` let a
  retriever export and re-import its fitted index as plain arrays so the
  engine's ``save`` / ``load`` can skip preprocessing.  The default exports
  nothing, in which case loading falls back to a fresh :meth:`fit`.
* **introspection** — :meth:`get_params` reports the constructor arguments so
  a saved index records how to rebuild an equivalent retriever.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod

import numpy as np

from repro.core.results import AboveThetaResult, TopKResult
from repro.core.stats import RunStats
from repro.exceptions import NotPreparedError, UnsupportedOperationError


class Retriever(ABC):
    """Abstract large-entry retriever over a fixed probe matrix."""

    #: Short display name used in benchmark tables.
    name: str = "retriever"

    def __init__(self) -> None:
        self.stats = RunStats()
        self._fitted = False

    @abstractmethod
    def fit(self, probes) -> "Retriever":
        """Index the probe matrix (rows are probe vectors) and return ``self``."""

    @abstractmethod
    def above_theta(self, queries, theta: float) -> AboveThetaResult:
        """Retrieve all (query, probe) pairs with inner product at least ``theta``."""

    @abstractmethod
    def row_top_k(self, queries, k: int) -> TopKResult:
        """Retrieve, for every query row, the ``k`` probes with largest inner product."""

    @property
    def num_probes(self) -> int | None:
        """Number of indexed probe rows, or ``None`` when not fitted/unknown."""
        return None

    # ------------------------------------------------- incremental maintenance

    def partial_fit(self, new_probes) -> "Retriever":
        """Add new probe rows to an already-fitted index.

        The new probes receive the ids ``size, size + 1, ...`` — exactly as if
        they had been rows of a fresh :meth:`fit` on the concatenated matrix.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support incremental inserts; "
            "call fit() on the full probe matrix instead"
        )

    def remove(self, probe_ids) -> "Retriever":
        """Remove probe rows (by original row id) from a fitted index.

        The remaining probes are renumbered to consecutive ids in their
        original order, matching a fresh :meth:`fit` on the reduced matrix.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support incremental removals; "
            "call fit() on the reduced probe matrix instead"
        )

    # ------------------------------------------------------------ worker views

    def worker_view(self) -> "Retriever":
        """A query-only view of this fitted retriever with its own statistics.

        The view shares the fitted index (store, buckets, caches) with the
        original but accumulates :class:`~repro.core.stats.RunStats` into a
        fresh object, so several views can answer queries concurrently
        without racing on the counters: retrieval is read-only up to lazily
        built per-bucket indexes, whose construction is deterministic and
        idempotent (a racing double-build produces identical content).  Each
        :class:`~repro.serve.WorkerPool` process solves its chunks on a view
        and returns the view's statistics, which the engine merges back in
        chunk order; :class:`~repro.serve.EngineManager` tenants solve on
        separate threads.

        Views are for *queries only*: calling ``fit`` / ``partial_fit`` /
        ``remove`` on a view mutates state shared with the original and is
        unsupported.
        """
        view = copy.copy(self)
        view.stats = RunStats()
        return view

    @property
    def supports_updates(self) -> bool:
        """Whether :meth:`partial_fit` / :meth:`remove` are implemented."""
        return (
            type(self).partial_fit is not Retriever.partial_fit
            and type(self).remove is not Retriever.remove
        )

    # --------------------------------------------------------------- persistence

    def index_state(self) -> dict[str, np.ndarray] | None:
        """Export the fitted index as named arrays, or ``None`` if unsupported.

        Implementations must return arrays from which :meth:`restore_index`
        can rebuild the index *without* repeating preprocessing work.
        """
        return None

    def restore_index(self, probes: np.ndarray, state: dict[str, np.ndarray]) -> "Retriever":
        """Rebuild the fitted index from :meth:`index_state` output.

        The default simply refits from the probe matrix, paying the
        preprocessing cost again.
        """
        return self.fit(probes)

    # ------------------------------------------------------------- introspection

    def get_params(self) -> dict:
        """Constructor arguments needed to build an equivalent retriever."""
        return {}

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotPreparedError(
                f"{type(self).__name__}.fit(probes) must be called before retrieval"
            )
