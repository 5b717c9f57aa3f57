"""Engine layer: registry, execution planner/executor, facade, persistence.

This package is the serving-oriented surface over the algorithmic core:

* :func:`create_retriever` / :func:`register_retriever` — build any retriever
  from a string spec such as ``"lemp:LI"``, ``"naive"``, ``"ta:heap"`` or
  ``"tree:cover"``; new retrieval methods self-register with the decorator,
  and :func:`spec_capabilities` reports a method's capability flags.
* :class:`ExecutionPlanner` / :func:`run_plan` — every call is first
  compiled into an explicit :class:`ExecutionPlan` (chunking, workers,
  warm-up) and then executed with a deterministic plan-order merge.
* :class:`RetrievalEngine` — wraps a retriever with chunked/batched query
  execution (serial, or chunks on worker threads with ``workers=N``), a
  fluent query builder, :meth:`~RetrievalEngine.explain` for plan
  introspection, per-call statistics, incremental index updates, and
  ``save`` / ``load`` persistence.  Format-3 indexes reload with
  ``mmap_mode="r"`` (memory-mapped arrays), and attaching a
  :class:`repro.serve.WorkerPool` switches plans from the
  :data:`BACKEND_THREADS` backend to :data:`BACKEND_PROCESSES`.

Quick start::

    from repro.engine import RetrievalEngine

    engine = RetrievalEngine("lemp:LI", seed=0, workers=4).fit(probes)
    print(engine.explain(queries, k=10, batch_size=512).describe())
    top = engine.query(queries).batch_size(512).top_k(10)
    engine.save("idx/")
    ...
    engine = RetrievalEngine.load("idx/")
"""

from repro.engine.executor import run_plan
from repro.engine.facade import EngineCall, QueryBuilder, RetrievalEngine
from repro.engine.planner import (
    BACKEND_PROCESSES,
    BACKEND_THREADS,
    ExecutionPlan,
    ExecutionPlanner,
)
from repro.engine.registry import (
    available_specs,
    create_retriever,
    normalize_spec,
    register_retriever,
    registered_names,
    spec_capabilities,
    spec_is_exact,
)

__all__ = [
    "BACKEND_PROCESSES",
    "BACKEND_THREADS",
    "EngineCall",
    "ExecutionPlan",
    "ExecutionPlanner",
    "QueryBuilder",
    "RetrievalEngine",
    "available_specs",
    "create_retriever",
    "normalize_spec",
    "register_retriever",
    "registered_names",
    "run_plan",
    "spec_capabilities",
    "spec_is_exact",
]
