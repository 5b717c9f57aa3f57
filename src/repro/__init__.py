"""Reproduction of "LEMP: Fast Retrieval of Large Entries in a Matrix Product".

The package provides:

* :class:`repro.Lemp` — the LEMP retriever (Above-θ and Row-Top-k problems)
  with all bucket algorithms of the paper (LENGTH, COORD, INCR, TA, Tree,
  L2AP, BayesLSH-Lite, and the tuned LC / LI mixes);
* the baselines the paper compares against (``repro.baselines``);
* the cosine-similarity-search substrate (``repro.similarity``);
* a matrix-factorisation substrate and synthetic dataset generators matching
  the paper's dataset statistics (``repro.mf``, ``repro.datasets``);
* an evaluation harness that regenerates every table and figure of the paper
  (``repro.eval`` and the top-level ``benchmarks/`` directory);
* a serving-oriented engine layer (``repro.engine``): a string-spec retriever
  registry, a batched-query facade with incremental index updates, and index
  persistence.

Quick start
-----------
>>> import numpy as np
>>> from repro import RetrievalEngine
>>> rng = np.random.default_rng(0)
>>> queries = rng.standard_normal((100, 16))
>>> probes = rng.standard_normal((500, 16))
>>> engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
>>> top = engine.query(queries).batch_size(64).top_k(5)
>>> top.indices.shape
(100, 5)

See the top-level ``README.md`` for the registry spec list, incremental
updates (``partial_fit`` / ``remove``), and ``save`` / ``load`` persistence.
"""

from repro.core import (
    ALGORITHMS,
    AboveThetaResult,
    Lemp,
    Retriever,
    RunStats,
    TopKResult,
    TuningCache,
    VectorStore,
)
from repro.engine import (
    ExecutionPlan,
    ExecutionPlanner,
    RetrievalEngine,
    available_specs,
    create_retriever,
    register_retriever,
)
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    NotPreparedError,
    PersistenceError,
    ReproError,
    UnknownAlgorithmError,
    UnknownDatasetError,
    UnsupportedOperationError,
)

__version__ = "5.0.0"

__all__ = [
    "ALGORITHMS",
    "AboveThetaResult",
    "DimensionMismatchError",
    "ExecutionPlan",
    "ExecutionPlanner",
    "InvalidParameterError",
    "Lemp",
    "NotPreparedError",
    "PersistenceError",
    "ReproError",
    "RetrievalEngine",
    "Retriever",
    "RunStats",
    "TopKResult",
    "TuningCache",
    "UnknownAlgorithmError",
    "UnknownDatasetError",
    "UnsupportedOperationError",
    "VectorStore",
    "__version__",
    "available_specs",
    "create_retriever",
    "register_retriever",
]
