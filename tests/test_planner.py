"""Harness for the execution-planner layer: plans, explain, the chunk axis.

Two contracts are locked down here:

* **Plan purity / explainability** — ``engine.explain(...)`` returns a plan
  equal to the one the matching executed call records on its
  :class:`~repro.engine.facade.EngineCall`, and planning is a deterministic
  function of the call shape.
* **Chunk-axis equivalence** — a call cut into ``batch_size`` chunks returns
  the same answers and equal integer counters as one chunk on the same warm
  engine, across a grid of batch sizes, all covered algorithms, both
  verification kernels, and after ``partial_fit`` / ``remove`` / ``save`` /
  ``load`` round trips.  Row-Top-k is byte-identical; Above-θ has the same
  pairs and score bits, in chunk order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine
from repro.core.kernels import use_kernel
from repro.engine import BACKEND_PROCESSES, ExecutionPlanner, spec_capabilities
from repro.exceptions import InvalidParameterError
from tests.conftest import assert_same_answers, make_factors, pick_theta

#: Algorithms covered by the chunk-axis equivalence matrix (the tuned
#: mixes plus the threshold-index variants plus the approximate BLSH).
ALGORITHMS = ("L", "I", "LI", "L2AP", "BLSH")

KERNELS = ("blocked", "einsum")

#: Integer RunStats fields that must match exactly between one-chunk and
#: chunked runs of the same warm engine.
COUNTERS = ("candidates", "inner_products", "buckets_examined", "buckets_pruned",
            "results", "num_queries")

QUERIES = make_factors(48, rank=10, length_cov=1.0, seed=31)
PROBES = make_factors(220, rank=10, length_cov=1.0, seed=32)
THETA = pick_theta(QUERIES, PROBES, 110)
K = 5

#: (batch_size, expected chunks) grid over the 48-query workload.
GRID = (
    (16, 3),
    (48, 1),
    (24, 2),
    (12, 4),
)


def snapshot(stats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in COUNTERS}


def delta(stats, before: dict[str, int]) -> dict[str, int]:
    return {name: getattr(stats, name) - before[name] for name in COUNTERS}


def run(engine, problem: str, parameter, batch_size: int):
    return getattr(engine, problem)(QUERIES, parameter, batch_size=batch_size)


#: Lazily built warm engines, keyed by (algorithm, kernel).  Warm means both
#: problems ran once serially, so tuning is cached, every lazy per-bucket
#: index exists, and all counters are deterministic from then on.  Tests
#: must leave the engine usable (no updates).
_WARM: dict = {}


def warm_engine(algorithm: str, kernel: str) -> RetrievalEngine:
    key = (algorithm, kernel)
    if key not in _WARM:
        with use_kernel(kernel):
            engine = RetrievalEngine(f"lemp:{algorithm}", seed=0).fit(PROBES)
            engine.above_theta(QUERIES, THETA)
            engine.row_top_k(QUERIES, K)
        _WARM[key] = engine
    return _WARM[key]


class TestPlannerDecisions:
    """Plan shape as a pure function of the call shape."""

    def plan(self, *, num_queries=48, batch_size=16, problem="row_top_k", **backend):
        parameter = K if problem == "row_top_k" else THETA
        return ExecutionPlanner().plan(
            problem=problem, parameter=parameter, num_queries=num_queries,
            batch_size=batch_size, **backend,
        )

    @pytest.mark.parametrize("batch_size,num_batches", GRID)
    def test_serial_plans(self, batch_size, num_batches):
        plan = self.plan(batch_size=batch_size)
        assert (plan.backend, plan.workers, plan.num_batches) == ("serial", 1, num_batches)
        assert "serial" in plan.reason

    @pytest.mark.parametrize("workers,batch_size,expected", [
        (4, 16, 3),   # 3 chunks on 4 processes: one process per chunk
        (2, 16, 2),   # 3 chunks on 2 processes
        (4, 48, 1),   # one batch
        (3, 12, 3),   # 4 chunks on 3 processes: the pool is saturated
    ])
    def test_process_plans(self, workers, batch_size, expected):
        plan = self.plan(batch_size=batch_size, workers=workers, backend=BACKEND_PROCESSES)
        assert (plan.backend, plan.workers) == ("processes", expected)
        assert "process pool" in plan.reason

    @pytest.mark.parametrize("backend", [{}, {"workers": 4, "backend": BACKEND_PROCESSES}])
    def test_empty_call(self, backend):
        plan = self.plan(num_queries=0, **backend)
        assert plan.chunks == () and plan.num_batches == 0
        assert (plan.backend, plan.workers) == ("serial", 1)

    def test_chunks_partition_queries(self):
        plan = self.plan(num_queries=50, batch_size=16)
        assert plan.chunks == ((0, 16), (16, 32), (32, 48), (48, 50))
        assert plan.num_batches == 4

    def test_planning_is_pure(self):
        assert self.plan() == self.plan()
        assert self.plan().to_dict() == self.plan().to_dict()

    def test_describe_mentions_the_load_bearing_facts(self):
        text = self.plan(problem="above_theta", batch_size=16).describe()
        for needle in ("above_theta", "backend", "serial", "chunks", "workers", "reason"):
            assert needle in text, needle


class TestExplain:
    """engine.explain() returns exactly what the executed call records."""

    def test_requires_exactly_one_problem(self):
        engine = warm_engine("LI", "blocked")
        with pytest.raises(InvalidParameterError):
            engine.explain(QUERIES)
        with pytest.raises(InvalidParameterError):
            engine.explain(QUERIES, theta=THETA, k=K)

    def test_accepts_a_row_count(self):
        engine = warm_engine("LI", "blocked")
        assert engine.explain(48, k=K, batch_size=16) == \
            engine.explain(QUERIES, k=K, batch_size=16)

    def test_query_builder_explain_terminals(self):
        engine = warm_engine("LI", "blocked")
        builder = engine.query(QUERIES).batch_size(16)
        assert builder.explain(k=K) == engine.explain(QUERIES, k=K, batch_size=16)
        assert builder.explain(theta=THETA) == \
            engine.explain(QUERIES, theta=THETA, batch_size=16)

    @pytest.mark.parametrize("problem,parameter", [("above_theta", THETA), ("row_top_k", K)])
    def test_explained_plan_equals_recorded_plan(self, problem, parameter):
        engine = warm_engine("LI", "blocked")
        kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
        plan = engine.explain(QUERIES, batch_size=16, **kwargs)
        run(engine, problem, parameter, batch_size=16)
        call = engine.history[-1]
        assert call.plan == plan
        assert call.num_batches == plan.num_batches
        assert call.workers == plan.workers


class TestChunkAxisEquivalence:
    """One chunk vs ``batch_size`` chunks over the batch-size grid.

    Every grid point must give the same answers and equal counters.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("problem,parameter", [("above_theta", THETA), ("row_top_k", K)])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm, problem, parameter, kernel):
        engine = warm_engine(algorithm, kernel)
        with use_kernel(kernel):
            before = snapshot(engine.stats)
            expected = run(engine, problem, parameter, batch_size=len(QUERIES))
            whole_delta = delta(engine.stats, before)
            for batch_size, num_batches in GRID:
                kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
                plan = engine.explain(QUERIES, batch_size=batch_size, **kwargs)
                assert (plan.backend, plan.num_batches) == ("serial", num_batches)
                before = snapshot(engine.stats)
                observed = run(engine, problem, parameter, batch_size)
                context = f"{algorithm}/{problem}/{kernel}/bs={batch_size}"
                assert engine.history[-1].plan == plan, context
                assert_same_answers(expected, observed, context)
                assert delta(engine.stats, before) == whole_delta, context

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_after_update_and_reload_round_trip(self, algorithm, tmp_path):
        """Chunked plans stay equivalent after partial_fit + remove + save/load."""
        extra = make_factors(30, rank=10, length_cov=1.0, seed=33)
        engine = RetrievalEngine(f"lemp:{algorithm}", seed=0).fit(PROBES)
        engine.partial_fit(extra)
        engine.remove([5, 17, 60, 120])
        engine.save(tmp_path / "idx")
        engine = RetrievalEngine.load(tmp_path / "idx")

        engine.above_theta(QUERIES, THETA)  # warm the reloaded index
        engine.row_top_k(QUERIES, K)
        for problem, parameter in (("above_theta", THETA), ("row_top_k", K)):
            before = snapshot(engine.stats)
            expected = run(engine, problem, parameter, batch_size=len(QUERIES))
            whole_delta = delta(engine.stats, before)

            kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
            plan = engine.explain(QUERIES, batch_size=16, **kwargs)
            assert (plan.backend, plan.num_batches) == ("serial", 3)
            before = snapshot(engine.stats)
            observed = run(engine, problem, parameter, batch_size=16)
            context = f"{algorithm}/{problem}/reloaded/chunked"
            assert engine.history[-1].plan == plan, context
            assert_same_answers(expected, observed, context)
            assert delta(engine.stats, before) == whole_delta, context

    def test_streaming_iterators_follow_the_plan(self):
        """iter_* forms run the same plan and keep strict query order."""
        engine = warm_engine("LI", "blocked")
        offsets = [offset for offset, _ in engine.iter_row_top_k(QUERIES, K, 16)]
        assert offsets == [0, 16, 32]
        merged = engine.row_top_k(QUERIES, K, batch_size=16)
        parts = [part for _, part in engine.iter_row_top_k(QUERIES, K, 16)]
        np.testing.assert_array_equal(
            np.vstack([part.indices for part in parts]), merged.indices
        )


class TestRegistryCapabilities:
    def test_lemp_flags(self):
        flags = spec_capabilities("lemp:LI")
        assert flags == {"exact": True, "updates": True}
        assert spec_capabilities("lemp:BLSH")["exact"] is False

    def test_baseline_and_extension_flags(self):
        naive = spec_capabilities("naive")
        assert naive["exact"] and naive["updates"]
        clustered = spec_capabilities("clustered")
        assert not clustered["exact"]

    def test_aliases_resolve(self):
        assert spec_capabilities("LEMP-LI") == spec_capabilities("lemp:LI")

    def test_flags_match_live_instances(self):
        lemp = Lemp(algorithm="LI")
        assert spec_capabilities("lemp:LI")["updates"] == lemp.supports_updates
