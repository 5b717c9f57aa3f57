"""Harness for the execution-planner layer: plans, explain, the chunk axis.

Two contracts are locked down here:

* **Plan purity / explainability** — ``engine.explain(...)`` returns a plan
  equal to the one the matching executed call records on its
  :class:`~repro.engine.facade.EngineCall`, and planning is a deterministic
  function of call shape and retriever capabilities.
* **Combined-axis equivalence** — plans that run chunks on worker threads
  return byte-identical results and equal integer counters compared to a
  serial run of the same warm engine, across the combined (workers, batch)
  grid, all covered algorithms, both verification kernels, and after
  ``partial_fit`` / ``remove`` / ``save`` / ``load`` round trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine
from repro.core.kernels import use_kernel
from repro.engine import ExecutionPlanner, spec_capabilities
from repro.exceptions import InvalidParameterError
from tests.conftest import make_factors, pick_theta

#: Algorithms covered by the chunk-axis equivalence matrix (the tuned
#: mixes plus the threshold-index variants plus the approximate BLSH).
ALGORITHMS = ("L", "I", "LI", "L2AP", "BLSH")

KERNELS = ("blocked", "einsum")

#: Integer RunStats fields that must match exactly between serial and
#: chunked runs of the same warm engine.
COUNTERS = ("candidates", "inner_products", "buckets_examined", "buckets_pruned",
            "results", "num_queries")

QUERIES = make_factors(48, rank=10, length_cov=1.0, seed=31)
PROBES = make_factors(220, rank=10, length_cov=1.0, seed=32)
THETA = pick_theta(QUERIES, PROBES, 110)
K = 5

#: (workers, batch_size, expected (workers, warm-up)) grid over the 48-query
#: workload.  The warm-up chunk runs before any fan-out, so only the chunks
#: after it can run concurrently.
GRID = (
    (4, 16, (2, True)),    # 3 chunks on 4 workers: 2 chunks left after warm-up
    (6, 16, (2, True)),    # 3 chunks on 6 workers: same
    (4, 48, (1, False)),   # one batch: serial
    (4, 24, (1, False)),   # two batches: one chunk after warm-up, serial
    (3, 12, (3, True)),    # 4 chunks on 3 workers: the pool is saturated
    (2, 16, (2, True)),    # 3 chunks on 2 workers
)


def snapshot(stats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in COUNTERS}


def delta(stats, before: dict[str, int]) -> dict[str, int]:
    return {name: getattr(stats, name) - before[name] for name in COUNTERS}


def run(engine, problem: str, parameter, batch_size: int):
    if problem == "above_theta":
        return engine.above_theta(QUERIES, parameter, batch_size=batch_size)
    return engine.row_top_k(QUERIES, parameter, batch_size=batch_size)


def result_arrays(result) -> tuple[np.ndarray, ...]:
    if hasattr(result, "indices"):
        return result.indices, result.scores
    return result.query_ids, result.probe_ids, result.scores


def assert_bytes_equal(expected, observed, context=""):
    for index, (left, right) in enumerate(zip(result_arrays(expected), result_arrays(observed))):
        np.testing.assert_array_equal(left, right, err_msg=f"{context} array {index}")


#: Lazily built warm engines, keyed by (algorithm, kernel).  Warm means both
#: problems ran once serially, so tuning is cached, every lazy per-bucket
#: index exists, and all counters are deterministic from then on.  Tests
#: toggle ``engine.workers`` and must leave the engine usable (no updates).
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
    """Plan shape as a pure function of call shape + capabilities."""

    def plan(self, workers, *, num_queries=48, batch_size=16, problem="row_top_k",
             retriever=None):
        retriever = retriever if retriever is not None else warm_engine("LI", "blocked").retriever
        parameter = K if problem == "row_top_k" else THETA
        return ExecutionPlanner().plan(
            problem=problem, parameter=parameter, num_queries=num_queries,
            batch_size=batch_size, workers=workers, retriever=retriever,
        )

    @pytest.mark.parametrize("workers,batch_size,shape", GRID)
    def test_grid_shapes(self, workers, batch_size, shape):
        plan = self.plan(workers, batch_size=batch_size)
        assert (plan.workers, plan.warmup) == shape
        assert plan.workers <= workers

    def test_serial_engine_plans_serial(self):
        plan = self.plan(1)
        assert (plan.workers, plan.warmup) == (1, False)
        assert "workers=1" in plan.reason

    def test_empty_call(self):
        plan = self.plan(4, num_queries=0)
        assert plan.chunks == () and plan.num_batches == 0
        assert (plan.workers, plan.warmup) == (1, False)

    def test_chunks_partition_queries(self):
        plan = self.plan(4, num_queries=50, batch_size=16)
        assert plan.chunks == ((0, 16), (16, 32), (32, 48), (48, 50))
        assert plan.num_batches == 4

    def test_baseline_retriever_chunks_like_lemp(self):
        from repro.baselines import NaiveRetriever

        naive = NaiveRetriever()
        single = self.plan(4, batch_size=48, retriever=naive)
        assert single.workers == 1
        chunked = self.plan(2, batch_size=12, retriever=naive)
        assert chunked.workers == 2

    def test_retriever_without_worker_views(self):
        from repro.extensions.clustered import ClusteredTopK

        plan = self.plan(4, retriever=ClusteredTopK())
        assert (plan.workers, plan.warmup) == (1, False)
        assert "worker views" in plan.reason

    def test_planning_is_pure(self):
        assert self.plan(4) == self.plan(4)
        assert self.plan(4).to_dict() == self.plan(4).to_dict()

    def test_describe_mentions_the_load_bearing_facts(self):
        text = self.plan(4, problem="above_theta", batch_size=16).describe()
        for needle in ("above_theta", "backend", "chunks", "workers", "reason",
                       "warm-up"):
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
        engine.workers = 4
        try:
            assert engine.explain(48, k=K, batch_size=16) == \
                engine.explain(QUERIES, k=K, batch_size=16)
        finally:
            engine.workers = 1

    def test_query_builder_explain_terminals(self):
        engine = warm_engine("LI", "blocked")
        engine.workers = 4
        try:
            builder = engine.query(QUERIES).batch_size(16)
            assert builder.explain(k=K) == engine.explain(QUERIES, k=K, batch_size=16)
            assert builder.explain(theta=THETA) == \
                engine.explain(QUERIES, theta=THETA, batch_size=16)
        finally:
            engine.workers = 1

    @pytest.mark.parametrize("problem,parameter", [("above_theta", THETA), ("row_top_k", K)])
    def test_explained_plan_equals_recorded_plan(self, problem, parameter):
        engine = warm_engine("LI", "blocked")
        engine.workers = 4
        try:
            kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
            plan = engine.explain(QUERIES, batch_size=16, **kwargs)
            run(engine, problem, parameter, batch_size=16)
            call = engine.history[-1]
            assert call.plan == plan
            assert call.num_batches == plan.num_batches
            assert call.workers == plan.workers
        finally:
            engine.workers = 1


class TestCombinedAxisEquivalence:
    """Serial vs chunked runs over the combined (workers, batch_size) grid.

    Every grid point must give byte-identical results and equal counters.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("problem,parameter", [("above_theta", THETA), ("row_top_k", K)])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm, problem, parameter, kernel):
        engine = warm_engine(algorithm, kernel)
        with use_kernel(kernel):
            try:
                for workers, batch_size, shape in GRID:
                    engine.workers = 1
                    before = snapshot(engine.stats)
                    expected = run(engine, problem, parameter, batch_size)
                    serial_delta = delta(engine.stats, before)

                    engine.workers = workers
                    kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
                    plan = engine.explain(QUERIES, batch_size=batch_size, **kwargs)
                    assert (plan.workers, plan.warmup) == shape
                    before = snapshot(engine.stats)
                    observed = run(engine, problem, parameter, batch_size)
                    context = f"{algorithm}/{problem}/{kernel}/workers={workers}/bs={batch_size}"
                    assert engine.history[-1].plan == plan, context
                    assert_bytes_equal(expected, observed, context)
                    assert delta(engine.stats, before) == serial_delta, context
            finally:
                engine.workers = 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_after_update_and_reload_round_trip(self, algorithm, tmp_path):
        """Chunked plans stay equivalent after partial_fit + remove + save/load."""
        extra = make_factors(30, rank=10, length_cov=1.0, seed=33)
        engine = RetrievalEngine(f"lemp:{algorithm}", seed=0, workers=4).fit(PROBES)
        engine.partial_fit(extra)
        engine.remove([5, 17, 60, 120])
        engine.save(tmp_path / "idx")
        engine = RetrievalEngine.load(tmp_path / "idx")
        assert engine.workers == 4  # persisted with the index

        engine.workers = 1
        engine.above_theta(QUERIES, THETA)  # warm the reloaded index
        engine.row_top_k(QUERIES, K)
        for problem, parameter in (("above_theta", THETA), ("row_top_k", K)):
            engine.workers = 1
            before = snapshot(engine.stats)
            expected = run(engine, problem, parameter, batch_size=16)
            serial_delta = delta(engine.stats, before)

            engine.workers = 4
            kwargs = {"theta": parameter} if problem == "above_theta" else {"k": parameter}
            plan = engine.explain(QUERIES, batch_size=16, **kwargs)
            assert (plan.workers, plan.warmup) == (2, True)
            before = snapshot(engine.stats)
            observed = run(engine, problem, parameter, batch_size=16)
            context = f"{algorithm}/{problem}/reloaded/chunked"
            assert engine.history[-1].plan == plan, context
            assert_bytes_equal(expected, observed, context)
            assert delta(engine.stats, before) == serial_delta, context

    def test_streaming_iterators_follow_the_plan(self):
        """iter_* forms run the same plan and keep strict query order."""
        engine = warm_engine("LI", "blocked")
        engine.workers = 4
        try:
            offsets = [offset for offset, _ in engine.iter_row_top_k(QUERIES, K, 16)]
            assert offsets == [0, 16, 32]
            merged = engine.row_top_k(QUERIES, K, batch_size=16)
            parts = [part for _, part in engine.iter_row_top_k(QUERIES, K, 16)]
            np.testing.assert_array_equal(
                np.vstack([part.indices for part in parts]), merged.indices
            )
        finally:
            engine.workers = 1


class TestRegistryCapabilities:
    def test_lemp_flags(self):
        flags = spec_capabilities("lemp:LI")
        assert flags == {"exact": True, "parallel_queries": True, "updates": True}
        assert spec_capabilities("lemp:BLSH")["exact"] is False
        assert spec_capabilities("lemp:BLSH")["parallel_queries"] is True

    def test_baseline_and_extension_flags(self):
        naive = spec_capabilities("naive")
        assert naive["parallel_queries"] and naive["updates"]
        clustered = spec_capabilities("clustered")
        assert not clustered["parallel_queries"]
        assert not clustered["exact"]

    def test_aliases_resolve(self):
        assert spec_capabilities("LEMP-LI") == spec_capabilities("lemp:LI")

    def test_flags_match_live_instances(self):
        lemp = Lemp(algorithm="LI")
        assert spec_capabilities("lemp:LI")["parallel_queries"] == lemp.supports_parallel_queries
        assert spec_capabilities("lemp:LI")["updates"] == lemp.supports_updates
