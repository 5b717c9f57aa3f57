"""Determinism and behaviour tests for the :mod:`repro.serve` subsystem.

The central claims under test:

* **Byte + counter equality.**  Results a concurrent, micro-batched
  :class:`~repro.serve.ServingEngine` hands each client are byte-identical
  to the same requests issued one at a time against a serial engine, and
  the engine's integer work counters sum to exactly the serial totals —
  on the in-process backend and across a 2-process memory-mapping
  :class:`~repro.serve.WorkerPool` alike.
* **Flush boundaries.**  Groups flush exactly on the row budget
  (including the 1-row degenerate case) or as soon as the solver is idle,
  coalesce only while it is busy, and never merge incompatible
  (problem, parameter) keys.
* **Admission and deadlines.**  Overload sheds with
  :class:`~repro.exceptions.ServiceOverloadedError` before any solver
  work; elapsed deadlines raise
  :class:`~repro.exceptions.RequestTimeoutError` without killing the
  batch for its other members.
* **mmap layout.**  Format-3 indexes load as read-only memmaps
  bit-identical to eager loads, and pre-mmap format-2 indexes keep
  loading (regression pin for the additive format bump).
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.core.stats import RunStats
from repro.engine.executor import run_plan
from repro.engine.facade import RetrievalEngine
from repro.engine.persistence import FORMAT_VERSION, mmap_npz_arrays
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    PersistenceError,
    RequestTimeoutError,
    ServiceOverloadedError,
    ServingError,
    UnsupportedOperationError,
)
from repro.serve import (
    DEFAULT_FLUSH_LOG_LIMIT,
    ServingEngine,
    WorkerPool,
    serve_compatibility,
)
from tests.conftest import make_factors

K = 5
THETA = 0.5

COUNTERS = (
    "num_queries", "candidates", "results", "inner_products",
    "buckets_examined", "buckets_pruned",
)


def counters(stats: RunStats) -> tuple:
    return tuple(getattr(stats, name) for name in COUNTERS)


def assert_topk_equal(expected, actual):
    assert np.array_equal(expected.indices, actual.indices)
    assert np.array_equal(expected.scores, actual.scores)


def assert_above_equal(expected, actual):
    assert np.array_equal(expected.query_ids, actual.query_ids)
    assert np.array_equal(expected.probe_ids, actual.probe_ids)
    assert np.array_equal(expected.scores, actual.scores)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    """A saved LEMP-LI index with a warm tuning cache for (K, THETA)."""
    probes = make_factors(300, rank=12, length_cov=1.0, seed=11)
    queries = make_factors(64, rank=12, length_cov=1.0, seed=12)
    engine = RetrievalEngine("lemp:LI").fit(probes)
    engine.row_top_k(queries, K)
    engine.above_theta(queries, THETA)
    path = tmp_path_factory.mktemp("serving") / "index"
    engine.save(path)
    return path


@pytest.fixture()
def requests_64():
    """64 single-client request blocks of 2 query rows each."""
    rows = make_factors(128, rank=12, length_cov=1.0, seed=13)
    return [rows[i * 2:(i + 1) * 2] for i in range(64)]


def serial_baseline(index_dir, requests):
    """Issue every request alone on a fresh warm engine; results + counters."""
    engine = RetrievalEngine.load(index_dir)
    topk = [engine.row_top_k(block, K) for block in requests]
    above = [engine.above_theta(block, THETA) for block in requests]
    return topk, above, counters(engine.stats)


# ---------------------------------------------------------------- determinism


def test_concurrent_serving_matches_serial_byte_for_byte(index_dir, requests_64):
    expected_topk, expected_above, expected_counters = serial_baseline(
        index_dir, requests_64
    )

    async def drive():
        engine = RetrievalEngine.load(index_dir)
        async with ServingEngine(engine, max_batch_rows=32) as serving:
            topk = await asyncio.gather(
                *(serving.row_top_k(block, K) for block in requests_64)
            )
            above = await asyncio.gather(
                *(serving.above_theta(block, THETA) for block in requests_64)
            )
        return topk, above, counters(engine.stats), serving

    topk, above, served_counters, serving = asyncio.run(drive())
    for expected, actual in zip(expected_topk, topk):
        assert_topk_equal(expected, actual)
    for expected, actual in zip(expected_above, above):
        assert_above_equal(expected, actual)
    assert served_counters == expected_counters
    # 64 clients were actually coalesced, not solved one by one.
    assert serving.requests_admitted == 128
    assert len(serving.flushes) < 128
    assert all(record.num_requests > 1 for record in serving.flushes)


def test_serving_over_process_pool_matches_serial(index_dir, requests_64):
    requests = requests_64[:16]
    expected_topk, expected_above, expected_counters = serial_baseline(
        index_dir, requests
    )

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=16) as serving:
            topk = await asyncio.gather(
                *(serving.row_top_k(block, K) for block in requests)
            )
            above = await asyncio.gather(
                *(serving.above_theta(block, THETA) for block in requests)
            )
        return topk, above

    with WorkerPool(index_dir, workers=2) as pool:
        engine = RetrievalEngine.load(index_dir, mmap_mode="r")
        engine.use_worker_pool(pool)
        topk, above = asyncio.run(drive(engine))
        assert engine.history[-1].plan.backend == "processes"

    for expected, actual in zip(expected_topk, topk):
        assert_topk_equal(expected, actual)
    for expected, actual in zip(expected_above, above):
        assert_above_equal(expected, actual)
    assert counters(engine.stats) == expected_counters


def test_worker_pool_direct_calls_match_serial(index_dir, requests_64):
    """The process backend alone (no serving layer): chunked calls match."""
    stacked = np.vstack(requests_64[:8])
    baseline = RetrievalEngine.load(index_dir)
    expected_topk = baseline.row_top_k(stacked, K, batch_size=4)
    expected_above = baseline.above_theta(stacked, THETA, batch_size=4)

    with WorkerPool(index_dir, workers=2) as pool:
        engine = RetrievalEngine.load(index_dir, mmap_mode="r")
        engine.use_worker_pool(pool)
        actual_topk = engine.row_top_k(stacked, K, batch_size=4)
        actual_above = engine.above_theta(stacked, THETA, batch_size=4)
        plan = engine.history[-1].plan
        assert plan.backend == "processes"
        assert plan.workers == 2
        assert "process pool" in plan.reason
        assert "backend       : processes" in plan.describe()
        engine.detach_worker_pool()
        assert engine.explain(stacked, k=K).backend == "serial"

    assert_topk_equal(expected_topk, actual_topk)
    assert_above_equal(expected_above, actual_above)
    assert counters(engine.stats) == counters(baseline.stats)


def test_worker_pool_refuses_a_retriever_without_worker_views(tmp_path):
    """Each worker solves on a worker view, which the clustered extension lacks:
    attaching a pool is refused before any worker process starts."""
    probes = make_factors(200, rank=12, seed=16)
    RetrievalEngine("clustered", num_clusters=4).fit(probes).save(tmp_path / "idx")
    engine = RetrievalEngine.load(tmp_path / "idx")
    with WorkerPool(tmp_path / "idx", workers=2) as pool:
        with pytest.raises(UnsupportedOperationError, match="worker_view"):
            engine.use_worker_pool(pool)
        assert not pool._executor._processes
    assert engine.worker_pool is None


def test_process_plan_without_pool_is_rejected(index_dir):
    engine = RetrievalEngine.load(index_dir)
    engine.use_worker_pool(type("Pool", (), {"size": 2})())
    plan = engine.explain(4, k=K)
    engine.detach_worker_pool()
    queries = make_factors(4, rank=12, seed=14)
    with pytest.raises(UnsupportedOperationError, match="worker pool"):
        list(run_plan(engine, plan, queries, None))


# ------------------------------------------------------------ flush behaviour


def run_serving(requests, **serving_kwargs):
    """Helper: serve blocks concurrently on a fresh engine, return the engine."""

    async def drive(engine):
        async with ServingEngine(engine, **serving_kwargs) as serving:
            results = await asyncio.gather(
                *(serving.row_top_k(block, K) for block in requests)
            )
        return results, serving

    return drive


def test_one_row_budget_makes_every_request_its_own_batch(index_dir):
    rows = make_factors(4, rank=12, seed=15)
    requests = [rows[i:i + 1] for i in range(4)]
    engine = RetrievalEngine.load(index_dir)
    results, serving = asyncio.run(run_serving(
        requests, max_batch_rows=1)(engine))
    assert [record.reason for record in serving.flushes] == ["rows"] * 4
    assert [record.num_requests for record in serving.flushes] == [1] * 4
    baseline = RetrievalEngine.load(index_dir)
    for block, actual in zip(requests, results):
        assert_topk_equal(baseline.row_top_k(block, K), actual)


def test_exactly_max_rows_flushes_synchronously(index_dir):
    rows = make_factors(8, rank=12, seed=16)
    gate = threading.Event()

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=8) as serving:
            held = asyncio.ensure_future(serving.mutate(gate.wait, 10))
            await asyncio.sleep(0)  # the mutation holds the solver busy
            first = asyncio.ensure_future(serving.row_top_k(rows[:4], K))
            await asyncio.sleep(0)  # admitted below the budget: it only queues
            below_budget = list(serving.flushes)
            second = asyncio.ensure_future(serving.row_top_k(rows[4:], K))
            await asyncio.sleep(0)
            # The solver is still busy, so no idle dispatch can have run: only
            # the row budget (reached exactly, 4 + 4 = 8) flushed this batch.
            flushed = list(serving.flushes)
            gate.set()
            await asyncio.gather(first, second, held)
        return below_budget, flushed

    below_budget, flushed = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert below_budget == []
    assert [record.reason for record in flushed] == ["rows"]
    assert flushed[0].num_rows == 8
    assert flushed[0].num_requests == 2


def test_idle_solver_dispatches_a_lone_request_at_once(index_dir):
    rows = make_factors(2, rank=12, seed=17)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=1024) as serving:
            request = asyncio.ensure_future(serving.row_top_k(rows, K))
            await asyncio.sleep(0)  # admitted: one dispatch scheduled
            await asyncio.sleep(0)  # the dispatch ran in the next loop turn
            flushed = list(serving.flushes)
            result = await request
        return flushed, result

    flushed, result = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert [record.reason for record in flushed] == ["idle"]
    assert flushed[0].num_rows == 2
    assert_topk_equal(RetrievalEngine.load(index_dir).row_top_k(rows, K), result)


@pytest.mark.parametrize("held", ["batch", "mutation"])
def test_requests_coalesce_while_the_solver_is_held(index_dir, held):
    """Requests that arrive while the solver works flush together, one batch
    per key, when the held work item finishes; results stay byte-identical."""
    lone = make_factors(1, rank=12, seed=50)
    top_blocks = [make_factors(2, rank=12, seed=51 + i) for i in range(3)]
    above_blocks = [make_factors(2, rank=12, seed=54 + i) for i in range(2)]
    extra = make_factors(20, rank=12, length_cov=1.0, seed=56)
    gate = threading.Event()
    held_batches = 1 if held == "batch" else 0

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=1024) as serving:
            if held == "batch":
                original = serving._solve_group

                def held_solve(key, requests):
                    gate.wait(timeout=10)
                    return original(key, requests)

                serving._solve_group = held_solve
                first = asyncio.ensure_future(serving.row_top_k(lone, K))
            else:
                def held_mutation():
                    gate.wait(timeout=10)
                    return engine.partial_fit(extra)

                first = asyncio.ensure_future(serving.mutate(held_mutation))
            while len(serving.flushes) < held_batches:
                await asyncio.sleep(0)
            await asyncio.sleep(0)  # the held item is on the solver thread
            queued = [serving.row_top_k(block, K) for block in top_blocks]
            queued += [serving.above_theta(block, THETA) for block in above_blocks]
            queued = [asyncio.ensure_future(request) for request in queued]
            while serving.requests_admitted < held_batches + len(queued):
                await asyncio.sleep(0)
            busy_flushes = len(serving.flushes)
            gate.set()
            first_result = await first
            results = await asyncio.gather(*queued)
        return first_result, results, busy_flushes, serving.flushes

    first_result, results, busy_flushes, flushes = asyncio.run(
        drive(RetrievalEngine.load(index_dir))
    )
    reference = RetrievalEngine.load(index_dir)
    if held == "batch":
        assert flushes[0].reason == "idle" and flushes[0].num_requests == 1
        assert_topk_equal(reference.row_top_k(lone, K), first_result)
    else:
        reference.partial_fit(extra)
    assert busy_flushes == held_batches  # nothing flushed while busy
    after = flushes[busy_flushes:]
    assert sorted((r.key.problem, r.num_requests, r.reason) for r in after) == [
        ("above_theta", 2, "idle"), ("row_top_k", 3, "idle"),
    ]
    for block, actual in zip(top_blocks, results[:3]):
        assert_topk_equal(reference.row_top_k(block, K), actual)
    for block, actual in zip(above_blocks, results[3:]):
        assert_above_equal(reference.above_theta(block, THETA), actual)
    assert all(r.wait_s >= 0.0 and r.solve_s >= 0.0 for r in flushes)


def test_a_queued_group_waits_for_one_work_item_only(index_dir):
    """A group queued on a busy solver flushes when the next work item
    finishes, even while work handed off after it (here a batch flushed on
    its row budget) keeps the solver busy: one key cannot starve another."""
    rows = make_factors(3, rank=12, seed=59)
    mutation_gate, batch_gate = threading.Event(), threading.Event()

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=2) as serving:
            original = serving._solve_group

            def held_solve(key, requests):
                if key.problem == "row_top_k":
                    batch_gate.wait(timeout=10)
                return original(key, requests)

            serving._solve_group = held_solve
            mutation = asyncio.ensure_future(serving.mutate(mutation_gate.wait, 10))
            await asyncio.sleep(0)  # the mutation holds the solver
            budget = asyncio.ensure_future(serving.row_top_k(rows[:2], K))
            queued = asyncio.ensure_future(serving.above_theta(rows[2:], THETA))
            while serving.requests_admitted < 2:
                await asyncio.sleep(0)
            try:
                mutation_gate.set()
                await mutation
                for _ in range(100):
                    if len(serving.flushes) == 2:
                        break
                    await asyncio.sleep(0.01)
                flushed = [(r.key.problem, r.reason) for r in serving.flushes]
            finally:
                batch_gate.set()
            return flushed, await budget, await queued

    flushed, top, above = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    # The above-θ group flushed while the budget batch was still held.
    assert flushed == [("row_top_k", "rows"), ("above_theta", "idle")]
    reference = RetrievalEngine.load(index_dir)
    assert_topk_equal(reference.row_top_k(rows[:2], K), top)
    assert_above_equal(reference.above_theta(rows[2:], THETA), above)


def test_flush_record_times_wait_and_solve(index_dir):
    rows = make_factors(2, rank=12, seed=57)

    async def drive(engine):
        async with ServingEngine(engine) as serving:
            slow_solver(serving, 0.05)
            await serving.row_top_k(rows, K)
        return serving.flushes

    (record,) = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert record.reason == "idle"
    # Dispatched at once on an idle solver: it queued for less than it solved.
    assert 0.0 <= record.wait_s < record.solve_s
    assert record.solve_s >= 0.05


def test_incompatible_parameters_never_coalesce(index_dir):
    rows = make_factors(4, rank=12, seed=18)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=64) as serving:
            await asyncio.gather(
                serving.row_top_k(rows[:2], K),
                serving.row_top_k(rows[2:], K + 1),
                serving.above_theta(rows[:2], THETA),
            )
            return serving

    serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    keys = {(record.key.problem, record.key.parameter) for record in serving.flushes}
    assert len(serving.flushes) == 3
    assert keys == {
        ("row_top_k", float(K)), ("row_top_k", float(K + 1)),
        ("above_theta", THETA),
    }


# ------------------------------------------------- admission, deadlines, errors


def slow_solver(serving, delay):
    """Wrap the serving engine's solver body with a fixed sleep."""
    original = serving._solve_group

    def solve(key, requests):
        time.sleep(delay)
        return original(key, requests)

    serving._solve_group = solve


def test_overload_sheds_with_typed_error(index_dir):
    rows = make_factors(8, rank=12, seed=19)

    async def drive(engine):
        async with ServingEngine(
            engine, max_batch_rows=4, max_pending_rows=4
        ) as serving:
            slow_solver(serving, 0.05)
            first = asyncio.ensure_future(serving.row_top_k(rows[:4], K))
            await asyncio.sleep(0)  # first request admitted and solving
            with pytest.raises(ServiceOverloadedError, match="shed"):
                await serving.row_top_k(rows[4:6], K)
            await first
            return serving

    serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert serving.requests_shed == 1
    assert serving.requests_admitted == 1


def test_oversized_request_is_admitted_when_idle(index_dir):
    rows = make_factors(8, rank=12, seed=20)

    async def drive(engine):
        async with ServingEngine(
            engine, max_batch_rows=4, max_pending_rows=2
        ) as serving:
            return await serving.row_top_k(rows, K)

    result = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert result.indices.shape == (8, K)


def test_deadline_raises_timeout_but_batch_completes(index_dir):
    rows = make_factors(4, rank=12, seed=21)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=2) as serving:
            slow_solver(serving, 0.1)
            with pytest.raises(RequestTimeoutError, match="deadline"):
                await serving.row_top_k(rows[:2], K, timeout=0.01)
            # The batch itself still ran to completion during aclose();
            # a subsequent request on the same engine works normally.
            late = await serving.row_top_k(rows[2:], K)
            return late, serving

    late, serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert serving.requests_timed_out == 1
    assert late.indices.shape == (2, K)


def test_solver_errors_reach_the_caller(index_dir):
    bad_rank = make_factors(2, rank=7, seed=22)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=2) as serving:
            await serving.row_top_k(bad_rank, K)

    with pytest.raises(DimensionMismatchError):
        asyncio.run(drive(RetrievalEngine.load(index_dir)))


def test_unstarted_serving_engine_rejects_requests(index_dir):
    serving = ServingEngine(RetrievalEngine.load(index_dir))
    with pytest.raises(InvalidParameterError, match="not started"):
        asyncio.run(serving.row_top_k(make_factors(2, rank=12, seed=23), K))


# ------------------------------------------------ accounting regression pins


def test_timed_out_request_is_never_counted_served(index_dir):
    """Regression: a timed-out caller must not also be counted in rows_served.

    The shield leaves the timed-out request's inner future un-done, so the
    demux used to resolve it anyway and add its rows to ``rows_served`` —
    one request counted both timed-out and served.
    """
    rows = make_factors(4, rank=12, seed=30)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=2) as serving:
            slow_solver(serving, 0.1)
            with pytest.raises(RequestTimeoutError):
                await serving.row_top_k(rows[:2], K, timeout=0.01)
            late = await serving.row_top_k(rows[2:], K)
            assert late.indices.shape == (2, K)
            return serving

    serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert serving.requests_timed_out == 1
    # Only the late request's 2 rows were served; the abandoned request's
    # rows still returned to the admission budget when its batch finished.
    assert serving.rows_served == 2
    assert serving.pending_rows == 0


def test_flush_log_is_bounded(index_dir):
    rows = make_factors(8, rank=12, seed=31)
    requests = [rows[i:i + 1] for i in range(8)]
    engine = RetrievalEngine.load(index_dir)
    _, serving = asyncio.run(run_serving(
        requests, max_batch_rows=1, flush_log_limit=3)(engine))
    # 8 batches flushed (admission counters say so), only the 3 newest kept.
    assert serving.requests_admitted == 8
    assert len(serving.flushes) == 3


def test_flush_log_limit_defaults_and_unbounded_opt_out(index_dir):
    engine = RetrievalEngine.load(index_dir)
    assert ServingEngine(engine).flush_log_limit == DEFAULT_FLUSH_LOG_LIMIT
    with pytest.raises(InvalidParameterError):
        ServingEngine(engine, flush_log_limit=0)
    rows = make_factors(8, rank=12, seed=32)
    requests = [rows[i:i + 1] for i in range(8)]
    _, serving = asyncio.run(run_serving(
        requests, max_batch_rows=1, flush_log_limit=None)(engine))
    assert len(serving.flushes) == 8


def test_submit_during_aclose_is_shed_not_hung(index_dir):
    """Regression: a request admitted while aclose() drains used to land in
    a fresh group nobody flushes — its future never resolved and its rows
    leaked from the admission budget permanently."""
    rows = make_factors(6, rank=12, seed=33)

    async def drive(engine):
        serving = await ServingEngine(
            engine, max_batch_rows=2
        ).start()
        slow_solver(serving, 0.05)
        first = asyncio.ensure_future(serving.row_top_k(rows[:2], K))
        await asyncio.sleep(0)  # first request admitted, its batch solving
        closer = asyncio.ensure_future(serving.aclose())
        await asyncio.sleep(0)  # aclose() entered: closing flag raised
        with pytest.raises(ServingError, match="shutting down"):
            await serving.row_top_k(rows[2:4], K)
        result = await first  # the in-flight batch still answers its caller
        await closer
        # A closed engine keeps shedding (never InvalidParameterError's
        # "not started", which the manager would not treat as retryable).
        with pytest.raises(ServingError, match="shutting down"):
            await serving.row_top_k(rows[4:], K)
        return result, serving

    result, serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    assert result.indices.shape == (2, K)
    assert serving.requests_shed == 2
    assert serving.pending_rows == 0


@pytest.mark.parametrize("caller", ["waiting", "cancelled"])
def test_aclose_awaits_a_mutation_without_blocking_the_loop(index_dir, caller):
    """aclose() waits for an in-flight mutation on the loop: other coroutines
    keep running meanwhile, and the mutation is still applied — also when
    its caller was cancelled after the hand-off."""
    extra = make_factors(20, rank=12, length_cov=1.0, seed=58)
    gate = threading.Event()
    # Would a frozen loop never set the gate, this timer still ends the test.
    fallback = threading.Timer(5.0, gate.set)

    async def drive(engine):
        serving = await ServingEngine(engine).start()

        def held_mutation():
            gate.wait(timeout=10)
            return engine.partial_fit(extra)

        mutation = asyncio.ensure_future(serving.mutate(held_mutation))
        await asyncio.sleep(0)  # handed to the solver thread
        if caller == "cancelled":
            mutation.cancel()
        closer = asyncio.ensure_future(serving.aclose())
        for _ in range(5):
            await asyncio.sleep(0.001)  # this coroutine keeps running
        closing_while_ticking = not closer.done() and not gate.is_set()
        gate.set()
        await closer
        returned = await asyncio.gather(mutation, return_exceptions=True)
        return returned[0], closing_while_ticking

    engine = RetrievalEngine.load(index_dir)
    rows_before = engine.num_probes
    fallback.start()
    try:
        returned, closing_while_ticking = asyncio.run(drive(engine))
    finally:
        fallback.cancel()
    assert closing_while_ticking
    if caller == "waiting":
        assert returned is engine
    else:
        assert isinstance(returned, asyncio.CancelledError)
    assert engine.num_probes == rows_before + 20


def test_rows_release_before_caller_future_resolves(index_dir):
    """Regression pin for late backpressure release: each request's rows
    must return to the admission budget *before* its future resolves, on
    the success and the solver-error path alike."""
    rows = make_factors(4, rank=12, seed=34)
    bad_rank = make_factors(2, rank=7, seed=35)
    events = []

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=2) as serving:
            original_release = serving._release

            def recording_release(request):
                # done() False here means the release happened strictly
                # before set_result / set_exception on that future.
                events.append((request.rows, request.future.done()))
                original_release(request)

            serving._release = recording_release
            await serving.row_top_k(rows[:2], K)
            with pytest.raises(DimensionMismatchError):
                await serving.row_top_k(bad_rank, K)
            return serving

    serving = asyncio.run(drive(RetrievalEngine.load(index_dir)))
    # First release of each request fired with its future still unresolved;
    # the finally sweep then saw them already released (done=True no-ops).
    first_release = {}
    for rows_count, done in events:
        first_release.setdefault(rows_count, done)
    assert set(first_release.values()) == {False}
    assert serving.pending_rows == 0


# ------------------------------------------------------- mutate while serving


def test_mutate_runs_between_batches_and_matches_quiesced(index_dir):
    """partial_fit/remove through mutate() interleaved with live queries:
    every result is byte-identical to a quiesced engine in the same state."""
    queries = make_factors(8, rank=12, seed=36)
    extra = make_factors(20, rank=12, length_cov=1.0, seed=37)

    reference = RetrievalEngine.load(index_dir)
    before = reference.row_top_k(queries, K)
    reference.partial_fit(extra)
    after_add = reference.row_top_k(queries, K)
    reference.remove(np.arange(10))
    after_remove = reference.row_top_k(queries, K)

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=8) as serving:
            served_before = await serving.row_top_k(queries, K)
            grown = await serving.mutate(engine.partial_fit, extra)
            served_added = await serving.row_top_k(queries, K)
            await serving.mutate(engine.remove, np.arange(10))
            served_removed = await serving.row_top_k(queries, K)
        return served_before, served_added, served_removed, grown

    engine = RetrievalEngine.load(index_dir)
    served_before, served_added, served_removed, grown = asyncio.run(drive(engine))
    assert grown is engine  # mutate() returns the mutation's own result
    assert_topk_equal(before, served_before)
    assert_topk_equal(after_add, served_added)
    assert_topk_equal(after_remove, served_removed)


def test_concurrent_mutation_yields_pre_or_post_state_results(index_dir):
    """A mutation racing a query swarm lands between micro-batches: every
    served result equals the pre- or the post-mutation quiesced result,
    never a blend of the two index states."""
    blocks = [make_factors(2, rank=12, seed=40 + i) for i in range(12)]
    extra = make_factors(25, rank=12, length_cov=1.0, seed=39)

    reference = RetrievalEngine.load(index_dir)
    pre = [reference.row_top_k(block, K) for block in blocks]
    reference.partial_fit(extra)
    post = [reference.row_top_k(block, K) for block in blocks]

    async def drive(engine):
        async with ServingEngine(engine, max_batch_rows=4) as serving:
            slow_solver(serving, 0.002)

            async def mutator():
                await asyncio.sleep(0.004)
                await serving.mutate(engine.partial_fit, extra)

            results, _ = await asyncio.gather(
                asyncio.gather(*(serving.row_top_k(block, K) for block in blocks)),
                mutator(),
            )
        return results

    results = asyncio.run(drive(RetrievalEngine.load(index_dir)))

    def equals(expected, actual):
        return (np.array_equal(expected.indices, actual.indices)
                and np.array_equal(expected.scores, actual.scores))

    for expected_pre, expected_post, actual in zip(pre, post, results):
        assert equals(expected_pre, actual) or equals(expected_post, actual)


def test_mutate_is_rejected_when_closed_or_unstarted(index_dir):
    engine = RetrievalEngine.load(index_dir)
    serving = ServingEngine(engine)
    with pytest.raises(InvalidParameterError, match="not started"):
        asyncio.run(serving.mutate(engine.partial_fit, make_factors(2, rank=12, seed=41)))

    async def drive():
        async with ServingEngine(engine) as live:
            pass
        with pytest.raises(ServingError, match="mutation rejected"):
            await live.mutate(engine.partial_fit, make_factors(2, rank=12, seed=41))

    asyncio.run(drive())


# ----------------------------------------------------------------- mmap layout


def test_mmap_reload_is_bit_identical_and_actually_mapped(index_dir):
    queries = make_factors(32, rank=12, seed=24)
    eager = RetrievalEngine.load(index_dir)
    mapped = RetrievalEngine.load(index_dir, mmap_mode="r")
    assert_topk_equal(eager.row_top_k(queries, K), mapped.row_top_k(queries, K))
    assert_above_equal(
        eager.above_theta(queries, THETA), mapped.above_theta(queries, THETA)
    )
    assert counters(eager.stats) == counters(mapped.stats)

    arrays = mmap_npz_arrays(index_dir / "index.npz")
    assert any(
        isinstance(array, np.memmap) for array in arrays.values() if array.size
    )
    for array in arrays.values():
        if isinstance(array, np.memmap):
            assert not array.flags.writeable


def test_format_2_indexes_still_load(index_dir, tmp_path):
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "index.npz").write_bytes((index_dir / "index.npz").read_bytes())
    meta = json.loads((index_dir / "meta.json").read_text())
    assert meta["format"] == FORMAT_VERSION
    meta["format"] = 2
    del meta["mmap_layout"]
    (legacy / "meta.json").write_text(json.dumps(meta))

    queries = make_factors(16, rank=12, seed=25)
    current = RetrievalEngine.load(index_dir)
    old_eager = RetrievalEngine.load(legacy)
    assert_topk_equal(current.row_top_k(queries, K), old_eager.row_top_k(queries, K))
    # np.savez always wrote stored members, so even pre-format-3 indexes map.
    old_mapped = RetrievalEngine.load(legacy, mmap_mode="r")
    assert_topk_equal(current.row_top_k(queries, K), old_mapped.row_top_k(queries, K))


def test_invalid_mmap_mode_is_rejected(index_dir):
    with pytest.raises(PersistenceError, match="mmap_mode"):
        RetrievalEngine.load(index_dir, mmap_mode="r+")


def test_worker_pool_requires_a_saved_index(tmp_path):
    with pytest.raises(PersistenceError, match="meta.json"):
        WorkerPool(tmp_path / "nowhere", workers=2)


# -------------------------------------------------------------- compatibility


def test_serve_compatibility_reports_lemp_features(index_dir):
    compat = serve_compatibility(RetrievalEngine.load(index_dir))
    assert compat["problems"] == ["above_theta", "row_top_k"]
    assert compat["micro_batching"] is True
    assert compat["mmap_index"] is True
    assert compat["process_backend"] is True
    assert compat["deterministic_counters"] == "always"
    l2ap = RetrievalEngine("lemp:L2AP").fit(make_factors(50, rank=12, seed=21))
    assert serve_compatibility(l2ap)["deterministic_counters"] == "warm bucket indexes"


def test_cli_serve_reports_latency_stats(index_dir):
    from repro.cli import main

    buffer = io.StringIO()
    code = main(
        ["serve", "--index", str(index_dir), "--clients", "4", "--requests", "2",
         "--rows", "2"],
        out=buffer,
    )
    output = buffer.getvalue()
    assert code == 0
    assert "latency p50 (ms)" in output
    assert "batches flushed" in output


def test_cli_explain_prints_serve_compatibility():
    from repro.cli import main

    buffer = io.StringIO()
    code = main(["explain", "--dataset", "netflix", "--k", "10"], out=buffer)
    output = buffer.getvalue()
    assert code == 0
    assert "micro-batching   : yes (byte-identical demux)" in output
    assert "process backend  : yes" in output
