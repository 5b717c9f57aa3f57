"""Verification-kernel equivalence and parallel-execution determinism.

Two contracts are asserted here:

* **Kernel determinism** — under either kernel (``blocked`` BLAS or the
  ``einsum`` reference), a candidate row's score is a pure function of the
  row and the query: independent of which other candidates are scored with
  it, of their order, and of their count.  This is the invariant every
  engine equivalence guarantee (tuning on/off, incremental updates,
  reloads, serial vs. parallel) rests on.
* **Parallel determinism** — ``RetrievalEngine(workers=N)`` returns results
  byte-identical to serial execution, with identical cumulative statistics
  and :class:`~repro.engine.facade.EngineCall` counters.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Lemp, RetrievalEngine
from repro.core import kernels
from repro.core.kernels import (
    ALIGNMENT,
    BLOCK_ROWS,
    gather_matvec,
    get_kernel,
    matvec,
    set_kernel,
    use_kernel,
)
from repro.exceptions import InvalidParameterError
from tests.conftest import make_factors


def random_rows(count, rank, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, rank)).astype(dtype)


def grouped_problem(sizes, rank, seed, dtype=np.float64, order=None):
    """A matrix, one query per group and random rows, group ``order[i]`` holding ``sizes[i]``."""
    rng = np.random.default_rng(seed)
    matrix = random_rows(300, rank, seed, dtype)
    queries = rng.standard_normal((len(sizes), rank)).astype(dtype)
    groups = np.repeat(np.arange(len(sizes)) if order is None else np.asarray(order), sizes)
    rows = rng.integers(0, matrix.shape[0], size=groups.size)
    return matrix, rows, queries, groups


def per_group(matrix, rows, queries, groups):
    """The reference for a grouped call: one single-query call per run of equal groups."""
    starts = [i for i in range(rows.size) if i == 0 or groups[i] != groups[i - 1]]
    stops = [*starts[1:], rows.size]
    return np.concatenate([gather_matvec(matrix, rows[a:b], queries[groups[a]])
                           for a, b in zip(starts, stops)])


# --------------------------------------------------------------- kernel choice


class TestKernelSelection:
    def test_default_is_blocked(self):
        # REPRO_KERNEL overrides the default at import (itself tested below).
        assert get_kernel() == os.environ.get("REPRO_KERNEL", "blocked")

    def test_set_kernel_roundtrip(self):
        initial = get_kernel()
        other = "einsum" if initial == "blocked" else "blocked"
        previous = set_kernel(other)
        try:
            assert previous == initial
            assert get_kernel() == other
        finally:
            set_kernel(previous)
        assert get_kernel() == initial

    def test_use_kernel_restores_on_exit(self):
        initial = get_kernel()
        other = "einsum" if initial == "blocked" else "blocked"
        with use_kernel(other):
            assert get_kernel() == other
        assert get_kernel() == initial

    def test_use_kernel_restores_on_error(self):
        initial = get_kernel()
        other = "einsum" if initial == "blocked" else "blocked"
        with pytest.raises(RuntimeError):
            with use_kernel(other):
                raise RuntimeError("boom")
        assert get_kernel() == initial

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidParameterError):
            set_kernel("fma")

    def test_blocked_support_probe_and_fallback(self, monkeypatch):
        """The backend probe passes here; a failing probe falls back to einsum."""
        assert kernels.blocked_kernel_supported() is True
        # Simulate a backend that fails the determinism probe.
        monkeypatch.setattr(kernels, "_blocked_supported", None)
        monkeypatch.setattr(kernels, "_probe_blocked_determinism", lambda: False)
        with pytest.warns(RuntimeWarning, match="falls back to the einsum reference"):
            assert kernels.blocked_kernel_supported() is False
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((50, 9))
        rows = np.arange(0, 50, 3)
        query = rng.standard_normal(9)
        with use_kernel("blocked"):
            scores = gather_matvec(matrix, rows, query)
        np.testing.assert_array_equal(scores, np.einsum("ij,j->i", matrix[rows], query))

    def test_stacked_support_probe_and_fallback(self, monkeypatch):
        """The stacked probe passes here; a failing probe scores group by group."""
        assert kernels.stacked_kernel_supported() is True
        matrix, rows, queries, groups = grouped_problem((1, 15, 16, 17, 40), rank=9, seed=3)
        with use_kernel("blocked"):
            stacked = gather_matvec(matrix, rows, queries, groups)
        # Simulate a backend whose stacked products change a row's bits.
        monkeypatch.setattr(kernels, "_stacked_supported", None)
        monkeypatch.setattr(kernels, "_probe_stacked_determinism", lambda: False)

        def refuse(*args):
            raise AssertionError("stacked scoring ran after its probe failed")

        monkeypatch.setattr(kernels, "_stacked_gather", refuse)
        with use_kernel("blocked"):
            with pytest.warns(RuntimeWarning, match="falls back to one call per group"):
                scores = gather_matvec(matrix, rows, queries, groups)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = gather_matvec(matrix, rows, queries, groups)
            expected = per_group(matrix, rows, queries, groups)
        for result in (stacked, scores, again):
            np.testing.assert_array_equal(result, expected)

    def test_environment_variable_selects_kernel(self):
        script = "from repro.core.kernels import get_kernel; print(get_kernel())"
        env = dict(os.environ, REPRO_KERNEL="einsum")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert output.stdout.strip() == "einsum"


# ---------------------------------------------------------- kernel determinism


class TestBlockedKernelDeterminism:
    """A row's score never depends on the surrounding candidate set."""

    @pytest.fixture(autouse=True)
    def _force_blocked_kernel(self):
        # These tests target the blocked kernel specifically; pin it even
        # when the suite runs under REPRO_KERNEL=einsum.
        with use_kernel("blocked"):
            yield

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rank", [1, 7, 24, 50, 128])
    def test_subset_and_permutation_invariance(self, dtype, rank):
        rng = np.random.default_rng(99)
        rows = random_rows(2500, rank, seed=3, dtype=dtype)
        query = rng.standard_normal(rank).astype(dtype)
        full = matvec(rows, query)
        assert full.dtype == dtype
        for trial in range(8):
            size = int(rng.integers(1, rows.shape[0] + 1))
            selection = np.sort(rng.choice(rows.shape[0], size=size, replace=False))
            np.testing.assert_array_equal(matvec(rows[selection], query), full[selection])
        for trial in range(3):
            order = rng.permutation(rows.shape[0])
            np.testing.assert_array_equal(matvec(rows[order], query), full[order])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_alignment_and_block_boundaries(self, dtype):
        """Every remainder-vs-aligned code path scores rows identically."""
        align = ALIGNMENT[np.dtype(dtype).itemsize]
        rank = 19
        rng = np.random.default_rng(5)
        rows = random_rows(BLOCK_ROWS + 2 * align + 3, rank, seed=11, dtype=dtype)
        query = rng.standard_normal(rank).astype(dtype)
        full = matvec(rows, query)
        sizes = sorted(
            {1, 2, align - 1, align, align + 1, 2 * align, 3 * align - 1,
             BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, rows.shape[0]}
        )
        for size in sizes:
            np.testing.assert_array_equal(matvec(rows[:size], query), full[:size])

    def test_non_contiguous_inputs_match_contiguous(self):
        rng = np.random.default_rng(17)
        rows = random_rows(333, 40, seed=23)
        query = rng.standard_normal(40)
        reference = matvec(rows, query)
        fortran = np.asfortranarray(rows)
        strided = np.repeat(rows, 2, axis=0)[::2]
        strided_query = np.repeat(query, 2)[::2]
        np.testing.assert_array_equal(matvec(fortran, query), reference)
        np.testing.assert_array_equal(matvec(strided, query), reference)
        np.testing.assert_array_equal(matvec(rows, strided_query), reference)

    def test_empty_and_rank_edge_cases(self):
        query = np.ones(6)
        assert matvec(np.empty((0, 6)), query).shape == (0,)
        zero_rank = matvec(np.empty((5, 0)), np.empty(0))
        np.testing.assert_array_equal(zero_rank, np.zeros(5))

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=700),
        rank=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_subset_invariance_hypothesis(self, count, rank, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((count, rank))
        query = rng.standard_normal(rank)
        full = matvec(rows, query)
        size = int(rng.integers(1, count + 1))
        selection = np.sort(rng.choice(count, size=size, replace=False))
        np.testing.assert_array_equal(matvec(rows[selection], query), full[selection])


class TestGroupedGather:
    """A grouped call keeps the bits of one single-query call per group."""

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rank", [1, 23])
    def test_group_sizes_around_alignment_and_block(self, kernel, dtype, rank):
        align = ALIGNMENT[np.dtype(dtype).itemsize]
        sizes = (1, 15, 16, 17, align - 1, align, align + 1, BLOCK_ROWS + 5, 2, 3 * align)
        matrix, rows, queries, groups = grouped_problem(sizes, rank, seed=rank, dtype=dtype)
        with use_kernel(kernel):
            scores = gather_matvec(matrix, rows, queries, groups)
            expected = per_group(matrix, rows, queries, groups)
        assert scores.dtype == dtype
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_many_small_groups_in_any_group_order(self, kernel):
        # ~700 groups span several BLOCK_ROWS-row stacked calls; group ids
        # need not be sorted, only contiguous.
        rng = np.random.default_rng(8)
        sizes = rng.integers(1, 21, size=700)
        matrix, rows, queries, groups = grouped_problem(
            sizes, rank=50, seed=8, order=rng.permutation(700))
        with use_kernel(kernel):
            np.testing.assert_array_equal(gather_matvec(matrix, rows, queries, groups),
                                          per_group(matrix, rows, queries, groups))

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_non_contiguous_and_mixed_dtype_inputs(self, kernel):
        matrix, rows, queries, groups = grouped_problem((3, 16, 17, 40), rank=12, seed=4)
        with use_kernel(kernel):
            reference = gather_matvec(matrix, rows, queries, groups)
            for m, r, q in (
                (matrix, rows, np.asfortranarray(queries)),
                (matrix, rows, np.repeat(queries, 2, axis=0)[::2]),
                (matrix, rows, np.repeat(queries, 2, axis=1)[:, ::2]),
                (np.asfortranarray(matrix), rows.astype(np.int32), queries),
            ):
                scores = gather_matvec(m, r, q, groups)
                np.testing.assert_array_equal(scores, per_group(m, r, q, groups))
                if kernel == "blocked":
                    # einsum's own bits depend on the layout; the blocked kernel's do not.
                    np.testing.assert_array_equal(scores, reference)
            # Mixed dtypes take the single-query fallback, group by group.
            matrix32 = matrix.astype(np.float32)
            mixed = gather_matvec(matrix32, rows, queries, groups)
            np.testing.assert_array_equal(mixed, per_group(matrix32, rows, queries, groups))

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_empty_rows(self, kernel):
        matrix, _, queries, _ = grouped_problem((1,), rank=5, seed=2)
        empty = np.empty(0, dtype=np.intp)
        with use_kernel(kernel):
            for q in (queries, queries[:0]):
                scores = gather_matvec(matrix, empty, q, empty)
                assert scores.shape == (0,) and scores.dtype == np.float64


class TestKernelAgreement:
    """Blocked and einsum kernels agree to floating-point rounding."""

    @pytest.fixture(autouse=True)
    def _force_blocked_kernel(self):
        with use_kernel("blocked"):
            yield

    @pytest.mark.parametrize("count,rank", [(1, 1), (3, 50), (40, 24), (513, 77), (5000, 32)])
    def test_matvec_close_to_einsum(self, count, rank):
        rng = np.random.default_rng(count * 1000 + rank)
        rows = rng.standard_normal((count, rank))
        query = rng.standard_normal(rank)
        blocked = matvec(rows, query)
        reference = np.einsum("ij,j->i", rows, query)
        np.testing.assert_allclose(blocked, reference, rtol=1e-10, atol=1e-12)

    def test_einsum_kernel_is_bitwise_reference(self):
        """The escape hatch reproduces the historical einsum path exactly."""
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((400, 33))
        rows = np.sort(rng.choice(400, size=150, replace=False))
        query = rng.standard_normal(33)
        with use_kernel("einsum"):
            scores = gather_matvec(matrix, rows, query)
        np.testing.assert_array_equal(scores, np.einsum("ij,j->i", matrix[rows], query))

    def test_gather_matvec_matches_matvec_on_gathered_rows(self):
        rng = np.random.default_rng(29)
        matrix = rng.standard_normal((600, 21))
        rows = np.sort(rng.choice(600, size=237, replace=False))
        query = rng.standard_normal(21)
        for name in kernels.KERNELS:
            with use_kernel(name):
                np.testing.assert_array_equal(
                    gather_matvec(matrix, rows, query), matvec(matrix[rows], query)
                )


# ------------------------------------------------- engine-level bit-identity


@pytest.fixture(scope="module")
def small_problem():
    probes = make_factors(900, rank=16, length_cov=0.9, seed=41)
    queries = make_factors(220, rank=16, length_cov=0.9, seed=42)
    return probes, queries


class TestEngineGuaranteesUnderBlockedKernel:
    """The guarantees einsum existed for still hold with the blocked kernel."""

    @pytest.mark.parametrize("kernel", list(kernels.KERNELS))
    def test_tuning_cache_on_off_bit_identical(self, small_problem, kernel):
        probes, queries = small_problem
        # LI's buckets here all tune to LENGTH; I runs the INCR route too.
        for algorithm in ("LI", "I"):
            with use_kernel(kernel):
                cached = Lemp(algorithm=algorithm, seed=0).fit(probes).row_top_k(queries, 7)
                fresh = Lemp(algorithm=algorithm, seed=0, tune_cache=False).fit(probes).row_top_k(
                    queries, 7)
            np.testing.assert_array_equal(cached.indices, fresh.indices)
            np.testing.assert_array_equal(cached.scores, fresh.scores)

    @pytest.mark.parametrize("kernel", list(kernels.KERNELS))
    def test_partial_fit_bit_identical_to_fresh_fit(self, small_problem, kernel):
        probes, queries = small_problem
        with use_kernel(kernel):
            incremental = Lemp(algorithm="LI", seed=0).fit(probes[:700])
            incremental.partial_fit(probes[700:])
            # The layout after a write may differ from a fresh fit's, and
            # Above-θ emits pairs in the walk order over the layout: the
            # pairs and their score bits must match, compared sorted.
            updated = incremental.above_theta(queries, 0.9).sorted_by_score()
            fresh = Lemp(algorithm="LI", seed=0).fit(probes).above_theta(
                queries, 0.9).sorted_by_score()
        np.testing.assert_array_equal(updated.query_ids, fresh.query_ids)
        np.testing.assert_array_equal(updated.probe_ids, fresh.probe_ids)
        np.testing.assert_array_equal(updated.scores, fresh.scores)

    def test_save_load_bit_identical(self, small_problem, tmp_path):
        probes, queries = small_problem
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        before = engine.row_top_k(queries, 5)
        engine.save(tmp_path / "idx")
        reloaded = RetrievalEngine.load(tmp_path / "idx")
        after = reloaded.row_top_k(queries, 5)
        np.testing.assert_array_equal(before.indices, after.indices)
        np.testing.assert_array_equal(before.scores, after.scores)

    def test_kernels_agree_on_retrieved_sets(self, small_problem):
        """Both kernels retrieve the same (query, probe) pairs."""
        probes, queries = small_problem
        # LI's buckets here all tune to LENGTH; I runs the INCR route too.
        for algorithm in ("LI", "I"):
            with use_kernel("blocked"):
                blocked = Lemp(algorithm=algorithm, seed=0).fit(probes).above_theta(queries, 0.9)
            with use_kernel("einsum"):
                einsum = Lemp(algorithm=algorithm, seed=0).fit(probes).above_theta(queries, 0.9)
            assert blocked.to_set() == einsum.to_set()
            np.testing.assert_allclose(
                blocked.sorted_by_score().scores, einsum.sorted_by_score().scores,
                rtol=1e-10, atol=1e-12,
            )


# ------------------------------------------------------- parallel determinism


#: RunStats counters compared between runs.  Tuning is a pure function of
#: the data, the thresholds and the seed, so every counter — candidate
#: counts included — agrees even between independently fitted engines.
COUNTERS = ("num_queries", "results", "buckets_examined", "buckets_pruned",
            "candidates", "inner_products")


def counter_snapshot(engine):
    return {name: getattr(engine.stats, name) for name in COUNTERS}


def counter_delta(engine, before):
    return {name: getattr(engine.stats, name) - before[name] for name in COUNTERS}


def assert_same_call(serial_call, parallel_call, expect_workers):
    assert parallel_call.problem == serial_call.problem
    assert parallel_call.parameter == serial_call.parameter
    assert parallel_call.num_queries == serial_call.num_queries
    assert parallel_call.num_batches == serial_call.num_batches
    assert parallel_call.num_results == serial_call.num_results
    assert parallel_call.tuning_cache_hits == serial_call.tuning_cache_hits
    assert parallel_call.tuning_cache_misses == serial_call.tuning_cache_misses
    assert serial_call.workers == 1
    assert parallel_call.workers == expect_workers


class TestParallelExecution:
    @pytest.mark.parametrize("spec", ["lemp:LI", "naive"])
    def test_row_top_k_matches_serial(self, small_problem, spec):
        probes, queries = small_problem
        serial = RetrievalEngine(spec, workers=1).fit(probes)
        parallel = RetrievalEngine(spec, workers=4).fit(probes)
        expected = serial.row_top_k(queries, 9, batch_size=32)
        observed = parallel.row_top_k(queries, 9, batch_size=32)
        np.testing.assert_array_equal(expected.indices, observed.indices)
        np.testing.assert_array_equal(expected.scores, observed.scores)
        assert_same_call(serial.history[-1], parallel.history[-1], expect_workers=4)
        assert counter_snapshot(parallel) == counter_snapshot(serial)

    @pytest.mark.parametrize("spec", ["lemp:LI", "naive"])
    def test_above_theta_matches_serial(self, small_problem, spec):
        probes, queries = small_problem
        serial = RetrievalEngine(spec, workers=1).fit(probes)
        parallel = RetrievalEngine(spec, workers=3).fit(probes)
        expected = serial.above_theta(queries, 0.8, batch_size=48)
        observed = parallel.above_theta(queries, 0.8, batch_size=48)
        np.testing.assert_array_equal(expected.query_ids, observed.query_ids)
        np.testing.assert_array_equal(expected.probe_ids, observed.probe_ids)
        np.testing.assert_array_equal(expected.scores, observed.scores)
        assert_same_call(serial.history[-1], parallel.history[-1], expect_workers=3)
        assert counter_snapshot(parallel) == counter_snapshot(serial)

    def test_iter_batches_yield_in_query_order(self, small_problem):
        probes, queries = small_problem
        engine = RetrievalEngine("lemp:LI", workers=4).fit(probes)
        offsets = [offset for offset, _ in engine.iter_row_top_k(queries, 4, batch_size=30)]
        assert offsets == list(range(0, queries.shape[0], 30))

    def test_workers_toggle_on_warm_engine_same_counters(self, small_problem):
        """Same warm engine, workers toggled: identical results AND counters.

        With the tuning cache warm both calls use the same tuned selectors,
        so even the tuning-dependent candidate counters must match exactly.
        """
        probes, queries = small_problem
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.row_top_k(queries, 8, batch_size=40)  # cold call tunes once

        before = counter_snapshot(engine)
        serial_result = engine.row_top_k(queries, 8, batch_size=40)
        serial_delta = counter_delta(engine, before)

        engine.workers = 4
        before = counter_snapshot(engine)
        parallel_result = engine.row_top_k(queries, 8, batch_size=40)
        parallel_delta = counter_delta(engine, before)

        np.testing.assert_array_equal(serial_result.indices, parallel_result.indices)
        np.testing.assert_array_equal(serial_result.scores, parallel_result.scores)
        assert parallel_delta == serial_delta
        serial_call, parallel_call = engine.history[-2], engine.history[-1]
        assert serial_call.workers == 1 and parallel_call.workers == 4
        assert parallel_call.tuning_cache_hits == serial_call.tuning_cache_hits
        assert parallel_call.tuning_cache_misses == serial_call.tuning_cache_misses == 0

    def test_warm_cache_first_batch_only_tunes_once(self, small_problem):
        probes, queries = small_problem
        engine = RetrievalEngine("lemp:LI", seed=0, workers=4).fit(probes)
        engine.row_top_k(queries, 6, batch_size=25)
        call = engine.history[-1]
        assert call.tuning_cache_misses == 1
        assert call.tuning_cache_hits == call.num_batches - 1

    def test_l2ap_parallel_results_match_serial(self, small_problem):
        """Cold parallel L2AP: counters may drift (documented), results never."""
        probes, queries = small_problem
        serial = RetrievalEngine("lemp:L2AP", seed=0).fit(probes)
        parallel = RetrievalEngine("lemp:L2AP", seed=0, workers=4).fit(probes)
        expected = serial.above_theta(queries, 0.9, batch_size=30)
        observed = parallel.above_theta(queries, 0.9, batch_size=30)
        np.testing.assert_array_equal(expected.query_ids, observed.query_ids)
        np.testing.assert_array_equal(expected.probe_ids, observed.probe_ids)
        np.testing.assert_array_equal(expected.scores, observed.scores)
        assert parallel.history[-1].workers == 4

    def test_blsh_is_chunk_shardable(self, small_problem):
        # The order-free minimum-match base made LEMP-BLSH order-independent,
        # so it chunk-shards like every exact variant (it used to fall back
        # to serial because the old base ratcheted in processing order).
        probes, queries = small_problem
        blsh = RetrievalEngine("lemp:BLSH", seed=0, workers=4).fit(probes)
        blsh.row_top_k(queries, 3, batch_size=25)
        assert blsh.history[-1].workers > 1

    def test_retriever_without_worker_view_falls_back_to_serial(self, small_problem):
        probes, queries = small_problem
        engine = RetrievalEngine("clustered", num_clusters=4, workers=4).fit(probes)
        engine.row_top_k(queries, 3, batch_size=50)
        assert engine.history[-1].workers == 1

    def test_workers_validated_and_persisted(self, small_problem, tmp_path):
        probes, _ = small_problem
        with pytest.raises(InvalidParameterError):
            RetrievalEngine("naive", workers=0)
        engine = RetrievalEngine("lemp:LI", seed=0, workers=5).fit(probes)
        engine.save(tmp_path / "idx")
        assert RetrievalEngine.load(tmp_path / "idx").workers == 5

    def test_worker_view_shares_index_but_not_stats(self, small_problem):
        probes, queries = small_problem
        retriever = Lemp(algorithm="LI", seed=0).fit(probes)
        view = retriever.worker_view()
        assert view.store is retriever.store
        assert view.buckets is retriever.buckets
        assert view.tuning_cache is retriever.tuning_cache
        # The layout is built before the copy, so views of one index share it.
        assert view._layout is not None and view.layout() is retriever.layout()
        assert view.stats is not retriever.stats
        result = view.row_top_k(queries, 3)
        assert result.num_queries == queries.shape[0]
        assert retriever.stats.num_queries == 0
        assert view.stats.num_queries == queries.shape[0]

    @settings(max_examples=12, deadline=None)
    @given(
        workers=st.integers(min_value=2, max_value=6),
        batch_size=st.integers(min_value=7, max_value=120),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_parallel_determinism_hypothesis(self, workers, batch_size, k):
        """One warm engine, workers toggled: bit-identical results and stats."""
        probes = make_factors(400, rank=12, length_cov=0.8, seed=51)
        queries = make_factors(130, rank=12, length_cov=0.8, seed=52)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.row_top_k(queries, k, batch_size=batch_size)  # cold call tunes

        before = counter_snapshot(engine)
        expected = engine.row_top_k(queries, k, batch_size=batch_size)
        serial_delta = counter_delta(engine, before)

        engine.workers = workers
        before = counter_snapshot(engine)
        observed = engine.row_top_k(queries, k, batch_size=batch_size)
        parallel_delta = counter_delta(engine, before)

        np.testing.assert_array_equal(expected.indices, observed.indices)
        np.testing.assert_array_equal(expected.scores, observed.scores)
        assert parallel_delta == serial_delta
