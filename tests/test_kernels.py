"""Verification-kernel equivalence and parallel-execution determinism.

Two contracts are asserted here:

* **Kernel determinism** — under either kernel (``blocked`` BLAS or the
  ``einsum`` reference), a candidate row's score is a pure function of the
  row and the query: independent of which other candidates are scored with
  it, of their order, and of their count.  This is the invariant every
  engine equivalence guarantee (tuning on/off, incremental updates,
  reloads, one chunk vs. many) rests on.
* **Chunked determinism** — a call cut into ``batch_size`` chunks returns
  results byte-identical to one chunk, with identical cumulative statistics
  and :class:`~repro.engine.facade.EngineCall` counters.  The process pool
  is covered by the ``WorkerPool`` tests in ``tests/test_serving.py``.
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
from repro.baselines import NaiveRetriever
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
from repro.core.results import AboveThetaResult, TopKResult
from repro.exceptions import InvalidParameterError
from tests.conftest import assert_same_answers, make_factors


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


# ------------------------------------------------------- chunked determinism


#: RunStats counters compared between runs.  Tuning is a pure function of
#: the data, the thresholds and the seed, so every counter — candidate
#: counts included — agrees even between independently fitted engines.
COUNTERS = ("num_queries", "results", "buckets_examined", "buckets_pruned",
            "candidates", "inner_products")


def counter_snapshot(engine):
    return {name: getattr(engine.stats, name) for name in COUNTERS}


def counter_delta(engine, before):
    return {name: getattr(engine.stats, name) - before[name] for name in COUNTERS}


class TestChunkedExecution:
    """A call cut into ``batch_size`` chunks answers as one chunk.

    A cold chunked call tunes on its first chunk's sample, so its counters
    match a cold one-chunk call only where the tuned choice cannot move
    them (``lemp:L`` never tunes; ``lemp:LI`` chooses the same on this
    data either way); on a warm engine they always match.
    """

    @pytest.mark.parametrize("problem,parameter,batch_size,batches",
                             [("row_top_k", 9, 32, 7), ("above_theta", 0.8, 48, 5)])
    @pytest.mark.parametrize("spec", ["lemp:LI", "lemp:L"])
    def test_chunked_call_matches_one_chunk(self, small_problem, spec, problem, parameter,
                                            batch_size, batches):
        probes, queries = small_problem
        whole = RetrievalEngine(spec).fit(probes)
        chunked = RetrievalEngine(spec).fit(probes)
        expected = getattr(whole, problem)(queries, parameter)
        observed = getattr(chunked, problem)(queries, parameter, batch_size=batch_size)
        assert_same_answers(expected, observed)
        whole_call, chunked_call = whole.history[-1], chunked.history[-1]
        for name in ("problem", "parameter", "num_queries", "num_results",
                     "tuning_cache_misses", "workers"):
            assert getattr(chunked_call, name) == getattr(whole_call, name), name
        assert (whole_call.num_batches, chunked_call.num_batches) == (1, batches)
        assert counter_snapshot(chunked) == counter_snapshot(whole)

    @pytest.mark.parametrize("problem", ["row_top_k", "above_theta"])
    def test_naive_chunks_merge_as_direct_solves(self, small_problem, problem):
        """Naive's BLAS product rounds by block shape, so a chunked naive call
        must equal the same chunks solved directly, merged in query order."""
        probes, queries = small_problem
        engine = RetrievalEngine("naive").fit(probes)
        direct = NaiveRetriever().fit(probes)
        parameter = 9 if problem == "row_top_k" else 0.8
        observed = getattr(engine, problem)(queries, parameter, batch_size=32)
        starts = list(range(0, queries.shape[0], 32))
        parts = [getattr(direct, problem)(queries[start:start + 32], parameter)
                 for start in starts]
        if problem == "row_top_k":
            expected = TopKResult.concat(parts, parameter)
        else:
            expected = AboveThetaResult.concat(parts, parameter, query_offsets=starts)
        for name in ("indices", "query_ids", "probe_ids", "scores"):
            if hasattr(expected, name):
                assert getattr(observed, name).tobytes() == getattr(expected, name).tobytes()
        assert engine.history[-1].num_batches == len(starts)
        assert counter_snapshot(engine) == {name: getattr(direct.stats, name)
                                            for name in COUNTERS}

    def test_chunking_on_warm_engine_same_counters(self, small_problem):
        """Same warm engine, one chunk vs many: identical results AND counters.

        With the tuning cache warm both calls use the same tuned selectors,
        so even the tuning-dependent candidate counters must match exactly.
        """
        probes, queries = small_problem
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.row_top_k(queries, 8)  # cold call tunes once

        before = counter_snapshot(engine)
        whole_result = engine.row_top_k(queries, 8)
        whole_delta = counter_delta(engine, before)

        before = counter_snapshot(engine)
        chunked_result = engine.row_top_k(queries, 8, batch_size=40)
        chunked_delta = counter_delta(engine, before)

        assert_same_answers(whole_result, chunked_result)
        assert chunked_delta == whole_delta
        whole_call, chunked_call = engine.history[-2], engine.history[-1]
        assert whole_call.num_batches == 1 and chunked_call.num_batches == 6
        assert whole_call.tuning_cache_hits == 1
        assert chunked_call.tuning_cache_hits == chunked_call.num_batches
        assert chunked_call.tuning_cache_misses == whole_call.tuning_cache_misses == 0

    def test_l2ap_chunked_results_match_one_chunk(self, small_problem):
        """Cold chunked L2AP: the same pairs and score bits as one cold chunk."""
        probes, queries = small_problem
        whole = RetrievalEngine("lemp:L2AP", seed=0).fit(probes)
        chunked = RetrievalEngine("lemp:L2AP", seed=0).fit(probes)
        expected = whole.above_theta(queries, 0.9)
        observed = chunked.above_theta(queries, 0.9, batch_size=30)
        assert_same_answers(expected, observed)
        assert chunked.history[-1].num_batches == 8

    def test_blsh_answers_do_not_depend_on_chunking(self, small_problem):
        # The order-free minimum-match base made LEMP-BLSH order-independent
        # (the old base ratcheted in processing order), so its approximate
        # answers are the same however the call is chunked.
        probes, queries = small_problem
        blsh = RetrievalEngine("lemp:BLSH", seed=0).fit(probes)
        expected = blsh.row_top_k(queries, 3)
        observed = blsh.row_top_k(queries, 3, batch_size=25)
        assert blsh.history[-1].num_batches > 1
        assert_same_answers(expected, observed)

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
        batch_size=st.integers(min_value=7, max_value=120),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_chunked_determinism_hypothesis(self, batch_size, k):
        """One warm engine, one chunk vs many: bit-identical results and stats."""
        probes = make_factors(400, rank=12, length_cov=0.8, seed=51)
        queries = make_factors(130, rank=12, length_cov=0.8, seed=52)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.row_top_k(queries, k)  # cold call tunes

        before = counter_snapshot(engine)
        expected = engine.row_top_k(queries, k)
        whole_delta = counter_delta(engine, before)

        before = counter_snapshot(engine)
        observed = engine.row_top_k(queries, k, batch_size=batch_size)
        chunked_delta = counter_delta(engine, before)

        assert_same_answers(expected, observed)
        assert chunked_delta == whole_delta
