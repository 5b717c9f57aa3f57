"""Regression tests: float32 and non-contiguous inputs are normalised once.

Every public entry point funnels matrices through
:func:`repro.utils.validation.as_float_matrix`, so callers may pass float32,
Fortran-ordered, or strided views; the library converts to C-contiguous
float64 exactly once (in ``fit`` / query preparation) and produces the same
results as pre-converted input.

The second half pins the verification kernels' *gather* semantics across
index dtypes and memory layouts: ``gather_matvec(matrix, rows, query)`` must
behave exactly like ``matrix[rows]`` under both kernels — integer index
arrays of any width gather, boolean masks select, float indices raise —
because the blocked kernel's index-scratch fast path once silently truncated
float indices and misread boolean masks as 0/1 row numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine, VectorStore
from repro.core.kernels import ALIGNMENT, gather_matvec, use_kernel
from repro.engine import create_retriever
from tests.conftest import make_factors

SPECS = ["lemp:LI", "naive", "ta:blocked", "tree:cover", "dtree:cover"]


@pytest.fixture(scope="module")
def matrices():
    queries = make_factors(40, rank=12, length_cov=1.0, seed=21)
    probes = make_factors(120, rank=12, length_cov=1.0, seed=22)
    # Round-trip through float32 so the float64 reference matches exactly.
    return queries.astype(np.float32), probes.astype(np.float32)


def variants(matrix32):
    """The same matrix as float32, Fortran-ordered, and a strided view."""
    full64 = np.ascontiguousarray(matrix32.astype(np.float64))
    return full64, [
        matrix32,
        np.asfortranarray(matrix32),
        np.asfortranarray(full64),
        np.repeat(full64, 2, axis=0)[::2],  # non-contiguous row-strided view
    ]


@pytest.mark.parametrize("spec", SPECS)
def test_fit_accepts_any_dtype_and_layout(spec, matrices):
    queries32, probes32 = matrices
    probes64, probe_variants = variants(probes32)
    queries64 = np.ascontiguousarray(queries32.astype(np.float64))
    reference = create_retriever(spec, seed=0).fit(probes64).row_top_k(queries64, 4)
    for probe_variant in probe_variants:
        top = create_retriever(spec, seed=0).fit(probe_variant).row_top_k(queries64, 4)
        assert np.array_equal(top.indices, reference.indices), spec
        assert np.array_equal(top.scores, reference.scores), spec


@pytest.mark.parametrize("spec", SPECS)
def test_queries_accept_any_dtype_and_layout(spec, matrices):
    queries32, probes32 = matrices
    probes64 = np.ascontiguousarray(probes32.astype(np.float64))
    queries64, query_variants = variants(queries32)
    retriever = create_retriever(spec, seed=0).fit(probes64)
    reference = retriever.row_top_k(queries64, 4)
    for query_variant in query_variants:
        top = retriever.row_top_k(query_variant, 4)
        assert np.array_equal(top.indices, reference.indices), spec
        assert np.array_equal(top.scores, reference.scores), spec


def test_vector_store_normalises_once(matrices):
    _, probes32 = matrices
    store = VectorStore(probes32)
    assert store.directions.dtype == np.float64
    assert store.directions.flags["C_CONTIGUOUS"]
    assert store.lengths.dtype == np.float64
    reference = VectorStore(np.ascontiguousarray(probes32.astype(np.float64)))
    assert np.array_equal(store.lengths, reference.lengths)
    assert np.array_equal(store.directions, reference.directions)


def test_partial_fit_accepts_float32(matrices):
    queries32, probes32 = matrices
    probes64 = np.ascontiguousarray(probes32.astype(np.float64))
    extra32 = make_factors(15, rank=12, length_cov=1.0, seed=23).astype(np.float32)
    extra64 = np.ascontiguousarray(extra32.astype(np.float64))
    queries64 = np.ascontiguousarray(queries32.astype(np.float64))
    incremental = Lemp(algorithm="LI", seed=0).fit(probes32).partial_fit(extra32)
    fresh = Lemp(algorithm="LI", seed=0).fit(np.vstack([probes64, extra64]))
    top_inc = incremental.row_top_k(queries64, 3)
    top_fresh = fresh.row_top_k(queries64, 3)
    assert np.array_equal(top_inc.indices, top_fresh.indices)
    assert np.array_equal(top_inc.scores, top_fresh.scores)


def test_engine_accepts_float32(matrices):
    queries32, probes32 = matrices
    engine = RetrievalEngine("lemp:LI", seed=0).fit(probes32)
    assert engine.retriever.store.directions.dtype == np.float64
    assert engine.retriever.store.lengths.dtype == np.float64
    top = engine.query(queries32).batch_size(16).top_k(3)
    reference = RetrievalEngine("naive").fit(probes32).row_top_k(queries32, 3)
    assert np.allclose(top.scores, reference.scores)


def test_column_top_k_accepts_float32(matrices):
    queries32, probes32 = matrices
    lemp = Lemp(algorithm="LI", seed=0).fit(probes32)
    result = lemp.column_top_k(np.asfortranarray(queries32), 3)
    assert result.indices.shape == (probes32.shape[0], 3)


# --------------------------------------------------------- kernel gather paths


@pytest.fixture(scope="module")
def gather_problem():
    rng = np.random.default_rng(31)
    matrix = rng.standard_normal((50, 13))
    query = rng.standard_normal(13)
    return matrix, query


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize(
    "index_dtype", [np.int64, np.int32, np.int16, np.uint64, np.uint32, np.intp]
)
def test_gather_accepts_any_integer_index_dtype(gather_problem, kernel, index_dtype):
    matrix, query = gather_problem
    rows = np.array([0, 7, 7, 49, 3], dtype=index_dtype)
    reference = np.einsum("ij,j->i", matrix[rows], query)
    with use_kernel(kernel):
        scores = gather_matvec(matrix, rows, query)
    assert np.allclose(scores, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
def test_gather_boolean_mask_selects_rows(gather_problem, kernel):
    # A boolean array the length of the matrix is a mask, as for matrix[rows];
    # the blocked kernel's index-scratch path once read it as 0/1 row numbers.
    matrix, query = gather_problem
    mask = np.zeros(matrix.shape[0], dtype=bool)
    mask[[2, 5, 11, 47]] = True
    reference = np.einsum("ij,j->i", matrix[mask], query)
    with use_kernel(kernel):
        scores = gather_matvec(matrix, mask, query)
    assert scores.shape == (4,)
    assert np.allclose(scores, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("count_offset", [1, 0])
def test_gather_rejects_float_indices(gather_problem, kernel, count_offset):
    # Both the padded-remainder branch (count not a multiple of the
    # alignment) and the aligned branch must raise like matrix[rows] does —
    # the padding branch once truncated 3.5 -> 3 silently.
    matrix, query = gather_problem
    align = ALIGNMENT[matrix.dtype.itemsize]
    count = align + count_offset if count_offset else align
    rows = (np.arange(count, dtype=np.float64) % matrix.shape[0]) + 0.5
    with use_kernel(kernel):
        with pytest.raises(IndexError):
            gather_matvec(matrix, rows, query)


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
def test_gather_handles_noncontiguous_inputs(gather_problem, kernel):
    matrix, query = gather_problem
    rows = np.array([1, 8, 21, 34, 2, 2, 49])
    reference = np.einsum("ij,j->i", matrix[rows], query)
    fortran = np.asfortranarray(matrix)
    strided_rows = np.repeat(rows, 2)[::2]
    strided_query = np.repeat(query, 2)[::2]
    assert not strided_rows.flags.c_contiguous or strided_rows.base is not None
    with use_kernel(kernel):
        for m in (matrix, fortran):
            for r in (rows, strided_rows):
                for q in (query, strided_query):
                    assert np.allclose(
                        gather_matvec(m, r, q), reference, rtol=0, atol=1e-12
                    )


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
def test_gather_float32_matrix_paths(gather_problem, kernel):
    # An f32 matrix with an f32 query takes the f32 fast path; with an f64
    # query the dtypes differ and the gather falls back to the generic
    # blocked matvec.  Both must agree with the einsum reference at f32
    # precision and return one score per requested row.
    matrix, query = gather_problem
    matrix32 = matrix.astype(np.float32)
    rows = np.arange(matrix.shape[0] - 1, -1, -1)  # reversed, odd count
    with use_kernel(kernel):
        same = gather_matvec(matrix32, rows, query.astype(np.float32))
        mixed = gather_matvec(matrix32, rows, query)
    reference = np.einsum("ij,j->i", matrix32[rows].astype(np.float64), query)
    assert same.dtype == np.float32
    assert np.allclose(same, reference, rtol=0, atol=1e-5)
    assert np.allclose(mixed, reference, rtol=0, atol=1e-6)
