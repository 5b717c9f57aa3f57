"""Deterministic candidate-verification kernels.

LEMP verifies every candidate with an exact dot product against the query.
The engine layer guarantees that verified scores are *bit-identical* across
different tuning outcomes, incremental updates, index reloads, and batch
splits — which forbids any kernel whose per-row rounding depends on *which
other candidates* happen to be scored in the same call.

Two kernels implement that contract:

``"blocked"`` (default)
    A fixed-order blocked BLAS kernel.  Candidate rows are gathered into a
    contiguous matrix and scored with ``np.dot`` (BLAS ``gemv``), but every
    BLAS call is *shape-quantised*: the row count of each call is always a
    multiple of a fixed SIMD-width alignment (:data:`ALIGNMENT`), with the
    final remainder scored through a zero-padded scratch block.  For aligned
    call shapes the BLAS per-row reduction order is a pure function of the
    row and the query — independent of the call's other rows, of the row's
    position, and of the total candidate count (asserted exhaustively in
    ``tests/test_kernels.py``) — so the kernel keeps einsum's determinism
    contract at BLAS speed.  Large candidate sets are additionally split
    into :data:`BLOCK_ROWS`-row blocks so no single BLAS call grows beyond
    a fixed, cache- and threading-friendly shape.

``"einsum"``
    The historical reference: ``np.einsum("ij,j->i", rows, q)``, whose
    scalar inner loop reduces each row independently by construction.  It
    remains available as an escape hatch (``REPRO_KERNEL=einsum``) and as
    the reference implementation the blocked kernel is validated against.

Both kernels are deterministic; they are *not* bit-identical to each other
on BLAS builds whose SIMD reduction differs from einsum's scalar loop
(OpenBLAS differs in the last 1–2 ULPs).  What the engine guarantees — and
what the test suite asserts — is that *within* either kernel, a candidate's
score never depends on the surrounding candidate set, so every equivalence
guarantee (tuning on/off, ``partial_fit``/``remove``, ``save``/``load``,
serial vs. ``workers=N``) holds bit-for-bit under whichever kernel is
active.

The active kernel is chosen once at import from the ``REPRO_KERNEL``
environment variable and can be switched at runtime with :func:`set_kernel`
or the :func:`use_kernel` context manager.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

from repro.exceptions import InvalidParameterError

#: Kernel names accepted by :func:`set_kernel` / ``REPRO_KERNEL``.
KERNELS = ("blocked", "einsum")

#: Environment variable selecting the kernel at import time.
ENV_VAR = "REPRO_KERNEL"

#: Maximum rows per BLAS call.  A multiple of every alignment below; bounds
#: the scratch the kernel touches per call and keeps individual BLAS calls
#: in a fixed, threading-threshold-friendly shape regardless of how many
#: candidates a bucket produces.
BLOCK_ROWS = 4096

#: Row-count alignment of every BLAS call, per itemsize.  BLAS ``gemv``
#: kernels switch between SIMD main loops and scalar tail loops based on the
#: call's row count; only row counts that are a multiple of the SIMD width
#: reduce every row with the same fixed order.  16 rows for float64 and 32
#: for float32 cover twice the widest current SIMD width (AVX-512), with the
#: remainder scored through a zero-padded block of exactly this size.
ALIGNMENT = {8: 16, 4: 32}

_current_kernel = os.environ.get(ENV_VAR, "blocked")
_scratch = threading.local()

#: Lazily computed result of :func:`blocked_kernel_supported` (None = not yet
#: probed).  Guarded by ``_probe_lock`` so concurrent first calls probe once.
_blocked_supported: bool | None = None
_probe_lock = threading.Lock()


def get_kernel() -> str:
    """Name of the active verification kernel (``"blocked"`` or ``"einsum"``)."""
    _validate(_current_kernel)
    return _current_kernel


def set_kernel(name: str) -> str:
    """Select the verification kernel globally; returns the previous name."""
    global _current_kernel
    _validate(name)
    previous = _current_kernel
    _current_kernel = name
    return previous


@contextmanager
def use_kernel(name: str):
    """Context manager switching the verification kernel within a block."""
    previous = set_kernel(name)
    try:
        yield
    finally:
        set_kernel(previous)


def _validate(name: str) -> None:
    if name not in KERNELS:
        raise InvalidParameterError(
            f"unknown verification kernel {name!r} (from {ENV_VAR} or set_kernel); "
            f"expected one of {KERNELS}"
        )


# --------------------------------------------------------------------- kernels


def blocked_kernel_supported() -> bool:
    """Whether this BLAS backend honours the blocked kernel's contract.

    The blocked kernel's determinism rests on a property of the BLAS
    build: at alignment-quantised call shapes, a row's reduced bits must
    not depend on the call's other rows, their order, or their count.
    That holds for the OpenBLAS builds NumPy ships (asserted exhaustively
    in ``tests/test_kernels.py``), but it is a backend property, not a
    mathematical one — so it is probed once at first use: a fixed battery
    of subset/permutation/shape checks per dtype, a few hundred
    microseconds.  If the probe fails, the blocked kernel transparently
    falls back to the einsum reference (a :class:`RuntimeWarning` is
    emitted once) and this function returns ``False``.
    """
    global _blocked_supported
    if _blocked_supported is None:
        with _probe_lock:
            if _blocked_supported is None:
                _blocked_supported = _probe_blocked_determinism()
                if not _blocked_supported:
                    import warnings

                    warnings.warn(
                        "this BLAS backend does not preserve per-row bit-determinism "
                        "at aligned call shapes; the 'blocked' verification kernel "
                        "falls back to the einsum reference",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return _blocked_supported


def _probe_blocked_determinism() -> bool:
    """Cheap self-check of the backend property the blocked kernel needs."""
    for dtype in (np.float64, np.float32):
        align = ALIGNMENT[np.dtype(dtype).itemsize]
        count, rank = 6 * align + 3, 23
        # Any fixed values exercise the reduction; a seeded RNG keeps the
        # probe identical on every interpreter start.
        rng = np.random.default_rng(0x5EED)
        matrix = rng.standard_normal((count, rank)).astype(dtype)
        query = rng.standard_normal(rank).astype(dtype)
        everything = np.arange(count, dtype=np.intp)
        full = _blocked_gather(matrix, everything, query)
        probes = (
            everything[: align + 1],                      # padded remainder call
            everything[1 :: 2],                            # shifted positions
            everything[::-1],                              # reversed order
            np.asarray([count - 1], dtype=np.intp),        # single row
        )
        for selection in probes:
            if not np.array_equal(_blocked_gather(matrix, selection, query), full[selection]):
                return False
        if not np.array_equal(_blocked_matvec(matrix, query), full):
            return False
    return True


def gather_matvec(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Dot product of ``matrix[rows]`` with ``query``, one score per row.

    The solver-facing entry point: ``rows`` are candidate indices into
    ``matrix`` (the bucket's direction matrix).  Each returned score is a
    pure function of the indexed row and ``query`` — independent of the
    other candidates, their order, and their count — under either kernel.
    """
    if get_kernel() == "einsum" or not blocked_kernel_supported():
        return np.einsum("ij,j->i", matrix[rows], query)
    return _blocked_gather(matrix, rows, query)


def matvec(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row dot products of ``rows`` with ``query`` under the active kernel.

    Equivalent to ``np.einsum("ij,j->i", rows, query)`` up to the kernels'
    documented last-ULP rounding difference; deterministic per row under
    both kernels.
    """
    if get_kernel() == "einsum" or not blocked_kernel_supported():
        return np.einsum("ij,j->i", rows, query)
    return _blocked_matvec(rows, query)


def _blocked_gather(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Gather-then-score fast path of the ``"blocked"`` kernel.

    Instead of gathering the candidate rows and then padding the *row*
    matrix, the candidate *index array* is padded (repeating index 0, whose
    scores are discarded) so a single ``take`` materialises an
    aligned-shape row block directly — one copy, one BLAS call for
    everything up to :data:`BLOCK_ROWS` candidates.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        # Non-integer index arrays must behave exactly like ``matrix[rows]``
        # under the einsum kernel: boolean masks select rows, anything else
        # raises IndexError.  The fast path below would instead funnel them
        # through the intp index scratch — silently *truncating* float
        # indices in the padding branch and reading rows 0/1 for booleans.
        return _blocked_matvec(matrix[rows], query)
    count = int(rows.shape[0])
    if (
        count == 0
        or matrix.dtype != query.dtype
        or matrix.dtype.kind != "f"
        or matrix.dtype.itemsize not in ALIGNMENT
    ):
        return _blocked_matvec(matrix[rows], query)
    align = ALIGNMENT[matrix.dtype.itemsize]
    padded = -(-count // align) * align
    if padded != count:
        indexes = _index_block(padded)
        indexes[:count] = rows
        indexes[count:padded] = 0
        rows = indexes[:padded]
    gathered = matrix.take(rows, axis=0)
    if not query.flags.c_contiguous:
        query = np.ascontiguousarray(query)
    if padded <= BLOCK_ROWS:
        return np.dot(gathered, query)[:count]
    out = np.empty(padded, dtype=matrix.dtype)
    for start in range(0, padded, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, padded)
        np.dot(gathered[start:stop], query, out=out[start:stop])
    return out[:count]


def _blocked_matvec(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Fixed-order blocked BLAS dot products (the ``"blocked"`` kernel)."""
    rows = np.asarray(rows)
    query = np.asarray(query)
    dtype = np.result_type(rows, query)
    if dtype not in (np.float32, np.float64):
        dtype = np.float64
    rows = np.ascontiguousarray(rows, dtype=dtype)
    query = np.ascontiguousarray(query, dtype=dtype)
    count, rank = rows.shape
    out = np.empty(count, dtype=dtype)
    if count == 0:
        return out
    if rank == 0:
        out[:] = 0.0
        return out

    align = ALIGNMENT[dtype.itemsize]
    aligned = count - count % align
    # Aligned body: plain BLAS calls on contiguous views, at most BLOCK_ROWS
    # rows each.  Every call's row count is a multiple of the alignment, so
    # per-row reduction order is fixed regardless of the candidate count.
    for start in range(0, aligned, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, aligned)
        np.dot(rows[start:stop], query, out=out[start:stop])
    remainder = count - aligned
    if remainder:
        # Remainder rows are scored through a zero-padded block of exactly
        # ``align`` rows so this call, too, has an aligned shape.
        block = _remainder_block(align, rank, dtype)
        block[:remainder] = rows[aligned:]
        block[remainder:] = 0.0
        out[aligned:] = np.dot(block, query)[:remainder]
    return out


# ---------------------------------------------------------------- block screen


#: Unit roundoff of float64 arithmetic.
_F64_EPS = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's ``γ_n = n·u / (1 − n·u)`` for float64."""
    nu = n * _F64_EPS
    return nu / (1.0 - nu)


def screen_bound(rank: int) -> float:
    """Cosine margin that lets a BLAS block product screen for this kernel.

    The bucket-major solvers score a bucket's LENGTH candidates for many
    queries at once with one matrix product, whose summation order differs
    from :func:`gather_matvec`'s and depends on the block shape.  A row
    survives that screen only if its block score reaches the threshold minus
    this margin (scaled by the row's score factor); survivors are re-scored
    with :func:`gather_matvec`, so every reported score keeps the kernel's
    bits.  The margin must therefore cover, for every row that the exact
    kernel would keep, the gap between the two evaluations:

    * Any summation order of an ``r``-term dot product ``x·y`` — with or
      without fused multiply-adds — lies within ``γ_r·Σ|x_i·y_i| ≤
      γ_r·‖x‖·‖y‖`` of the exact value (Higham, *Accuracy and Stability of
      Numerical Algorithms*, §3.1), so two orders differ by at most
      ``2γ_r·‖x‖·‖y‖``.
    * Query and probe directions are normalised in float64, so their norms
      are at most ``1 + γ_{r+3}`` (sum of squares, square root, division).
    * The solvers rescale a cosine by a length and a query norm and add the
      margin before comparing with the threshold: at most five further
      roundings, each within ``u`` of a quantity no larger than the row's
      score factor.  ``8u`` covers them.
    """
    rank = max(int(rank), 1)
    norm = 1.0 + _gamma(rank + 3)
    return 2.0 * _gamma(rank) * norm * norm + 8.0 * _F64_EPS


def _remainder_block(align: int, rank: int, dtype: np.dtype) -> np.ndarray:
    """Per-thread scratch block for the zero-padded remainder call."""
    cache = getattr(_scratch, "blocks", None)
    if cache is None:
        cache = _scratch.blocks = {}
    key = (dtype.str, rank)
    block = cache.get(key)
    if block is None or block.shape[0] < align:
        block = cache[key] = np.empty((align, rank), dtype=dtype)
    return block


def _index_block(size: int) -> np.ndarray:
    """Per-thread scratch index array for padding candidate lists."""
    block = getattr(_scratch, "indexes", None)
    if block is None or block.shape[0] < size:
        block = _scratch.indexes = np.empty(max(size, BLOCK_ROWS), dtype=np.intp)
    return block
