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
    a fixed, cache- and threading-friendly shape.  A grouped call (many
    queries, each with its own candidates) pads every group to aligned
    units and scores them with stacked ``np.matmul`` calls, one ``gemv``
    of that same shape per unit (:func:`stacked_kernel_supported`).

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
one chunk vs. many, in-process vs. a worker process pool) holds
bit-for-bit under whichever kernel is active.

The active kernel is chosen once at import from the ``REPRO_KERNEL``
environment variable and can be switched at runtime with :func:`set_kernel`
or the :func:`use_kernel` context manager.
"""

from __future__ import annotations

import functools
import math
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
#: Lazily computed result of :func:`stacked_kernel_supported`, same lock.
_stacked_supported: bool | None = None
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
                _blocked_supported = _probe_or_warn(
                    _probe_blocked_determinism,
                    "at aligned call shapes; the 'blocked' verification kernel "
                    "falls back to the einsum reference")
    return _blocked_supported


def stacked_kernel_supported() -> bool:
    """Whether stacked products give the blocked kernel's bits on this backend.

    Grouped :func:`gather_matvec` calls score many queries' candidates with
    one stacked ``np.matmul`` of aligned row units, which NumPy dispatches
    as one BLAS ``gemv`` per unit — the same call shape as the single-query
    ``np.dot``, so each row keeps its bits.  That is again a property of
    the NumPy and BLAS builds (``np.einsum`` and ``np.vecdot`` over the same
    units do *not* keep them), so it is probed once at first use like
    :func:`blocked_kernel_supported`.  If the probe fails, grouped calls
    score one group at a time (a :class:`RuntimeWarning` is emitted once)
    and this function returns ``False``.
    """
    global _stacked_supported
    if _stacked_supported is None:
        with _probe_lock:
            if _stacked_supported is None:
                _stacked_supported = _probe_or_warn(
                    _probe_stacked_determinism,
                    "in stacked products; grouped verification falls back to one "
                    "call per group")
    return _stacked_supported


def _probe_or_warn(probe, fallback: str) -> bool:
    """Run a backend ``probe``; warn (naming the ``fallback``) when it fails."""
    supported = probe()
    if not supported:
        import warnings

        warnings.warn(
            f"this BLAS backend does not preserve per-row bit-determinism {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
    return supported


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


def _probe_stacked_determinism() -> bool:
    """Cheap self-check that stacked scoring keeps every single-query call's bits."""
    for dtype in (np.float64, np.float32):
        align = ALIGNMENT[np.dtype(dtype).itemsize]
        rng = np.random.default_rng(0x5EED)
        matrix = rng.standard_normal((8 * align, 23)).astype(dtype)
        queries = rng.standard_normal((5, 23)).astype(dtype)
        sizes = (1, align - 1, align, align + 1, 3 * align + 2)
        groups = np.repeat(np.arange(len(sizes)), sizes)
        rows = rng.integers(0, matrix.shape[0], size=groups.size)
        expected = np.concatenate([_blocked_gather(matrix, rows[groups == g], queries[g])
                                   for g in range(len(sizes))])
        if not np.array_equal(_stacked_gather(matrix, rows, queries, groups), expected):
            return False
    return True


def gather_matvec(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray,
                  groups: np.ndarray | None = None) -> np.ndarray:
    """Dot product of ``matrix[rows]`` with ``query``, one score per row.

    The solver-facing entry point: ``rows`` are candidate indices into
    ``matrix`` (the bucket's direction matrix).  Each returned score is a
    pure function of the indexed row and ``query`` — independent of the
    other candidates, their order, and their count — under either kernel.

    With ``groups``, ``query`` is a matrix and row ``rows[i]`` is scored
    against ``query[groups[i]]``; each group's rows are contiguous.  Every
    score has the bits of the single-query call on its group, but the
    groups are scored together by stacked BLAS calls
    (:func:`stacked_kernel_supported`), so many small groups cost a few
    calls instead of one each.
    """
    if groups is not None:
        return _grouped_gather(matrix, np.asarray(rows), query, np.asarray(groups))
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
    if count == 0 or not _aligned_dtypes(matrix, query):
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


def _grouped_gather(matrix: np.ndarray, rows: np.ndarray, queries: np.ndarray,
                    groups: np.ndarray) -> np.ndarray:
    """:func:`gather_matvec` with ``groups``: stacked when safe, else group by group."""
    if (
        get_kernel() == "blocked"
        and blocked_kernel_supported()
        and rows.dtype.kind in "iu"
        and queries.ndim == 2
        and _aligned_dtypes(matrix, queries)
        and stacked_kernel_supported()
    ):
        if rows.shape[0] and groups[0] == groups[-1]:
            # One group is the single-query call, whose long gemv costs less
            # per row than stacked units.
            return _blocked_gather(matrix, rows, queries[groups[0]])
        return _stacked_gather(matrix, rows, queries, groups)
    if rows.shape[0] == 0:
        return gather_matvec(matrix, rows, np.zeros(queries.shape[-1], dtype=queries.dtype))
    starts, stops = _group_bounds(groups)
    return np.concatenate([gather_matvec(matrix, rows[start:stop], queries[group])
                           for start, stop, group in zip(starts.tolist(), stops.tolist(),
                                                         groups[starts].tolist())])


def _stacked_gather(matrix: np.ndarray, rows: np.ndarray, queries: np.ndarray,
                    groups: np.ndarray) -> np.ndarray:
    """Score every group's rows against its query with stacked aligned units.

    Each group's candidate indexes are padded (with index 0, whose scores
    are discarded) to whole units of ``align`` rows, as
    :func:`_blocked_gather` pads a single call.  One ``take`` gathers at
    most :data:`BLOCK_ROWS` rows of units, and one ``np.matmul`` of shape
    ``(units, align, r) @ (units, r, 1)`` scores them — a ``gemv`` of
    ``align`` rows per unit, the shape whose row bits the single-query call
    already has.
    """
    count = int(rows.shape[0])
    if count == 0:
        return np.empty(0, dtype=matrix.dtype)
    align = ALIGNMENT[matrix.dtype.itemsize]
    starts, stops = _group_bounds(groups)
    sizes = stops - starts
    units = -(-sizes // align)
    total = int(units.sum())
    # Slot of each row in the padded layout: its group's first slot plus
    # its offset inside the group.
    slots = np.repeat((np.cumsum(units) - units) * align - starts, sizes)
    slots += np.arange(count)
    indexes = np.zeros(total * align, dtype=np.intp)
    indexes[slots] = rows
    unit_queries = np.repeat(groups[starts], units)
    out = np.empty(total * align, dtype=matrix.dtype)
    step = BLOCK_ROWS // align
    for first in range(0, total, step):
        last = min(first + step, total)
        gathered = matrix.take(indexes[first * align:last * align], axis=0)
        np.matmul(gathered.reshape(last - first, align, matrix.shape[1]),
                  queries[unit_queries[first:last], :, None],
                  out=out[first * align:last * align].reshape(last - first, align, 1))
    return out[slots]


def _aligned_dtypes(matrix: np.ndarray, query: np.ndarray) -> bool:
    """Whether the gather fast paths apply: one float dtype with a known alignment."""
    return (matrix.dtype == query.dtype and matrix.dtype.kind == "f"
            and matrix.dtype.itemsize in ALIGNMENT)


def _group_bounds(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of every run of equal entries in a non-empty ``groups``."""
    edges = np.flatnonzero(groups[1:] != groups[:-1]) + 1
    return np.concatenate(([0], edges)), np.concatenate((edges, [groups.size]))


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


#: Unit roundoff of float64 and of float32 arithmetic.
_F64_EPS = 2.0**-53
_F32_EPS = 2.0**-24

#: Every underflow effect of the screen, scaled units (see :func:`screen_slack`).
_UNDERFLOW_SLACK = 2.0**-64


def _gamma(n: int, unit: float) -> float:
    """Higham's ``γ_n = n·u / (1 − n·u)`` for unit roundoff ``unit``."""
    nu = n * unit
    return nu / (1.0 - nu) if nu < 1.0 else np.inf


@functools.lru_cache(maxsize=None)
def screen_slack(rank: int) -> float:
    """Margin of the float32 block screen, in units of the bucket's scale.

    The bucket-major solvers screen a bucket's LENGTH pairs with one f32
    product ``Q32 @ R32ᵀ`` per query block (``retrievers/length.py``):
    ``Q32`` holds the query directions ``q`` rounded to f32, and ``R32`` the
    rows ``s·l_p·p`` rounded to f32, where ``p`` is the probe direction,
    ``l_p`` its length and ``s = 2⁻ᴱ`` the bucket's power of two with
    ``s·l_b ∈ [0.5, 1)`` (so ``s·l_p ≤ 1`` for every row).  A pair with
    keep-threshold ``T`` and query norm ``n`` keeps a row if its product
    entry ``z`` reaches ``RD32(clip(T / w, −2, 2) − slack)``, with ``w =
    n·2ᴱ`` and ``RD32`` rounding toward −∞.  Survivors are re-scored with
    :func:`gather_matvec` in f64, so the screen only has to keep every row
    the exact keep test ``fl(c·fl(n·l_p)) ≥ T`` would keep (``c`` the
    kernel's cosine; Row-Top-k has ``n = 1``).  With ``u = 2⁻⁵³``, ``v =
    2⁻²⁴`` and ``N = 1 + γ_{r+3}(u)`` bounding the norm of a direction
    normalised in f64, the distance from ``z`` down to that test is:

    * **The f64 kernel.**  Any summation order of an ``r``-term dot product
      — with or without fused multiply-adds — is within ``γ_r·Σ|x_i·y_i|
      ≤ γ_r·‖x‖·‖y‖`` of the exact value (Higham, *Accuracy and Stability
      of Numerical Algorithms*, §3.1), so ``c`` is within ``γ_r(u)·N²`` of
      the exact ``p·q``; times ``s·l_p ≤ 1``.
    * **f32 rounding of rows and queries.**  ``R32`` entries are the f64
      product ``p_i·(s·l_p)`` rounded once to f32 (``s`` is a power of two,
      so the scaling is exact), within ``v + 1.01u`` relative; ``Q32``
      entries within ``v``.  Their products are within ``2.01v`` of
      ``s·l_p·p_i·q_i``, and the sum of the magnitudes is at most ``N²``.
    * **Any sgemm order, FMA included.**  The f32 sum is within
      ``γ_r(v)·Σ|a_i·b_i| ≤ γ_r(v)·(1 + 2.1v)·N²`` of the exact sum of the
      rounded products, by the same theorem in f32.
    * **The θ/‖q‖ division and the threshold's own arithmetic.**  The keep
      test rounds ``n·l_p`` and ``c·(n·l_p)`` (two relative errors ``u``);
      ``T / w`` is one more rounding, as is subtracting the slack; ``w`` is
      exact (a power-of-two scaling of ``n``).  After clipping, ``|T / w|
      ≤ 2``, so ``16u`` covers all of them.  Clipping is safe: the scaled
      score ``s·c·l_p`` is at most ``N²(1 + γ_r(u)) < 2``, so a pair with
      ``T / w > 2`` keeps no row, and one with ``T / w < −2`` every row.
    * **Subnormals.**  Underflow adds absolute errors only: below ``2⁻¹⁰⁷⁴
      / w`` per f64 rounding (the screen requires ``w ≥ 2⁻¹⁰⁰⁰``, see
      :func:`~repro.core.retrievers.length.screen_thresholds`) and below
      ``2⁻¹²⁶`` per f32 input, product or sum (which also covers a BLAS
      that flushes subnormals to zero) — under ``5r·2⁻¹²⁶ + 2⁻⁷²`` in all,
      so ``2⁻⁶⁴`` covers them for ``r < 2⁴⁰``.

    Hence ``screen_slack(r) = N²·(2.01v + (1 + 2.1v)·γ_r(v) + γ_r(u)) + 16u
    + 2⁻⁶⁴`` — about ``3.1·10⁻⁶`` at rank 50.  Rounding the threshold
    toward −∞ keeps the bound a lower bound in f32.
    """
    rank = max(int(rank), 1)
    norm = 1.0 + _gamma(rank + 3, _F64_EPS)
    products = 2.01 * _F32_EPS + (1.0 + 2.1 * _F32_EPS) * _gamma(rank, _F32_EPS)
    return (norm * norm * (products + _gamma(rank, _F64_EPS))
            + 16.0 * _F64_EPS + _UNDERFLOW_SLACK)


def seed_bits(rank: int) -> int:
    """Fraction bits of the fixed-point seed product: the largest ``b``, ``2b + ⌈log₂ r⌉ ≤ 52``."""
    return (52 - (max(int(rank), 1) - 1).bit_length()) // 2


def seed_margin(rank: int, exponent: int) -> float:
    """How far a Row-Top-k seed product may lie above the verified scores of rows ``l_p < 2ᴱ``.

    Row-Top-k takes each query's θ′ up front from its scores against the
    longest live probes (:func:`~repro.core.top_k.seed_thresholds`) with
    one product, whose bits must not depend on the call's other queries (a
    BLAS product's rounding depends on the call's shape).  So it runs in
    fixed point: with ``b`` = :func:`seed_bits`, ``L = 2ᴱ`` and ``u =
    2⁻⁵³``, the direction ``s = q`` and the row ``t = p·l_p/L`` become
    integers ``rint(s·2ᵇ)`` and ``rint(fl(p·(l_p·2ᵇ⁻ᴱ)))``.  Their entries
    are at most ``N = 1 + γ_{r+3}(u)`` (a direction normalised in f64, as
    in :func:`screen_slack`), so they round to at most ``2ᵇ`` and every
    partial sum of their product is an integer below ``r·2²ᵇ ≤ 2⁵²``:
    exact in any summation order, FMA included.  ``x_p = L·2⁻²ᵇ·Σ`` is a
    pure function of the query and the row.  The verified score is ``y_p =
    fl(c_p·l_p)``, ``c_p`` from :func:`gather_matvec`.

    * **Rounding to integers** moves each entry by at most ``2⁻ᵇ⁻¹`` (plus
      ``u·|t_i|`` for the one rounding product).  With ``‖s‖₁, ‖t‖₁ ≤ √r·N``
      and ``Σ|s_i·t_i| ≤ N²``, ``|x_p − l_p·(q·p)| ≤ L·(2⁻ᵇ·(√r·N + r·2⁻ᵇ) +
      u·N²)``.
    * **The kernel's cosine** is within ``γ_r·N²`` of ``q·p`` in any order
      (Higham, §3.1), and ``fl(c_p·l_p)`` rounds once more: ``|y_p −
      l_p·(q·p)| ≤ L·N²·γ_{r+1}``.
    * **The seed.**  With ``|x_p − y_p| ≤ D`` for every row (the two items
      above), the k-th largest ``x`` minus ``D`` is at most the k-th largest
      ``y``.  ``|x_p| ≤ 1.01·L``, so rounding the margin and the
      subtraction costs under ``3u·L``, which ``8u·L`` covers with the
      ``u·N²·L`` above.  Underflow in the power-of-two scalings adds under
      ``2⁻¹⁰⁷⁴`` per rounding (a row of subnormal entries rounds to zero,
      within ``2⁻ᵇ⁻¹``), which ``2⁻¹⁰¹⁶`` covers, flush-to-zero included.

    Returns ``L·(2⁻ᵇ·(√r·N + r·2⁻ᵇ) + N²·γ_{r+1} + 8u) + 2⁻¹⁰¹⁶``: about
    ``8.4·10⁻⁷·L`` at rank 50.
    """
    rank = max(int(rank), 1)
    quantum = 2.0**-seed_bits(rank)
    norm = 1.0 + _gamma(rank + 3, _F64_EPS)
    slack = (quantum * (rank**0.5 * norm + rank * quantum)
             + norm * norm * _gamma(rank + 1, _F64_EPS) + 8.0 * _F64_EPS)
    return math.ldexp(slack, exponent) + 2.0**-1016


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
