"""Quantized screening tier: lossy candidate pre-filter, exact verification.

LEMP's verification reads candidate rows from the full-precision f64
direction matrix, so on large indexes memory bandwidth — not arithmetic —
bounds the hot loop.  A :class:`ScreenTier` holds a compressed copy of the
length-sorted direction matrix (f32, f16, or int8 with a per-vector scale
and offset) plus a per-row **error bound** on the cosine a compressed dot
product can be off by.  The solvers use it between candidate generation and
exact verification: a candidate is dropped only when even its *optimistic*
compressed score — approximate cosine plus the bound — cannot reach the
threshold, so screening can only over-admit, never drop a true result.
Every survivor is re-scored by the exact f64 kernel
(:func:`repro.core.kernels.gather_matvec`), whose per-row bits are
independent of the surrounding candidate set; the final results are
therefore byte-identical to the unscreened engine ("screen lossy, verify
exact" — see ``docs/architecture.md``).

Error bound derivation (per stored row ``p``, unit query direction ``q``)
--------------------------------------------------------------------------

The screen computes ``s = fl32(q32 · p~)`` where ``p~`` is the compressed
reconstruction of the exact unit direction ``p`` and ``q32 = f32(q)``.  The
absolute error ``|q·p − s|`` is bounded by three terms:

1. quantization, ``|q·(p − p~)| ≤ ‖q‖·‖p − p~‖ ≤ sqrt(r)·eps`` with the
   per-element reconstruction error ``eps``:  ``2^-24`` for f32, ``2^-11``
   for f16 (entries of a unit direction lie in [-1, 1], so relative epsilon
   bounds the absolute error), and ``scale/2`` for int8 (mid-rise rounding
   of ``(p_i − offset)/scale`` to an integer in [-127, 127]);
2. query conversion, ``|(q − q32)·p~| ≤ sqrt(r)·2^-24·‖p~‖ ≤ sqrt(r)·2^-23``;
3. f32 accumulation: for *any* summation order the classic ``gamma_r``
   bound gives ``≤ r·2^-24/(1 − r·2^-24)·‖q32‖·‖p~‖`` (int8 accumulates the
   integer codes, whose norm is up to 127·sqrt(r); multiplied back by
   ``scale ≤ 1/127`` this contributes an extra ``sqrt(r)`` factor).

The bounds below double the linear terms and quadruple the accumulation
term, so they stay valid for any BLAS reduction order and any rank the
engine meets in practice; over-estimation only costs a few extra survivors
(selectivity is pinned empirically in ``tests/data/screening_baseline.json``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ScreeningError

#: Screen dtypes accepted by ``Lemp(screen_dtype=...)`` and the
#: ``lemp:LI/f16``-style spec suffix.
SCREEN_DTYPES = ("f32", "f16", "int8")

#: Per-element absolute reconstruction error of a value in [-1, 1].
_ELEMENT_EPS = {"f32": 2.0**-24, "f16": 2.0**-11}

#: numpy storage dtype per screen dtype name.
_STORAGE = {"f32": np.float32, "f16": np.float16, "int8": np.int8}

#: Largest int8 code magnitude used by the symmetric mid-range quantizer.
_INT8_LEVELS = 127

#: Unit roundoff of f32 accumulation and the f32 query conversion.
_F32_EPS = 2.0**-24

#: Extra per-element slack on the int8 *generation* reconstruction: the codes
#: are expanded to f32 (``codes * scale + offset``), so on top of the
#: quantization error ``scale / 2`` the stored value carries one f32 rounding
#: of a quantity in [-1, 1].  ``2^-23`` doubles the f32 unit roundoff to also
#: absorb the (f64) expansion arithmetic.
_INT8_GEN_EPS = 2.0**-23


def validate_screen_dtype(value) -> str | None:
    """Canonicalize a screen dtype knob: ``None`` stays off, names lower-case.

    Raises :class:`~repro.exceptions.ScreeningError` for anything else, so a
    typo'd knob fails at construction instead of at first query.
    """
    if value is None:
        return None
    name = str(value).strip().lower()
    if name in ("", "none", "off", "f64"):
        return None
    if name not in SCREEN_DTYPES:
        raise ScreeningError(
            f"unknown screen dtype {value!r}; expected one of {SCREEN_DTYPES} or None"
        )
    return name


def validate_gen_dtype(value) -> str | None:
    """Canonicalize a generation dtype knob (same names as the screen knob).

    ``gen_dtype`` selects the compressed tier the candidate-*generation*
    indexes (sorted lists, CP arrays, L2AP lists, BLSH signatures) are built
    over; ``None`` keeps generation on the exact f64 directions.
    """
    if value is None:
        return None
    name = str(value).strip().lower()
    if name in ("", "none", "off", "f64"):
        return None
    if name not in SCREEN_DTYPES:
        raise ScreeningError(
            f"unknown gen dtype {value!r}; expected one of {SCREEN_DTYPES} or None"
        )
    return name


def _cosine_bounds(dtype_name: str, rank: int, scale: np.ndarray | None,
                   rows: int) -> np.ndarray:
    """Per-row upper bound on ``|exact cosine − screened cosine|``."""
    root = float(np.sqrt(max(rank, 1)))
    conversion = root * 2.0 * _F32_EPS  # query f32 conversion, ‖p~‖ ≤ 2 folded in
    if dtype_name == "int8":
        accumulation = 4.0 * rank * root * _F32_EPS
        element = np.asarray(scale, dtype=np.float64) * 0.5
        return 2.0 * root * element + 2.0 * conversion + accumulation
    accumulation = 4.0 * rank * _F32_EPS
    element = _ELEMENT_EPS[dtype_name]
    bound = 2.0 * root * element + 2.0 * conversion + accumulation
    return np.full(rows, bound, dtype=np.float64)


class ScreenTier:
    """One compressed copy of a store's direction matrix, with error bounds.

    Instances are value-like and read-only from the solvers' point of view:
    :meth:`upper_cosines` is a pure function of its arguments, so a tier can
    be shared by concurrent worker views (the same contract
    as :class:`~repro.core.retrievers.base.BucketRetriever`).  The backing
    arrays may be read-only ``numpy.memmap`` views of a persisted index;
    the store's first write re-packs them into RAM with its own arrays.
    Rows are addressed by store buffer position (a bucket's ``start`` plus
    a bucket-local row), so gap rows are never read.
    """

    def __init__(self, dtype_name: str, data: np.ndarray,
                 scale: np.ndarray | None, offset: np.ndarray | None) -> None:
        self.dtype_name = dtype_name
        self.data = data
        self.scale = scale
        self.offset = offset
        self.rank = data.shape[1]
        self.bounds = _cosine_bounds(dtype_name, self.rank, scale, data.shape[0])

    @property
    def size(self) -> int:
        """Number of rows (the store's buffer rows, gaps included)."""
        return int(self.data.shape[0])

    @property
    def row_fields(self) -> tuple[str, ...]:
        """Row-aligned attributes the store moves with its own rows on a write."""
        if self.dtype_name == "int8":
            return ("data", "bounds", "scale", "offset")
        return ("data", "bounds")

    # ------------------------------------------------------------------ build

    @classmethod
    def build(cls, directions: np.ndarray, dtype_name: str) -> "ScreenTier":
        """Quantize a (size, rank) f64 direction matrix.

        Quantization and the error bounds are strictly row-local, so moving
        rows with the store's (``VectorStore.merge`` / ``repack``) and
        quantizing only inserted rows reproduces a fresh build on the
        updated matrix byte for byte.
        """
        name = validate_screen_dtype(dtype_name)
        if name is None:
            raise ScreeningError("cannot build a screen tier without a dtype")
        directions = np.asarray(directions, dtype=np.float64)
        if name in ("f32", "f16"):
            return cls(name, np.ascontiguousarray(directions.astype(_STORAGE[name])),
                       None, None)
        data, scale, offset = _quantize_int8(directions)
        return cls(name, data, scale, offset)

    @classmethod
    def from_state(cls, dtype_name: str, data, scale=None, offset=None,
                   expected_shape: tuple[int, int] | None = None) -> "ScreenTier":
        """Rebuild a tier from persisted arrays, validating before first use.

        Raises :class:`~repro.exceptions.ScreeningError` — at *load* time —
        when the arrays are inconsistent with ``dtype_name`` or
        ``expected_shape``, or when an int8 scale/offset array is missing,
        mis-shaped, or non-finite.  Error bounds are always re-derived from
        the (validated) scale, never trusted from disk.
        """
        name = validate_screen_dtype(dtype_name)
        if name is None:
            raise ScreeningError("cannot restore a screen tier without a dtype")
        data = np.asarray(data)
        if data.ndim != 2:
            raise ScreeningError(
                f"corrupt screen tier: data must be 2-D, got shape {data.shape}"
            )
        if data.dtype != np.dtype(_STORAGE[name]):
            raise ScreeningError(
                f"corrupt screen tier: {name} tier stored as {data.dtype}, "
                f"expected {np.dtype(_STORAGE[name])}"
            )
        if expected_shape is not None and tuple(data.shape) != tuple(expected_shape):
            raise ScreeningError(
                f"corrupt screen tier: data shape {tuple(data.shape)} does not "
                f"match the store's direction matrix {tuple(expected_shape)}"
            )
        if name != "int8":
            if scale is not None or offset is not None:
                raise ScreeningError(
                    f"corrupt screen tier: {name} tier carries int8 scale/offset arrays"
                )
            return cls(name, data, None, None)
        if scale is None or offset is None:
            raise ScreeningError(
                "corrupt screen tier: int8 tier is missing its scale/offset arrays"
            )
        scale = np.asarray(scale, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        rows = data.shape[0]
        if scale.shape != (rows,) or offset.shape != (rows,):
            raise ScreeningError(
                "corrupt screen tier: int8 scale/offset must be one value per row, "
                f"got shapes {scale.shape} / {offset.shape} for {rows} rows"
            )
        if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(offset))):
            raise ScreeningError(
                "corrupt screen tier: int8 scale/offset arrays contain non-finite values"
            )
        if np.any(scale < 0.0):
            raise ScreeningError(
                "corrupt screen tier: int8 scale array contains negative values"
            )
        return cls(name, data, scale, offset)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The arrays :meth:`from_state` needs, for ``index.npz`` persistence."""
        arrays = {"screen_data": self.data}
        if self.dtype_name == "int8":
            arrays["screen_scale"] = self.scale
            arrays["screen_offset"] = self.offset
        return arrays

    # -------------------------------------------------------------- screening

    def upper_cosines(self, start: int, candidates: np.ndarray,
                      query_direction: np.ndarray) -> np.ndarray:
        """Upper bound on the exact cosine of each candidate with the query.

        ``candidates`` are bucket-local row indices; ``start`` is the
        bucket's offset into the store, so ``start + candidates`` addresses
        this tier's rows.  Returns approximate cosine **plus** the per-row
        error bound, in f64: the exact cosine is ``<=`` the returned value
        for every candidate, which is all the solvers' conservative
        keep-tests need.
        """
        rows = start + candidates
        query32 = np.asarray(query_direction, dtype=np.float32)
        gathered = self.data.take(rows, axis=0)
        if self.dtype_name == "int8":
            codes = gathered.astype(np.float32)
            dot = np.dot(codes, query32).astype(np.float64)
            query_sum = float(np.asarray(query32, dtype=np.float64).sum())
            approx = self.scale[rows] * dot + self.offset[rows] * query_sum
        else:
            gathered = np.asarray(gathered, dtype=np.float32)
            approx = np.dot(gathered, query32).astype(np.float64)
        return approx + self.bounds[rows]

    def upper_cosine_block(self, start: int, count: int,
                           query_directions: np.ndarray) -> np.ndarray:
        """:meth:`upper_cosines` of rows ``[start, start + count)`` for many queries.

        Returns a ``(count, queries)`` f64 matrix from one f32 matrix
        product.  The error bounds hold for any summation order, so the
        block keeps the per-pair guarantee: every exact cosine is ``<=`` its
        entry.
        """
        queries32 = np.asarray(query_directions, dtype=np.float32)
        stored = np.asarray(self.data[start:start + count], dtype=np.float32)
        approx = (stored @ queries32.T).astype(np.float64)
        if self.dtype_name == "int8":
            approx *= self.scale[start:start + count, None]
            approx += np.multiply.outer(self.offset[start:start + count],
                                        queries32.astype(np.float64).sum(axis=1))
        approx += self.bounds[start:start + count, None]
        return approx

    # ------------------------------------------------------------- generation

    def element_bounds(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Per-row bound on ``|p̄_f − p̃_f|`` of the stored values, any coordinate.

        This is the *per-element* reconstruction error the candidate-generation
        indexes widen their feasible regions / prefix bounds by (unlike
        :attr:`bounds`, which bounds a whole compressed *dot product* for the
        screening step).  f32 and f16 values in [-1, 1] are off by at most
        their unit roundoff; int8 codes expanded to f32 are off by at most
        ``scale / 2`` plus one f32 rounding.  Derived on demand from the
        (row-local) scales, so incremental updates need no extra bookkeeping.
        """
        if end is None:
            end = self.size
        if self.dtype_name == "int8":
            return np.asarray(self.scale[start:end], dtype=np.float64) * 0.5 + _INT8_GEN_EPS
        return np.full(end - start, _ELEMENT_EPS[self.dtype_name], dtype=np.float64)

    def gen_view(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, element_bounds)`` of rows ``[start, end)`` for index builds.

        ``values`` are the stored per-coordinate direction values — the f32
        data slice directly, the f32 *expansion* of the f16 slice (every f16
        value is exactly representable in f32, so the numbers and hence the
        widening bounds are unchanged, while the scan hot path avoids the
        slow f16→f64 conversions), or the f32 expansion
        ``codes · scale + offset`` for int8 (codes are not comparable across
        rows, so sorted lists and inverted indexes need the expanded values).
        ``element_bounds`` is :meth:`element_bounds` for the same rows.  The
        expansion is transient build-time work; the caller's index keeps only
        what it copies out.
        """
        if self.dtype_name == "int8":
            codes = self.data[start:end].astype(np.float64)
            values = codes * self.scale[start:end, None] + self.offset[start:end, None]
            values = np.ascontiguousarray(values.astype(np.float32))
        elif self.dtype_name == "f16":
            values = np.ascontiguousarray(self.data[start:end].astype(np.float32))
        else:
            values = self.data[start:end]
        return values, self.element_bounds(start, end)

    # ------------------------------------------------------------- inspection

    def memory_bytes(self) -> int:
        """Resident footprint of the tier (compressed data + int8 side arrays)."""
        total = int(self.data.nbytes)
        if self.scale is not None:
            total += int(self.scale.nbytes) + int(self.offset.nbytes)
        return total


def _quantize_int8(directions: np.ndarray):
    """Per-row symmetric mid-range int8 quantization.

    Every row gets ``offset = (max + min) / 2`` and
    ``scale = (max - min) / 254`` so its value range maps onto integer codes
    in [-127, 127] with reconstruction error at most ``scale / 2`` per
    element.  Constant rows (including the all-zero direction of a zero
    vector) get ``scale = 0`` and reconstruct exactly from the offset.
    """
    low = directions.min(axis=1)
    high = directions.max(axis=1)
    offset = (high + low) / 2.0
    scale = (high - low) / (2.0 * _INT8_LEVELS)
    safe = np.where(scale > 0.0, scale, 1.0)
    codes = np.rint((directions - offset[:, None]) / safe[:, None])
    codes = np.clip(codes, -_INT8_LEVELS, _INT8_LEVELS)
    codes[scale <= 0.0] = 0.0
    return (
        np.ascontiguousarray(codes.astype(np.int8)),
        np.ascontiguousarray(scale),
        np.ascontiguousarray(offset),
    )
