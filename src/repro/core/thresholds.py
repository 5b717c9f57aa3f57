"""Threshold arithmetic and coordinate feasible-region bounds.

This module implements the numerical heart of LEMP's pruning:

* the *local threshold* ``θ_b(q) = θ / (‖q‖ · l_b)`` of a query for a bucket
  (Eq. 3 of the paper), used both to prune whole buckets and to decide which
  retrieval algorithm to run;
* the *probe-specific threshold* ``θ_p(q) = θ / (‖q‖ · ‖p‖)`` used by INCR
  (Eq. 5);
* the coordinate *feasible region* ``[L_f, U_f]`` of Section 4.2, i.e. the
  range of values a probe direction may take on coordinate ``f`` without being
  provably below the local threshold.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "local_threshold",
    "local_thresholds",
    "probe_thresholds",
    "feasible_region",
]


def local_threshold(theta: float, query_norm: float, bucket_max_length: float) -> float:
    """Local cosine threshold of one query for one bucket (Eq. 3).

    Degenerate inputs (zero query norm or an all-zero bucket) yield ``+inf``
    when ``theta > 0`` (the bucket can never contribute) and ``-inf`` otherwise
    (every probe trivially satisfies a non-positive threshold).
    """
    denominator = query_norm * bucket_max_length
    if denominator <= 0.0:
        return np.inf if theta > 0.0 else -np.inf
    return theta / denominator


def local_thresholds(theta, query_norms, bucket_max_length) -> np.ndarray:
    """Vectorised :func:`local_threshold`; thresholds, norms and lengths broadcast.

    A column of bucket lengths gives one row per bucket.
    """
    denominator = np.multiply(query_norms, bucket_max_length, dtype=np.float64)
    positive = denominator > 0.0
    if positive.all():
        return np.divide(theta, denominator)
    out = np.divide(theta, np.where(positive, denominator, 1.0))
    return np.where(positive, out, np.where(np.asarray(theta) > 0.0, np.inf, -np.inf))


def probe_thresholds(theta: float, query_norm: float, probe_lengths: np.ndarray) -> np.ndarray:
    """Probe-specific local thresholds ``θ_p(q)`` used by INCR (Eq. 5)."""
    probe_lengths = np.asarray(probe_lengths, dtype=np.float64)
    denominator = query_norm * probe_lengths
    out = np.full(probe_lengths.shape, np.inf if theta > 0.0 else -np.inf)
    positive = denominator > 0.0
    np.divide(theta, denominator, out=out, where=positive)
    return out


def feasible_region(query_coords: np.ndarray, theta_b: float) -> tuple[np.ndarray, np.ndarray]:
    """Feasible region ``[L_f, U_f]`` for each focus coordinate (Section 4.2).

    Parameters
    ----------
    query_coords:
        Values ``q̄_f`` of the normalised query at the focus coordinates.
    theta_b:
        Local threshold ``θ_b(q)`` of the query for the bucket.  Values outside
        ``(0, 1]`` receive the trivial region ``[-1, 1]`` (no pruning) — the
        bucket-level pruning step already handles ``θ_b > 1``.

    Returns
    -------
    (lower, upper):
        Arrays of the same shape as ``query_coords`` with
        ``-1 <= lower <= upper <= 1``.  A probe whose coordinate ``f`` falls
        outside ``[lower_f, upper_f]`` provably has ``q̄ᵀp̄ < θ_b(q)``.
    """
    q = np.asarray(query_coords, dtype=np.float64)
    if not np.isfinite(theta_b) or theta_b <= 0.0 or theta_b > 1.0:
        return np.full(q.shape, -1.0), np.full(q.shape, 1.0)

    q = np.clip(q, -1.0, 1.0)
    spread = np.sqrt(max(0.0, 1.0 - theta_b * theta_b)) * np.sqrt(np.clip(1.0 - q * q, 0.0, None))
    lower_raw = q * theta_b - spread
    upper_raw = q * theta_b + spread

    # The quadratic solved in Section 4.2 is only a valid constraint on the
    # side where q̄_f p̄_f stays below θ_b(q); the paper's case distinction
    # keeps the raw bound only when it is actually binding.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(theta_b, q, out=np.full(q.shape, np.inf), where=q != 0.0)
    lower = np.where((q >= 0.0) | (lower_raw > ratio), lower_raw, -1.0)
    upper = np.where((q <= 0.0) | (upper_raw < ratio), upper_raw, 1.0)

    lower = np.clip(lower, -1.0, 1.0)
    upper = np.clip(upper, -1.0, 1.0)
    return lower, upper
