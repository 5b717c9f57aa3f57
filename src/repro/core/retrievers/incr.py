"""INCR: incremental pruning with partial inner products (paper Section 4.3).

INCR scans the same focus-coordinate scan ranges as COORD but also accumulates
the partial inner product ``q̄_Fᵀ p̄_F`` and partial squared norm ``‖p̄_F‖²`` of
every probe it encounters (the *extended CP array*).  A probe is kept only if
the partial product plus the Cauchy–Schwarz bound on the unseen coordinates
can still reach the *probe-specific* threshold ``θ_p(q) = θ / (‖q‖·‖p‖)``
(Eq. 5) — a strictly sharper test than COORD's, which can also exploit length
differences inside the bucket.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.cp_array import accumulate_partial_products
from repro.core.retrievers.coord import CoordRetriever, select_focus_coordinates

#: Slack subtracted from the threshold comparison to keep the filter exact in
#: the presence of floating-point rounding.
_FLOAT_SLACK = 1e-9


class IncrRetriever(CoordRetriever):
    """Candidate generation with incremental partial-inner-product pruning.

    With a compressed generation tier (``gen``, LEMP's ``gen_dtype`` knob)
    the scans read the tier's quantized sorted lists.  A true candidate
    (``cos ≥ θ_p ≥ θ_b``) lies inside every focus coordinate's feasible
    region, so the widened scans see it in *all* ``φ`` ranges; its compressed
    partial dot product is then off by at most ``ε · Σ_F |q̄_f| ≤ ε · √φ``
    (Cauchy–Schwarz on the unit query direction) and its compressed partial
    squared norm by at most ``φ · ε · (2 + ε)`` (per-row bound ``ε``), which
    the keep-test below adds back — the widened bound dominates the exact one
    for every true candidate, so the filter can only over-produce, never
    drop.
    """

    name = "INCR"

    partial_products = True

    def unpruned(self, query_norm: float, theta: float, theta_b: float) -> bool:
        return not np.isfinite(theta_b) or theta_b <= 0.0 or theta <= 0.0 or query_norm <= 0.0

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 3,
    ) -> np.ndarray:
        if self.unpruned(query_norm, theta, theta_b):
            return self.all_candidates(bucket)
        focus = select_focus_coordinates(query_direction, phi)
        index = self._index(bucket)
        counts, partial_dot, partial_sqnorm = accumulate_partial_products(
            index, query_direction, focus, theta_b, bucket.size
        )
        if not counts.any():
            return np.empty(0, dtype=np.intp)
        keep = self.keep(bucket, index, query_direction, focus, query_norm, theta,
                         counts, partial_dot, partial_sqnorm)
        return np.nonzero(keep)[0].astype(np.intp)

    def keep(self, bucket, index, query_direction, focus, query_norm, theta,
             counts, partial_dot, partial_sqnorm) -> np.ndarray:
        """Probes seen in a scan range whose bound can still reach ``θ_p(q)``."""
        # Upper bound on the unseen part of the cosine (Section 4.3):
        # u = sqrt(1 - ‖q̄_F‖²) · sqrt(1 - ‖p̄_F‖²).
        query_focus_sqnorm = float(np.sum(query_direction[focus] ** 2))
        query_remainder = np.sqrt(max(0.0, 1.0 - query_focus_sqnorm))
        threshold_slack = _FLOAT_SLACK
        if index.compressed and index.row_bounds is None:
            # Uniform-bound tiers (f32/f16): both slack terms are scalars —
            # the squared-norm slack raises the clip ceiling and the
            # dot-product slack moves to the threshold side of the keep
            # test, so the vector work is identical to the exact path's.
            # ``Σ_F |q̄_f| ≤ √φ·‖q̄_F‖ ≤ √φ`` majorises the dot slack without
            # touching the query at all.
            eps = index.element_bound
            threshold_slack += eps * focus.size ** 0.5
            sqnorm_ceiling = 1.0 + focus.size * eps * (2.0 + eps)
            probe_remainder = np.sqrt(np.clip(sqnorm_ceiling - partial_sqnorm, 0.0, None))
            upper_bound = partial_dot + query_remainder * probe_remainder
        elif index.compressed:
            # int8: per-row bounds, so the slack terms broadcast as vectors.
            eps = index.row_bounds
            dot_slack = eps * (focus.size ** 0.5)
            sqnorm_slack = focus.size * eps * (2.0 + eps)
            probe_remainder = np.sqrt(np.clip((1.0 + sqnorm_slack) - partial_sqnorm, 0.0, None))
            upper_bound = partial_dot + dot_slack + query_remainder * probe_remainder
        else:
            probe_remainder = np.sqrt(np.clip(1.0 - partial_sqnorm, 0.0, None))
            upper_bound = partial_dot + query_remainder * probe_remainder

        # Probe-specific local threshold θ_p(q) = θ / (‖q‖ · ‖p‖).
        lengths = bucket.lengths
        with np.errstate(divide="ignore"):
            probe_threshold = np.where(
                lengths > 0.0, theta / (query_norm * np.where(lengths > 0.0, lengths, 1.0)), np.inf
            )
        return (counts > 0) & (upper_bound >= probe_threshold - threshold_slack)
