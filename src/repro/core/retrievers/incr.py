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
    """Candidate generation with incremental partial-inner-product pruning."""

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
        index = bucket.sorted_lists()
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
        probe_remainder = np.sqrt(np.clip(1.0 - partial_sqnorm, 0.0, None))
        upper_bound = partial_dot + query_remainder * probe_remainder

        # Probe-specific local threshold θ_p(q) = θ / (‖q‖ · ‖p‖).
        lengths = bucket.lengths
        with np.errstate(divide="ignore"):
            probe_threshold = np.where(
                lengths > 0.0, theta / (query_norm * np.where(lengths > 0.0, lengths, 1.0)), np.inf
            )
        return (counts > 0) & (upper_bound >= probe_threshold - _FLOAT_SLACK)
