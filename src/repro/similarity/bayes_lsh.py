"""BayesLSH-Lite style candidate pruning (paper reference [19]).

BayesLSH-Lite compares LSH signatures of a candidate pair and discards the
pair if the number of matching bits falls below a minimum ``m*``.  ``m*`` is
chosen so that a pair whose true cosine similarity is *at least* the
similarity threshold is discarded with probability at most the configured
false-negative rate (0.03 in the paper).

``m*`` is a pure function of ``(num_bits, threshold, false_negative_rate)``
and is computed per comparison from the caller's own threshold — the filter
carries no mutable threshold state, which makes the pruning decision for a
(query, candidate set, threshold) triple independent of what was filtered
before it (the order-independence contract of LEMP-BLSH; see
:mod:`repro.core.retrievers.blsh`).  The per-pair false-negative guarantee is
unchanged: each comparison uses the quantile at its *own* threshold.  The
binomial quantile behind ``m*`` is memoised, so per-pair recomputation costs
one dict lookup on the hot path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import stats

from repro.similarity.lsh import RandomProjectionSignatures, collision_probability
from repro.utils.validation import require_positive_int


@lru_cache(maxsize=65536)
def _binomial_quantile(num_bits: int, probability: float, false_negative_rate: float) -> int:
    quantile = stats.binom.ppf(false_negative_rate, num_bits, probability)
    if not np.isfinite(quantile):
        return 0
    return int(max(0, quantile))


def minimum_matches(num_bits: int, cosine_threshold: float, false_negative_rate: float) -> int:
    """Minimum number of matching bits a pair at the threshold must reach.

    Computed as the ``false_negative_rate`` quantile of a binomial with
    ``num_bits`` trials and per-bit collision probability at the threshold:
    a true-positive pair falls below this count with probability at most the
    false-negative rate.
    """
    require_positive_int(num_bits, "num_bits")
    if not 0.0 < false_negative_rate < 1.0:
        raise ValueError(f"false_negative_rate must be in (0, 1), got {false_negative_rate}")
    if cosine_threshold <= -1.0:
        return 0
    probability = float(collision_probability(min(cosine_threshold, 1.0)))
    return _binomial_quantile(int(num_bits), probability, float(false_negative_rate))


class BayesLshFilter:
    """Signature-based candidate filter over a fixed set of unit vectors.

    Parameters
    ----------
    directions:
        ``(size, rank)`` exact f64 unit vectors.
    num_bits, false_negative_rate, seed:
        Signature length, per-pair false-negative budget, hyperplane seed.
    """

    def __init__(
        self,
        directions: np.ndarray,
        num_bits: int = 32,
        false_negative_rate: float = 0.03,
        seed=None,
    ) -> None:
        directions = np.asarray(directions, dtype=np.float64)
        self.num_bits = num_bits
        self.false_negative_rate = false_negative_rate
        self._signer = RandomProjectionSignatures(directions.shape[1], num_bits, seed)
        self._signatures = self._signer.sign(directions)

    def memory_bytes(self) -> int:
        """Resident footprint of the signatures and hyperplanes."""
        return int(self._signatures.nbytes + self._signer.hyperplanes.nbytes)

    def prune(
        self,
        query_direction: np.ndarray,
        candidate_lids: np.ndarray,
        cosine_threshold: float,
    ) -> np.ndarray:
        """Return the subset of ``candidate_lids`` passing the minimum-match test."""
        candidate_lids = np.asarray(candidate_lids, dtype=np.intp)
        if candidate_lids.size == 0:
            return candidate_lids
        required = minimum_matches(self.num_bits, cosine_threshold, self.false_negative_rate)
        if required <= 0:
            return candidate_lids
        query_signature = self._signer.sign(query_direction)[0]
        matches = RandomProjectionSignatures.matching_bits(
            query_signature, self._signatures[candidate_lids]
        )
        return candidate_lids[matches >= required]
