"""Signed random-projection (SRP) LSH signatures for cosine similarity.

The BayesLSH-Lite bucket retriever (paper reference [19]) prunes candidates by
counting matching signature bits.  A signature bit is the sign of the inner
product with a random hyperplane; two unit vectors with angle ``α`` agree on a
bit with probability ``1 - α/π`` (Goemans–Williamson), which
:func:`collision_probability` exposes for the minimum-match computation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive_int


def collision_probability(cosine) -> np.ndarray:
    """Probability that one SRP bit matches for a pair with the given cosine."""
    cosine = np.clip(np.asarray(cosine, dtype=np.float64), -1.0, 1.0)
    return 1.0 - np.arccos(cosine) / np.pi


class RandomProjectionSignatures:
    """Generator of fixed random hyperplanes and bit signatures.

    Parameters
    ----------
    rank:
        Dimensionality of the input vectors.
    num_bits:
        Signature length (the paper uses a single 32-bit signature).
    seed:
        Seed or generator for the random hyperplanes.
    """

    def __init__(self, rank: int, num_bits: int = 32, seed=None) -> None:
        require_positive_int(rank, "rank")
        require_positive_int(num_bits, "num_bits")
        self.rank = rank
        self.num_bits = num_bits
        rng = ensure_rng(seed)
        self.hyperplanes = rng.standard_normal((num_bits, rank))

    def sign(self, vectors) -> np.ndarray:
        """Return the boolean signature matrix ``(num_vectors, num_bits)``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.rank:
            raise ValueError(
                f"vectors have rank {vectors.shape[1]}, signatures were built for rank {self.rank}"
            )
        return (vectors @ self.hyperplanes.T) >= 0.0

    @staticmethod
    def matching_bits(query_signature: np.ndarray, signatures: np.ndarray) -> np.ndarray:
        """Count, for every row of ``signatures``, the bits equal to ``query_signature``."""
        return np.sum(signatures == query_signature[None, :], axis=1)
