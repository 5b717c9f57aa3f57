"""Abstract interface of a bucket retrieval algorithm."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.bucket import Bucket


class BucketRetriever(ABC):
    """Candidate generator for one (query, bucket) pair.

    Subclasses implement :meth:`retrieve`; the Above-θ / Row-Top-k solvers take
    care of bucket-level pruning beforehand and exact verification afterwards.

    **Shard-safety contract.**  One retriever instance (via one selector) is
    shared by every concurrent worker view of a call, so
    :meth:`retrieve` must be a pure function of its arguments plus the
    constructor configuration: no per-call mutable state on ``self``, and any
    per-bucket state goes through the bucket's lazy-index slots
    (:meth:`~repro.core.bucket.Bucket.get_index` /
    :meth:`~repro.core.bucket.Bucket.peek_index`), where builds must be
    deterministic and idempotent — a racing double-build has to produce
    bit-identical content.  The candidate set returned for a
    ``(query, bucket, thresholds)`` triple must not depend on which
    (query, bucket) pairs were processed before it.
    """

    #: Short name used by the tuner and in benchmark output.
    name: str = "base"

    @abstractmethod
    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int,
    ) -> np.ndarray:
        """Return candidate local identifiers for one query against one bucket.

        Parameters
        ----------
        bucket:
            The probe bucket to search.
        query_direction:
            Unit direction of the query vector.
        query_norm:
            Euclidean norm of the query (1.0 for Row-Top-k, see Section 4.5).
        theta:
            Global inner-product threshold (the running θ′ for Row-Top-k).
        theta_b:
            Local cosine threshold of this query for this bucket; the solver
            guarantees ``theta_b <= 1`` (otherwise the bucket is pruned).
        phi:
            Number of focus coordinates for coordinate-based methods; ignored
            by the others.

        Returns
        -------
        numpy.ndarray
            Candidate local identifiers (positions within the bucket).  The
            set must contain every probe ``p`` with ``qᵀp >= theta``.
        """

    @staticmethod
    def all_candidates(bucket: Bucket) -> np.ndarray:
        """Every probe of the bucket (the no-pruning fallback)."""
        return np.arange(bucket.size, dtype=np.intp)
